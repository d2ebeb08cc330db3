package nn

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mathx"
	"repro/internal/tensor"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := mathx.NewRNG(61)
	net, _ := TinyCNN(1, 8, 4, rng)
	img := tensor.RandU(rng, 0, 1, 1, 8, 8)
	before := net.Probs(img)

	var buf bytes.Buffer
	if err := net.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	// Load into a freshly initialized network with different weights.
	net2, _ := TinyCNN(1, 8, 4, mathx.NewRNG(999))
	different := false
	after0 := net2.Probs(img)
	for i := range before {
		if before[i] != after0[i] {
			different = true
		}
	}
	if !different {
		t.Fatal("fresh network coincidentally identical — test is vacuous")
	}
	if err := net2.LoadWeights(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	after := net2.Probs(img)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("probs differ after round trip: %v vs %v", before, after)
		}
	}
}

func TestSaveLoadFileRoundTrip(t *testing.T) {
	rng := mathx.NewRNG(62)
	net, _ := TinyCNN(1, 8, 3, rng)
	path := filepath.Join(t.TempDir(), "weights.bin")
	if err := net.SaveWeightsFile(path); err != nil {
		t.Fatal(err)
	}
	net2, _ := TinyCNN(1, 8, 3, mathx.NewRNG(777))
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := net2.LoadWeights(f); err != nil {
		t.Fatal(err)
	}
	img := tensor.RandU(rng, 0, 1, 1, 8, 8)
	a, b := net.Probs(img), net2.Probs(img)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("file round trip changed weights")
		}
	}
}

func TestLoadRejectsWrongTopology(t *testing.T) {
	rng := mathx.NewRNG(63)
	net, _ := TinyCNN(1, 8, 4, rng)
	var buf bytes.Buffer
	if err := net.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	other, _ := TinyCNN(1, 8, 7, mathx.NewRNG(1)) // different class count
	if err := other.LoadWeights(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("loading mismatched topology succeeded")
	}
}

func TestLoadRejectsCorruptFile(t *testing.T) {
	rng := mathx.NewRNG(64)
	net, _ := TinyCNN(1, 8, 4, rng)

	// Bad magic.
	if err := net.LoadWeights(bytes.NewReader([]byte("NOTAFILE"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncated file.
	var buf bytes.Buffer
	if err := net.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if err := net.LoadWeights(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated file accepted")
	}
	// Empty file.
	if err := net.LoadWeights(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty file accepted")
	}
}

func TestSaveWeightsFileAtomic(t *testing.T) {
	rng := mathx.NewRNG(65)
	net, _ := TinyCNN(1, 8, 4, rng)
	dir := t.TempDir()
	path := filepath.Join(dir, "w.bin")
	if err := net.SaveWeightsFile(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp file left behind: %v", entries)
	}
}
