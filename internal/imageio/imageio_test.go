package imageio

import (
	"image"
	"image/color"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mathx"
	"repro/internal/tensor"
)

func TestToImageRGB(t *testing.T) {
	tt := tensor.New(3, 2, 2)
	tt.Set(1, 0, 0, 0)   // red at (0,0)
	tt.Set(1, 1, 1, 1)   // green at (1,1)
	tt.Set(0.5, 2, 0, 1) // half blue at (0,1)
	img, err := ToImage(tt)
	if err != nil {
		t.Fatal(err)
	}
	if c := img.NRGBAAt(0, 0); c.R != 255 || c.G != 0 {
		t.Fatalf("pixel (0,0) = %+v", c)
	}
	if c := img.NRGBAAt(1, 1); c.G != 255 {
		t.Fatalf("pixel (1,1) = %+v", c)
	}
	if c := img.NRGBAAt(1, 0); c.B != 128 {
		t.Fatalf("pixel (1,0) = %+v", c)
	}
}

func TestToImageGrayscale(t *testing.T) {
	tt := tensor.New(1, 2, 2)
	tt.Set(1, 0, 0, 1)
	img, err := ToImage(tt)
	if err != nil {
		t.Fatal(err)
	}
	c := img.NRGBAAt(1, 0)
	if c.R != 255 || c.G != 255 || c.B != 255 {
		t.Fatalf("grayscale pixel not replicated: %+v", c)
	}
}

func TestToImageClampsOutOfRange(t *testing.T) {
	tt := tensor.New(3, 1, 1)
	tt.Set(2.5, 0, 0, 0)
	tt.Set(-1, 1, 0, 0)
	img, err := ToImage(tt)
	if err != nil {
		t.Fatal(err)
	}
	c := img.NRGBAAt(0, 0)
	if c.R != 255 || c.G != 0 {
		t.Fatalf("clamping failed: %+v", c)
	}
}

func TestToImageRejectsBadShapes(t *testing.T) {
	if _, err := ToImage(tensor.New(4, 4)); err == nil {
		t.Error("2-d tensor accepted")
	}
	if _, err := ToImage(tensor.New(2, 4, 4)); err == nil {
		t.Error("2-channel tensor accepted")
	}
}

func TestFromImageRoundTrip(t *testing.T) {
	rng := mathx.NewRNG(1)
	orig := tensor.RandU(rng, 0, 1, 3, 5, 7)
	img, err := ToImage(orig)
	if err != nil {
		t.Fatal(err)
	}
	back := FromImage(img)
	if !back.SameShape(orig) {
		t.Fatalf("round-trip shape = %v", back.Shape())
	}
	// 8-bit quantization bounds the round-trip error by 1/255 per value.
	diff := tensor.Sub(back, orig)
	if diff.LInfNorm() > 1.0/255+1e-9 {
		t.Fatalf("round-trip error %v exceeds quantization bound", diff.LInfNorm())
	}
}

func TestSaveLoadPNG(t *testing.T) {
	rng := mathx.NewRNG(2)
	orig := tensor.RandU(rng, 0, 1, 3, 6, 6)
	path := filepath.Join(t.TempDir(), "img.png")
	if err := SavePNG(orig, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPNG(path)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.Sub(back, orig).LInfNorm() > 1.0/255+1e-9 {
		t.Fatal("PNG round trip exceeded quantization error")
	}
}

func TestLoadPNGErrors(t *testing.T) {
	if _, err := LoadPNG(filepath.Join(t.TempDir(), "missing.png")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestASCII(t *testing.T) {
	tt := tensor.New(1, 2, 3)
	tt.Set(1, 0, 0, 0)
	s := ASCII(tt)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 2 || len(lines[0]) != 3 {
		t.Fatalf("ASCII grid wrong: %q", s)
	}
	if lines[0][0] != '@' {
		t.Fatalf("bright pixel = %q", lines[0][0])
	}
	if lines[1][0] != ' ' {
		t.Fatalf("dark pixel = %q", lines[1][0])
	}
	if got := ASCII(tensor.New(2, 2)); got != "<not CHW>" {
		t.Fatalf("bad-shape ASCII = %q", got)
	}
}

func TestFromImageHandlesOffsetBounds(t *testing.T) {
	img := image.NewNRGBA(image.Rect(2, 3, 5, 6))
	img.SetNRGBA(2, 3, color.NRGBA{R: 255, A: 255})
	tt := FromImage(img)
	if tt.Dim(1) != 3 || tt.Dim(2) != 3 {
		t.Fatalf("offset-bounds shape = %v", tt.Shape())
	}
	if tt.At(0, 0, 0) < 0.99 {
		t.Fatal("offset-bounds pixel lost")
	}
}
