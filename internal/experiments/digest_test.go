package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/gtsrb"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// bitsDigest hashes figure results bit for bit: every number as the
// little-endian Float64bits of its float64 value, every name as its
// length then its bytes. Two runs share a digest only if every pred,
// confidence, accuracy and label agrees exactly.
type bitsDigest struct{ h hash.Hash }

func newBitsDigest() *bitsDigest { return &bitsDigest{h: sha256.New()} }

func (d *bitsDigest) nums(vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		d.h.Write(buf[:])
	}
}

func (d *bitsDigest) names(ss ...string) {
	for _, s := range ss {
		d.nums(float64(len(s)))
		d.h.Write([]byte(s))
	}
}

func (d *bitsDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func panelsDigest(ps []Fig7Panel) string {
	d := newBitsDigest()
	for _, p := range ps {
		d.names(p.AttackName, p.FilterName)
		d.nums(float64(p.Scenario.ID), float64(p.TM1Pred), p.TM1Conf, float64(p.FilteredPred), p.FilteredConf, b2f(p.Neutralized))
	}
	return d.sum()
}

func curvesDigest(cs []Fig7Curve) string {
	d := newBitsDigest()
	for _, c := range cs {
		d.names(c.AttackName)
		d.names(c.FilterNames...)
		d.nums(float64(c.Scenario.ID))
		d.nums(c.Top5...)
	}
	return d.sum()
}

// checkDigest fails the test when got differs from the pinned digest.
func checkDigest(t *testing.T, what, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s digest %s, pinned %s — the figure's bits moved", what, got, want)
	}
}

// TestFig7CurvesDigest pins the Fig. 7 panels and accuracy curves, bit for
// bit, on TestFig7ParallelMatchesSerial's options: filter-blind crafting
// shared across the filter axis, and the Top-5 reduction over the
// attacked subset.
func TestFig7CurvesDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("curve sweep skipped in -short")
	}
	env := tinyEnv(t)
	res, err := RunFig7(context.Background(), env, SweepOptions{
		Scenarios:      PaperScenarios[:2],
		AttackNames:    []string{"fgsm", "bim"},
		LAPSizes:       []int{4, 8},
		LARRadii:       []int{1},
		IncludeCurves:  true,
		CurveScenarios: PaperScenarios[:1],
	})
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "fig7 panels", panelsDigest(res.Panels), "458124cf84fe36808716cabd9f2eeac1d6b08fa4cd0fc29c02d5f111a14d50a3")
	checkDigest(t, "fig7 curves", curvesDigest(res.Curves), "e83f732b72514c2f2256756430dd276bee32b049276baabf657feb33457e7835")
}

// TestFig9CurvesDigest pins the filter-aware curves: every (filter,
// image) cell crafts its own example, and the identity column crafts
// with the bare filter-aware attack.
func TestFig9CurvesDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("curve sweep skipped in -short")
	}
	env := tinyEnv(t)
	res, err := RunFig9(context.Background(), env, SweepOptions{
		Scenarios:     PaperScenarios[:1],
		AttackNames:   []string{"fgsm"},
		LAPSizes:      []int{4},
		LARRadii:      []int{1},
		IncludeCurves: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "fig9 panels", panelsDigest(res.Panels), "7726643c1c7a6887a954a70bc6b50a4c103db24b679af5ae86d6cad2b3ad8bf0")
	checkDigest(t, "fig9 curves", curvesDigest(res.Curves), "f1c2b0fc36d721607306b928cf285d24830c280d10933b0876ffa8b9a75611e6")
}

// TestFig5Digest pins TestFig5Smoke's rows bit for bit.
func TestFig5Digest(t *testing.T) {
	env := tinyEnv(t)
	res, err := RunFig5(context.Background(), env, []string{"fgsm", "bim"})
	if err != nil {
		t.Fatal(err)
	}
	d := newBitsDigest()
	for _, r := range res.Rows {
		d.names(r.AttackName)
		d.nums(float64(r.Scenario.ID), float64(r.CleanPred), r.CleanConf, float64(r.AdvPred), r.AdvConf, b2f(r.Success), r.NoiseLInf)
	}
	checkDigest(t, "fig5 rows", d.sum(), "0c1e9b2007c9661dee9d4cb3871c4df1ab98c3144df62b921324108189ac7cd8")
}

// TestFig6Digest pins TestFig6Smoke's baseline and cells bit for bit.
func TestFig6Digest(t *testing.T) {
	env := tinyEnv(t)
	res, err := RunFig6(context.Background(), env, []string{"fgsm"})
	if err != nil {
		t.Fatal(err)
	}
	d := newBitsDigest()
	d.nums(res.Baseline.Top1, res.Baseline.Top5, float64(res.Samples))
	for _, c := range res.Cells {
		d.names(c.AttackName)
		d.nums(float64(c.Scenario.ID), c.Top1, c.Top5)
	}
	checkDigest(t, "fig6 cells", d.sum(), "6f4e4bcadf6193c47f453ed95d71b7fe7b9552de456ca08ec71524065be9c7a5")
}

// canonicalSigns renders one canonical image per class at the profile's size.
func canonicalSigns(env *Env) []*tensor.Tensor {
	imgs := make([]*tensor.Tensor, gtsrb.NumClasses)
	for class := range imgs {
		imgs[class] = gtsrb.Canonical(class, env.Profile.Size)
	}
	return imgs
}

// TestNet32ProbsDigest pins the float32 lane bit for bit on the trained
// tiny net: one batched Net32.ProbsBatch over the canonical signs.
func TestNet32ProbsDigest(t *testing.T) {
	env := tinyEnv(t)
	n32, err := env.Net.ToFloat32()
	if err != nil {
		t.Fatal(err)
	}
	d := newBitsDigest()
	for _, row := range n32.ProbsBatch(canonicalSigns(env)) {
		d.nums(row...)
	}
	checkDigest(t, "float32 canonical probs", d.sum(), "72c62bbaf09d68b025d4fff9175e368e04207b7d1f6ac6c0f0fdbc192680f10c")
}

// TestInputGradDigest pins the float64 gradient query bit for bit on the
// trained tiny net: the cross-entropy loss and input gradient of every
// canonical sign at its own label.
func TestInputGradDigest(t *testing.T) {
	env := tinyEnv(t)
	net := env.Net.Clone()
	d := newBitsDigest()
	for class, img := range canonicalSigns(env) {
		loss, grad := net.LossAndInputGrad(img, class, nn.CrossEntropy{})
		d.nums(loss)
		d.nums(grad.Data()...)
	}
	checkDigest(t, "float64 canonical input grads", d.sum(), "d51cc942c05216e67e500ea3bb1625a636b8adddf2bc5cc074ebdec6c2ac419e")
}

// TestTinyWeightsDigest pins the trained tiny-profile weights bit for bit:
// the content hash of the network NewEnv trains from scratch. Every other
// digest here depends on these weights, so a change to training (the
// optimizer, the loss, the shuffle, the layer backward passes) fails this
// test first and names the cause.
func TestTinyWeightsDigest(t *testing.T) {
	got, err := tinyEnv(t).Net.WeightHash()
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "tiny-profile weights", got, "c573c2859baefbe748b9e58e387270dac8a190e3d349b5d26956e7aca390a48f")
}
