package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/attacks"
	"repro/internal/detect"
	"repro/internal/filters"
	"repro/internal/gtsrb"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// detectServer builds a server on the shared fixtures with the
// detect-then-correct route enabled at the given threshold.
func detectServer(t testing.TB, thr float64) *Server {
	t.Helper()
	det := detect.Default()
	det.Threshold = thr
	return New(servePipeline(t), Options{
		Workers:  2,
		MaxBatch: 8,
		MaxWait:  time.Millisecond,
		Detector: det,
	})
}

// TestDetectCleanPassBitIdentity is the detect-then-correct fast-lane
// contract: when the detector does not flag an input, the response must
// be bit-identical to a server running without any detector — the raw
// forward the worker already computed IS the answer. Run under -race
// this also exercises the worker-side detection step concurrently. The
// lane must also be cheap: detect-path p50 ≤ 2× plain p50.
func TestDetectCleanPassBitIdentity(t *testing.T) {
	plain := New(servePipeline(t), Options{Workers: 2, MaxBatch: 8, MaxWait: time.Millisecond})
	defer plain.Close()
	// A threshold above any possible L1 discrepancy (max is 2) keeps
	// every input on the clean-pass lane.
	detecting := detectServer(t, 1e9)
	defer detecting.Close()

	imgs := testImages(12)
	tms := []pipeline.ThreatModel{pipeline.TM1, pipeline.TM2, pipeline.TM3}
	want := make([]Prediction, len(imgs))
	for i, img := range imgs {
		p, err := plain.Predict(context.Background(), img, tms[i%len(tms)])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(imgs))
	got := make([]Prediction, len(imgs))
	for i, img := range imgs {
		wg.Add(1)
		go func(i int, img *tensor.Tensor) {
			defer wg.Done()
			p, err := detecting.Predict(context.Background(), img, tms[i%len(tms)])
			if err != nil {
				errs <- err
				return
			}
			got[i] = p
		}(i, img)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range imgs {
		if got[i].Detection == nil {
			t.Fatalf("image %d: detecting server returned no verdict", i)
		}
		if got[i].Detection.Flagged || got[i].Detection.Corrected {
			t.Fatalf("image %d flagged under threshold 1e9: %+v", i, got[i].Detection)
		}
		if want[i].Detection != nil {
			t.Fatalf("image %d: plain server attached a verdict", i)
		}
		if len(got[i].Probs) != len(want[i].Probs) {
			t.Fatalf("image %d: probs length %d vs %d", i, len(got[i].Probs), len(want[i].Probs))
		}
		for j := range got[i].Probs {
			if got[i].Probs[j] != want[i].Probs[j] {
				t.Fatalf("image %d class %d: clean-pass prob %v != plain %v (must be bit-identical)",
					i, j, got[i].Probs[j], want[i].Probs[j])
			}
		}
		if got[i].Class != want[i].Class {
			t.Fatalf("image %d: class %d vs %d", i, got[i].Class, want[i].Class)
		}
	}

	// The clean-pass lane's price: one serial client on never-repeated
	// images (every request misses the cache and pays its full route)
	// must see a detect-path p50 within 2× the plain server's. Skipped
	// under -short, where the race detector distorts timing.
	if testing.Short() {
		return
	}
	p50 := func(s *Server) time.Duration {
		probe := imgs[0].Clone()
		ds := make([]time.Duration, 0, 60)
		for i := 0; i < 65; i++ {
			probe.Data()[0] = float64(i) / 65
			start := time.Now()
			if _, err := s.Predict(context.Background(), probe, pipeline.TM2); err != nil {
				t.Fatal(err)
			}
			if i >= 5 { // first five are warm-up
				ds = append(ds, time.Since(start))
			}
		}
		return percentile(ds, 0.5)
	}
	plainP50, detectP50 := p50(plain), p50(detecting)
	t.Logf("predict p50: plain %v, detect-then-correct %v", plainP50, detectP50)
	if detectP50 > 2*plainP50 {
		t.Fatalf("detect-then-correct p50 %v exceeds 2× plain p50 %v", detectP50, plainP50)
	}
}

// TestDetectFlaggedCorrection pins the flagged route: with a threshold
// below every score, each input is flagged, marked Corrected, and its
// probabilities equal a direct forward of the correction chain applied
// to the delivered view — not the raw forward.
func TestDetectFlaggedCorrection(t *testing.T) {
	s := detectServer(t, -1)
	defer s.Close()
	net := serveNet(t)
	correction := filters.Chain(detect.Default().Squeezers)

	img := gtsrb.Canonical(7, 16)
	for _, tm := range []pipeline.ThreatModel{pipeline.TM1, pipeline.TM3} {
		p, err := s.Predict(context.Background(), img, tm)
		if err != nil {
			t.Fatal(err)
		}
		if p.Detection == nil || !p.Detection.Flagged || !p.Detection.Corrected {
			t.Fatalf("tm %v: want flagged+corrected verdict, got %+v", tm, p.Detection)
		}
		view := pipeline.New(net, filters.NewLAP(8), pipeline.DefaultAcquisition(11)).Deliver(img, tm)
		want := net.ProbsBatch([]*tensor.Tensor{correction.Apply(view)})[0]
		for j := range want {
			if p.Probs[j] != want[j] {
				t.Fatalf("tm %v class %d: corrected prob %v != direct correction forward %v", tm, j, p.Probs[j], want[j])
			}
		}
	}
}

// TestDetectModeCacheIsolation guards the cache-key satellite: the
// detector spec is part of every external prediction key, so a detecting
// server and a non-detecting route can never answer each other's
// queries, while repeats inside one mode still hit the cache (verdict
// included).
func TestDetectModeCacheIsolation(t *testing.T) {
	s := detectServer(t, 1e9)
	defer s.Close()
	m, err := s.resolveModel("")
	if err != nil {
		t.Fatal(err)
	}
	defer m.release()

	img := gtsrb.Canonical(5, 16)
	plainKey := predCacheKey(m, img, pipeline.TM3, pipeline.Float64, "")
	detKey := predCacheKey(m, img, pipeline.TM3, pipeline.Float64, s.detSpec)
	if plainKey == detKey {
		t.Fatal("prediction cache key ignores the detector spec: toggling detect-then-correct could replay the wrong routing mode")
	}

	// Warm the external (detecting) cache, then repeat: the second answer
	// is served from cache — the detector counters do not move — but the
	// cached verdict still rides along.
	if _, err := s.Predict(context.Background(), img, pipeline.TM3); err != nil {
		t.Fatal(err)
	}
	before := s.metrics.detectClean.Load() + s.metrics.detectFlagged.Load()
	p, err := s.Predict(context.Background(), img, pipeline.TM3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Detection == nil {
		t.Fatal("cached detect-mode prediction lost its verdict")
	}
	if after := s.metrics.detectClean.Load() + s.metrics.detectFlagged.Load(); after != before {
		t.Fatalf("cached repeat re-ran the detector: verdicts %d -> %d", before, after)
	}

	// The internal measurement path caches under the empty spec and must
	// not pick up the detect-mode entry (it would carry a verdict and, for
	// flagged inputs, corrected probabilities).
	ip, err := first(s.predict(context.Background(), m, Request{Images: []*tensor.Tensor{img}, TM: pipeline.TM3}, false))
	if err != nil {
		t.Fatal(err)
	}
	if ip.Detection != nil {
		t.Fatal("internal measurement traffic was answered from the detect-mode cache")
	}
}

// TestDetectEndpoint exercises Server.Detect: verdict structure,
// spec override, the no-detector error, and the content-addressed
// repeat.
func TestDetectEndpoint(t *testing.T) {
	plain := New(servePipeline(t), Options{Workers: 1, MaxBatch: 8, MaxWait: time.Millisecond})
	defer plain.Close()

	img := gtsrb.Canonical(2, 16)
	if _, err := plain.Detect(context.Background(), DetectRequest{Image: img}); err == nil {
		t.Fatal("Detect without a configured detector or a spec must fail")
	}
	if _, err := plain.Detect(context.Background(), DetectRequest{Image: img, Spec: "none"}); err == nil {
		t.Fatal(`spec "none" disables detection and must be rejected by Detect`)
	}
	if _, err := plain.Detect(context.Background(), DetectRequest{Image: img, Spec: "detect(thr=nope)"}); err == nil {
		t.Fatal("malformed spec accepted")
	}

	res, err := plain.Detect(context.Background(), DetectRequest{Image: img, Spec: "detect"})
	if err != nil {
		t.Fatal(err)
	}
	if want := detect.Default().Name(); res.Detector != want {
		t.Errorf("detector echo %q, want %q", res.Detector, want)
	}
	if res.TM != pipeline.TM1 {
		t.Errorf("default detect TM = %v, want TM1 (the detector guards the input buffer)", res.TM)
	}
	if len(res.Verdict.PerSqueezer) != 2 {
		t.Fatalf("default ensemble has 2 squeezers, verdict has %d", len(res.Verdict.PerSqueezer))
	}
	if res.Prediction == nil || res.Prediction.Detection == nil {
		t.Fatal("Detect result carries no prediction/verdict")
	}
	if res.Prediction.Detection.Corrected {
		t.Error("Detect must report, not correct")
	}

	// Repeat query: content-addressed, no second detection recorded.
	before := plain.metrics.detectClean.Load() + plain.metrics.detectFlagged.Load()
	res2, err := plain.Detect(context.Background(), DetectRequest{Image: img, Spec: "detect"})
	if err != nil {
		t.Fatal(err)
	}
	if after := plain.metrics.detectClean.Load() + plain.metrics.detectFlagged.Load(); after != before {
		t.Fatalf("repeat Detect re-scored: verdicts %d -> %d", before, after)
	}
	if res2.Verdict.Score != res.Verdict.Score {
		t.Errorf("cached verdict score %v != original %v", res2.Verdict.Score, res.Verdict.Score)
	}
}

// TestDetectScoresDeliveredView pins which view Detect scores under each
// threat model: the pipeline's own delivery of the image, so the score
// and every squeezer's L1 equal a direct det.Score on Deliver(img, tm).
func TestDetectScoresDeliveredView(t *testing.T) {
	s := detectServer(t, 1e9)
	defer s.Close()
	pipe, det := servePipeline(t), detect.Default()
	img := gtsrb.Canonical(4, 16)
	for _, tm := range []pipeline.ThreatModel{pipeline.TM1, pipeline.TM2, pipeline.TM3} {
		res, err := s.Detect(context.Background(), DetectRequest{Image: img, TM: tm})
		if err != nil {
			t.Fatal(err)
		}
		want := det.Score(pipe.Net, pipe.Deliver(img, tm))
		if res.Verdict.Score != want.Score {
			t.Fatalf("%v: Detect score %v, direct score %v", tm, res.Verdict.Score, want.Score)
		}
		if len(res.Verdict.PerSqueezer) != len(want.PerSqueezer) {
			t.Fatalf("%v: %d squeezer scores, want %d", tm, len(res.Verdict.PerSqueezer), len(want.PerSqueezer))
		}
		for i, sq := range want.PerSqueezer {
			if got := res.Verdict.PerSqueezer[i].L1; got != sq.L1 {
				t.Fatalf("%v squeezer %s: Detect L1 %v, direct L1 %v", tm, sq.Squeezer, got, sq.L1)
			}
		}
	}
}

// TestCalibrateDetectorMatchesLibrary pins the served calibration to the
// library's: over the canonical signs, the threshold CalibrateDetector
// picks equals detect.Default() calibrated on ScoreBatch's direct
// scores, and DetectorSpec carries it.
func TestCalibrateDetectorMatchesLibrary(t *testing.T) {
	pipe := servePipeline(t)
	imgs := make([]*tensor.Tensor, gtsrb.NumClasses)
	for c := range imgs {
		imgs[c] = gtsrb.Canonical(c, 16)
	}
	for _, fpr := range []float64{0, 0.05, 0.2} {
		s := detectServer(t, detect.DefaultThreshold)
		got, err := s.CalibrateDetector(context.Background(), imgs, fpr)
		s.Close()
		if err != nil {
			t.Fatalf("fpr=%v: %v", fpr, err)
		}
		lib := detect.Default()
		var scores []float64
		for _, sc := range lib.ScoreBatch(pipe.Net, imgs) {
			scores = append(scores, sc.Score)
		}
		want, err := lib.Calibrate(scores, fpr)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("fpr=%v: served threshold %v, library threshold %v", fpr, got, want)
		}
		if spec := s.DetectorSpec(); spec != lib.Name() {
			t.Fatalf("fpr=%v: DetectorSpec %q, want %q", fpr, spec, lib.Name())
		}
	}
}

// TestCalibrateDetectorRejectsBadInput: a NaN or out-of-range target
// rate and an empty clean set are errors, never a panic.
func TestCalibrateDetectorRejectsBadInput(t *testing.T) {
	s := detectServer(t, detect.DefaultThreshold)
	defer s.Close()
	imgs := []*tensor.Tensor{gtsrb.Canonical(0, 16), gtsrb.Canonical(1, 16)}
	for _, c := range []struct {
		name string
		imgs []*tensor.Tensor
		fpr  float64
	}{
		{"NaN", imgs, math.NaN()},
		{"negative", imgs, -0.1},
		{"one", imgs, 1},
		{"no images", nil, 0.05},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", c.name, r)
				}
			}()
			if _, err := s.CalibrateDetector(context.Background(), c.imgs, c.fpr); err == nil {
				t.Errorf("%s: no error", c.name)
			}
		}()
	}
}

// TestDetectHTTP exercises POST /v1/detect end to end: flattened verdict
// fields, the spec override, and the malformed-spec 400.
func TestDetectHTTP(t *testing.T) {
	s := detectServer(t, 1e9)
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	body := imgPayload(3)
	resp, data := postJSON(t, ts.URL+"/v1/detect", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Detector  string                 `json:"detector"`
		TM        string                 `json:"tm"`
		Score     *float64               `json:"score"`
		Threshold float64                `json:"threshold"`
		Flagged   *bool                  `json:"flagged"`
		Squeezers []detect.SqueezerScore `json:"squeezers"`
		Class     *int                   `json:"class"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Detector != s.DetectorSpec() {
		t.Errorf("detector echo %q, want %q", out.Detector, s.DetectorSpec())
	}
	if out.Score == nil || out.Flagged == nil || out.Class == nil {
		t.Fatalf("detect response incomplete: %s", data)
	}
	if *out.Flagged {
		t.Error("clean canonical image flagged under threshold 1e9")
	}
	if len(out.Squeezers) != 2 {
		t.Errorf("per-squeezer breakdown has %d entries, want 2", len(out.Squeezers))
	}

	bad := imgPayload(3)
	bad["detector"] = "detect(squeezers=())"
	resp, data = postJSON(t, ts.URL+"/v1/detect", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed spec status %d, want 400: %s", resp.StatusCode, data)
	}

	// Spec override on the request beats the server detector.
	over := imgPayload(3)
	over["detector"] = "detect(squeezers=(bitdepth(bits=5)),thr=0.25)"
	resp, data = postJSON(t, ts.URL+"/v1/detect", over)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spec override status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Detector != "detect(squeezers=(bitdepth(bits=5)),thr=0.25)" {
		t.Errorf("override echo %q", out.Detector)
	}
	if len(out.Squeezers) != 1 {
		t.Errorf("override breakdown has %d entries, want 1", len(out.Squeezers))
	}
}

// TestEvaluateDetectionAxis checks /v1/evaluate's detection axis: every
// cell carries a score, the series summary reports rate, clean-FPR and
// AUC in range, and "none" switches the axis off even on a detecting
// server.
func TestEvaluateDetectionAxis(t *testing.T) {
	det := detect.Default()
	det.Threshold = 0.5
	s := New(servePipeline(t), Options{
		Workers:       2,
		MaxBatch:      4,
		MaxWait:       time.Millisecond,
		AttackWorkers: 2,
		AttackBudget:  attacks.Budget{MaxQueries: 60},
		AttackTimeout: 30 * time.Second,
		Render:        gtsrb.Canonical,
		Detector:      det,
	})
	defer s.Close()

	cases := make([]EvalCase, 5)
	for c := range cases {
		cases[c] = EvalCase{Source: c, Target: attacks.Untargeted}
	}
	res, err := s.Evaluate(context.Background(), EvaluateRequest{
		Specs: []string{"fgsm(eps=0.2)"},
		Cases: cases,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Cells {
		if c.Detection == nil {
			t.Fatalf("cell %d has no detection verdict", i)
		}
		if c.Detection.Score < 0 {
			t.Fatalf("cell %d score %v < 0", i, c.Detection.Score)
		}
		if c.Detection.Detected != (c.Detection.Score > det.Threshold) {
			t.Fatalf("cell %d verdict inconsistent with threshold: %+v", i, c.Detection)
		}
	}
	if len(res.Summaries) != 1 {
		t.Fatalf("want 1 summary, got %d", len(res.Summaries))
	}
	sd := res.Summaries[0].Detection
	if sd == nil {
		t.Fatal("summary has no detection axis")
	}
	if sd.Detector != det.Name() || sd.Threshold != det.Threshold {
		t.Errorf("summary detector echo %q thr %v", sd.Detector, sd.Threshold)
	}
	if sd.Rate < 0 || sd.Rate > 1 || sd.CleanFPR < 0 || sd.CleanFPR > 1 {
		t.Errorf("rates out of range: %+v", sd)
	}
	// PR-9 acceptance: the default ensemble separates a paper attack's
	// examples from the clean case set at AUC ≥ 0.9 on the GTSRB
	// fixtures (deterministic: fixed net, canonical images, one-shot
	// FGSM).
	if sd.AUC < 0.9 {
		t.Errorf("FGSM detection AUC %.3f below the 0.9 acceptance gate", sd.AUC)
	}
	if sd.AUC > 1 {
		t.Errorf("AUC %v out of [0,1]", sd.AUC)
	}

	// "none" disables the axis for the sweep.
	res, err = s.Evaluate(context.Background(), EvaluateRequest{
		Specs:    []string{"fgsm(eps=0.2)"},
		Cases:    []EvalCase{{Source: 3, Target: attacks.Untargeted}},
		Detector: "none",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells[0].Detection != nil || res.Summaries[0].Detection != nil {
		t.Fatal(`Detector:"none" still produced a detection axis`)
	}

	// Malformed sweep detector is a request error, not a panic.
	if _, err := s.Evaluate(context.Background(), EvaluateRequest{
		Specs:    []string{"fgsm(eps=0.2)"},
		Cases:    []EvalCase{{Source: 3, Target: attacks.Untargeted}},
		Detector: "detect(bogus=1)",
	}); err == nil || !strings.Contains(err.Error(), "detect") {
		t.Fatalf("malformed sweep detector: err = %v", err)
	}
}
