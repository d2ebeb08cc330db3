package attacks

import (
	"context"
	"testing"

	"repro/internal/gtsrb"
)

func TestMIMTargeted(t *testing.T) {
	c := testClassifier(t)
	img, label := canonical(t, gtsrb.ClassStop)
	requireCorrect(t, c, img, label)
	atk := &MIM{Epsilon: 0.10, Alpha: 0.01, Steps: 40, Decay: 1.0, EarlyStop: true}
	res, err := atk.Generate(context.Background(), c, img, Goal{Source: label, Target: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("MIM targeted attack failed: class %d at %.2f", res.PredClass, res.Confidence)
	}
	if res.Noise.LInfNorm() > 0.10+1e-9 {
		t.Fatalf("MIM noise %v exceeds budget", res.Noise.LInfNorm())
	}
}

func TestMIMUntargeted(t *testing.T) {
	c := testClassifier(t)
	img, label := canonical(t, gtsrb.ClassTurnRight)
	res, err := (&MIM{Epsilon: 0.08, Alpha: 0.008, Steps: 30, Decay: 1.0, EarlyStop: true}).
		Generate(context.Background(), c, img, Goal{Source: label, Target: Untargeted})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("MIM untargeted failed: still class %d", res.PredClass)
	}
}

func TestMIMValidation(t *testing.T) {
	c := testClassifier(t)
	img, label := canonical(t, gtsrb.ClassStop)
	goal := Goal{Source: label, Target: 1}
	for name, atk := range map[string]*MIM{
		"zero eps":    {Epsilon: 0, Alpha: 0.01, Steps: 5, Decay: 1},
		"zero alpha":  {Epsilon: 0.1, Alpha: 0, Steps: 5, Decay: 1},
		"zero steps":  {Epsilon: 0.1, Alpha: 0.01, Steps: 0, Decay: 1},
		"negative mu": {Epsilon: 0.1, Alpha: 0.01, Steps: 5, Decay: -1},
	} {
		if _, err := atk.Generate(context.Background(), c, img, goal); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestMIMInLibrary(t *testing.T) {
	atk, err := New("mim")
	if err != nil {
		t.Fatal(err)
	}
	if atk.Name() == "" {
		t.Fatal("library MIM nameless")
	}
}
