package attacks

import (
	"repro/internal/mathx"
	"repro/internal/tensor"
)

// direction returns the update direction d at adv and its orientation dir
// (+1 ascends d, −1 descends it). It counts its own classifier queries.
type direction func(adv *tensor.Tensor) (d *tensor.Tensor, dir float64)

// signLoop configures one projected sign-step run: the iteration shared
// by FGSM, BIM, PGD, MIM, SPSA and FAdeML's Eq. 3 trace.
type signLoop struct {
	steps      int
	alpha, eps float64
	next       direction
	// early predicts after every step (one query) and stops once the goal
	// is achieved.
	early bool
	// after, when set, runs on every projected iterate before the
	// iteration is recorded.
	after func(adv *tensor.Tensor)
}

// signSteps runs l from adv, in place, inside the L∞ ball of radius l.eps
// around x: each step is adv ← clip[0,1](clip_ε(x)(adv + dir·α·sign(d))).
// It is the sign family's one definition of the budget check (halt before
// every step), the early stop and the iteration bookkeeping. It returns
// the number of steps taken.
func (e *exec) signSteps(c Classifier, x, adv *tensor.Tensor, goal Goal, l signLoop) int {
	iters := 0
	for ; iters < l.steps && !e.halt(); iters++ {
		d, dir := l.next(adv)
		adv.AddScaled(dir*l.alpha, tensor.SignOf(d))
		clampBall(adv, x, l.eps)
		clampUnit(adv)
		if l.after != nil {
			l.after(adv)
		}
		stop := false
		if l.early {
			pred, _ := Predict(c, adv)
			e.query(1)
			stop = goal.achieved(pred)
		}
		e.iterDone()
		if stop {
			return iters + 1
		}
	}
	return iters
}

// ceDirection is the cross-entropy direction at one query per call:
// descend the target's loss (dir = −1) for a targeted goal, ascend the
// source's (dir = +1) otherwise.
func (e *exec) ceDirection(c Classifier, goal Goal) direction {
	class, dir := goal.Source, 1.0
	if goal.IsTargeted() {
		class, dir = goal.Target, -1
	}
	return func(adv *tensor.Tensor) (*tensor.Tensor, float64) {
		_, grad := CELossGrad(c, adv, class)
		e.query(1)
		return grad, dir
	}
}

// clampBall projects adv into the L∞ ball of radius eps around x, in place.
func clampBall(adv, x *tensor.Tensor, eps float64) {
	ad, xd := adv.Data(), x.Data()
	for i := range ad {
		ad[i] = mathx.Clamp(ad[i], xd[i]-eps, xd[i]+eps)
	}
}
