package train

import "math"

// Schedule maps an epoch index (0-based) to a learning rate.
type Schedule interface {
	// LR returns the learning rate for the given epoch.
	LR(epoch int) float64
}

// ConstantLR always returns the same learning rate.
type ConstantLR float64

// LR implements Schedule.
func (c ConstantLR) LR(int) float64 { return float64(c) }

// CosineDecay anneals from Base to Floor over Total epochs following a
// half-cosine, then stays at Floor.
type CosineDecay struct {
	Base  float64
	Floor float64
	Total int
}

// LR implements Schedule.
func (c CosineDecay) LR(epoch int) float64 {
	if c.Total <= 1 || epoch >= c.Total {
		return c.Floor
	}
	t := float64(epoch) / float64(c.Total-1)
	return c.Floor + 0.5*(c.Base-c.Floor)*(1+math.Cos(math.Pi*t))
}
