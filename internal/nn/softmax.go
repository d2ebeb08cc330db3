package nn

import "math"

// Softmax converts a vector of logits into a probability distribution using
// the numerically stable max-shift formulation.
func Softmax(logits []float64) []float64 {
	return SoftmaxInto(make([]float64, len(logits)), logits)
}

// SoftmaxInto writes softmax(logits) into dst and returns it, avoiding the
// extra allocation of Softmax on hot paths that own a destination. dst must
// have the same length as logits; dst may be the logits slice itself (the
// in-place form used when a caller-owned logits copy becomes the
// probability vector).
func SoftmaxInto(dst, logits []float64) []float64 {
	if len(dst) != len(logits) {
		panic("nn: SoftmaxInto length mismatch")
	}
	if len(logits) == 0 {
		return dst
	}
	maxV := logits[0]
	for _, v := range logits[1:] {
		if v > maxV {
			maxV = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		e := math.Exp(v - maxV)
		dst[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
	return dst
}

// LogSoftmax returns log(softmax(logits)) computed stably.
func LogSoftmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	if len(logits) == 0 {
		return out
	}
	maxV := logits[0]
	for _, v := range logits[1:] {
		if v > maxV {
			maxV = v
		}
	}
	sum := 0.0
	for _, v := range logits {
		sum += math.Exp(v - maxV)
	}
	logSum := maxV + math.Log(sum)
	for i, v := range logits {
		out[i] = v - logSum
	}
	return out
}
