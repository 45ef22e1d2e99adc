package stats

import "math"

// Summary holds descriptive statistics of a float sample.
type Summary struct {
	N              int
	Mean, Min, Max float64
}

// Summarize computes N/mean/min/max of xs. An empty sample yields the zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	return s
}

// Log2Bucket returns v's log2 width class, the x axis of the paper's
// coverage-vs-log(range-width) plots (Figure 9): 0 for v == 0, otherwise
// 1+floor(log2 v), so class k holds 2^(k-1) <= v < 2^k.
func Log2Bucket(v uint64) int {
	b := 0
	for v > 0 {
		b++
		v >>= 1
	}
	return b
}
