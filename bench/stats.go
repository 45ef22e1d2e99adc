package main

import (
	"slices"
	"time"
)

// quantile returns the q-quantile of xs by the nearest-rank method; 0 for
// an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantileDur(ds []time.Duration, q float64) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, q))
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// summary is one metric of one invocation: the reported value with the
// per-run values it was taken over.
type summary struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Runs    []float64 `json:"runs,omitempty"`    // one value per daemon run (set-up: per start)
	Samples int       `json:"samples,omitempty"` // samples behind a percentile, over all runs
}

// summarize reports value over per-run values runs, if there are any.
func summarize(value float64, runs []float64) summary {
	if len(runs) == 0 {
		return summary{Value: value, Min: value, Max: value}
	}
	return summary{Value: value, Min: slices.Min(runs), Max: slices.Max(runs), Runs: runs}
}

// spread is the run-to-run spread of s as a share of its value.
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Max - s.Min) / s.Value
}
