// Package baseline implements the flat-counter profilers RAP is an
// alternative to, for equal-memory accuracy comparisons:
//
//   - FixedGrid: "the next logical step might be to have one count the
//     top half ... divide the code into N ranges for N counters"
//     (Section 2) — equal-width range counters with no adaptation;
//   - Sampler: 1-in-k sampling into an exact table, the standard
//     software-profiling cost reduction (Arnold-Ryder style);
//   - SpaceSaving: the Metwally et al. heavy-hitter counter that state of
//     the art "flat storage of the profile" schemes reduce to — precise
//     on hot points but unable to report ranges.
package baseline

import (
	"math/bits"
	"sort"
)

// FixedGrid counts events in 2^gridBits equal-width ranges over a
// 2^universeBits universe.
type FixedGrid struct {
	universeBits int
	gridBits     int
	counts       []uint64
	n            uint64
}

// NewFixedGrid builds a grid of 2^gridBits cells over [0, 2^universeBits).
// gridBits must be in [0, universeBits] and small enough to allocate.
func NewFixedGrid(universeBits, gridBits int) *FixedGrid {
	if universeBits < 1 || universeBits > 64 {
		panic("baseline: bad universeBits")
	}
	if gridBits < 0 || gridBits > universeBits || gridBits > 30 {
		panic("baseline: bad gridBits")
	}
	return &FixedGrid{
		universeBits: universeBits,
		gridBits:     gridBits,
		counts:       make([]uint64, 1<<gridBits),
	}
}

// Add records one occurrence of p.
func (g *FixedGrid) Add(p uint64) { g.AddN(p, 1) }

// AddN records weight occurrences of p.
func (g *FixedGrid) AddN(p uint64, weight uint64) {
	if g.universeBits < 64 {
		p &= (1 << g.universeBits) - 1
	}
	g.counts[p>>(g.universeBits-g.gridBits)] += weight
	g.n += weight
}

// N returns the total weight recorded.
func (g *FixedGrid) N() uint64 { return g.n }

// Cells returns the number of counters.
func (g *FixedGrid) Cells() int { return len(g.counts) }

// MemoryBytes charges 8 bytes per counter (no range bounds needed: the
// grid is implicit).
func (g *FixedGrid) MemoryBytes() int { return 8 * len(g.counts) }

// Estimate returns a lower bound on the events in [lo, hi]: the sum of
// cells fully contained in the query.
func (g *FixedGrid) Estimate(lo, hi uint64) uint64 {
	if lo > hi {
		return 0
	}
	shift := g.universeBits - g.gridBits
	cellW := uint64(1) << shift
	first := lo >> shift
	if lo&(cellW-1) != 0 {
		first++ // partially covered leading cell
	}
	last := hi >> shift
	if hi&(cellW-1) != cellW-1 {
		if last == 0 {
			return 0
		}
		last--
	}
	var s uint64
	for c := first; c <= last && c < uint64(len(g.counts)); c++ {
		s += g.counts[c]
		if c == uint64(len(g.counts))-1 {
			break
		}
	}
	return s
}

// HotCells returns the cells with at least theta·n weight, as (lo, hi,
// count) ranges sorted by lo.
type HotCell struct {
	Lo, Hi uint64
	Count  uint64
}

// HotCells reports the grid cells above the theta threshold.
func (g *FixedGrid) HotCells(theta float64) []HotCell {
	cut := theta * float64(g.n)
	shift := g.universeBits - g.gridBits
	var out []HotCell
	for i, c := range g.counts {
		if float64(c) >= cut && c > 0 {
			lo := uint64(i) << shift
			out = append(out, HotCell{Lo: lo, Hi: lo + (1<<shift - 1), Count: c})
		}
	}
	return out
}

// Sampler profiles a 1-in-k sample of the stream exactly and scales
// estimates back up. Unlike RAP it can miss mass entirely and its
// estimates are not one-sided.
type Sampler struct {
	k      uint64
	tick   uint64
	counts map[uint64]uint64
	n      uint64
}

// NewSampler samples every k-th event (deterministic stride, the hardware
// -friendly variant). k must be >= 1.
func NewSampler(k uint64) *Sampler {
	if k == 0 {
		panic("baseline: Sampler k must be >= 1")
	}
	return &Sampler{k: k, counts: make(map[uint64]uint64)}
}

// Add records one occurrence of p, keeping it only on sample ticks.
func (s *Sampler) Add(p uint64) {
	s.n++
	s.tick++
	if s.tick == s.k {
		s.tick = 0
		s.counts[p]++
	}
}

// N returns the total stream length observed (sampled or not).
func (s *Sampler) N() uint64 { return s.n }

// Estimate returns the scaled sample count for [lo, hi].
func (s *Sampler) Estimate(lo, hi uint64) uint64 {
	var c uint64
	for v, n := range s.counts {
		if v >= lo && v <= hi {
			c += n
		}
	}
	return c * s.k
}

// TableSize returns the number of live sample entries.
func (s *Sampler) TableSize() int { return len(s.counts) }

// SpaceSaving is the Metwally-Agrawal-Abbadi top-k sketch: m counters;
// an unmonitored arrival replaces the minimum counter and inherits its
// count as overestimation error.
type SpaceSaving struct {
	m     int
	items map[uint64]*ssEntry
	n     uint64
}

type ssEntry struct {
	value uint64
	count uint64
	err   uint64
}

// NewSpaceSaving builds a sketch with m counters, m >= 1.
func NewSpaceSaving(m int) *SpaceSaving {
	if m < 1 {
		panic("baseline: SpaceSaving m must be >= 1")
	}
	return &SpaceSaving{m: m, items: make(map[uint64]*ssEntry, m)}
}

// Add records one occurrence of p.
func (ss *SpaceSaving) Add(p uint64) {
	ss.n++
	if e, ok := ss.items[p]; ok {
		e.count++
		return
	}
	if len(ss.items) < ss.m {
		ss.items[p] = &ssEntry{value: p, count: 1}
		return
	}
	// Replace the minimum counter, the smallest value among equal counts,
	// so the choice does not depend on map iteration order.
	var min *ssEntry
	for _, e := range ss.items {
		if min == nil || e.count < min.count || e.count == min.count && e.value < min.value {
			min = e
		}
	}
	delete(ss.items, min.value)
	ss.items[p] = &ssEntry{value: p, count: min.count + 1, err: min.count}
}

// N returns the stream length observed.
func (ss *SpaceSaving) N() uint64 { return ss.n }

// Entry is a reported counter: Count overestimates the truth by at most
// Err.
type Entry struct {
	Value uint64
	Count uint64
	Err   uint64
}

// Entries returns the monitored counters sorted by descending count.
func (ss *SpaceSaving) Entries() []Entry {
	out := make([]Entry, 0, len(ss.items))
	for _, e := range ss.items {
		out = append(out, Entry{e.value, e.count, e.err})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// MemoryBytes charges 24 bytes per counter (value, count, error).
func (ss *SpaceSaving) MemoryBytes() int { return 24 * ss.m }

// GridBitsForBudget returns the largest grid resolution whose counter
// array fits in the given byte budget at 8 bytes per cell — the
// equal-memory configuration used in the RAP-vs-grid comparison.
func GridBitsForBudget(budgetBytes int, universeBits int) int {
	cells := budgetBytes / 8
	if cells < 1 {
		return 0
	}
	b := bits.Len(uint(cells)) - 1
	if b > universeBits {
		b = universeBits
	}
	return b
}
