package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailStat is the tail-latency summary: the value at the highest whole
// percentile that still has at least minBeyond samples above its rank.
type tailStat struct {
	Value  float64
	Pct    int // the percentile, e.g. 58 for p58
	Beyond int // samples ranked above the reported one
	N      int // sample count
}

// minBeyond is how many samples must lie beyond the reported tail
// percentile, so that the tail rests on more than a single outlier.
const minBeyond = 10

// tail applies the tail rule to xs: with n sorted samples, the highest
// whole percentile p whose nearest-rank position r = ceil(p*n/100) leaves
// n-r >= minBeyond samples above it, i.e. p = floor(100*(n-minBeyond)/n).
// With too few samples for any such percentile it reports the maximum
// with Beyond = 0.
func tail(xs []float64) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{}
	}
	s := sortedCopy(xs)
	p := 100 * (n - minBeyond) / n
	r := (p*n + 99) / 100 // nearest rank, 1-based
	if p <= 0 || r < 1 {
		return tailStat{Value: s[n-1], Pct: 100, Beyond: 0, N: n}
	}
	return tailStat{Value: s[r-1], Pct: p, Beyond: n - r, N: n}
}

// windowTail applies the tail rule to each run of w consecutive samples of
// xs and returns the median of those window tails, with the percentile,
// samples beyond and sample count of one window, and the number of
// windows. Samples after the last whole window are left out; w <= 0, or w
// larger than xs, makes all of xs one window. The median over windows
// keeps a short burst of host noise, which lands in a few windows, from
// setting the tail of the whole run.
func windowTail(xs []float64, w int) (tailStat, int) {
	if w <= 0 || w > len(xs) {
		return tail(xs), 1
	}
	var one tailStat
	var vals []float64
	for i := 0; i+w <= len(xs); i += w {
		one = tail(xs[i : i+w])
		vals = append(vals, one.Value)
	}
	one.Value = median(vals)
	return one, len(vals)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianDur is median over durations, in the requested unit.
func medianDur(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}

// frac divides, returning 0 for a zero denominator.
func frac(num, den float64) float64 {
	if den == 0 || math.IsNaN(den) {
		return 0
	}
	return num / den
}
