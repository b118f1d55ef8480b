package main

import (
	"math"
	"slices"
)

// tailMin is how many samples must lie beyond a percentile for it to be
// reported: below that, the value is one or two outliers, not a tail.
const tailMin = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted,
// and whether at least tailMin samples lie beyond it.
func percentile(sorted []float64, p float64) (v float64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	rank = min(max(rank, 0), n-1)
	return sorted[rank], n-1-rank >= tailMin
}

// median returns the middle value of xs (mean of the two middle values for
// an even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of xs by the exclusive
// method, the one Python's statistics.quantiles(xs, n=4) uses, so spreads
// computed here match the acceptance procedure.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		n := len(s)
		if n == 0 {
			return math.NaN()
		}
		if n == 1 {
			return s[0]
		}
		pos := p * float64(n+1)
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// samples collects latency samples in nanoseconds.
type samples []float64

// dist summarises a latency distribution in the given unit (divisor from
// nanoseconds): the median, one tail percentile, and the sample count.
type dist struct {
	P50, Tail float64
	N         int
	// TailOK is false when fewer than tailMin samples lie beyond the tail
	// percentile; the run then does not support the metric it is asked for.
	TailOK bool
}

func (s samples) dist(tailP, nsPerUnit float64) dist {
	sorted := slices.Clone([]float64(s))
	slices.Sort(sorted)
	p50, _ := percentile(sorted, 0.50)
	tail, ok := percentile(sorted, tailP)
	return dist{P50: p50 / nsPerUnit, Tail: tail / nsPerUnit, N: len(sorted), TailOK: ok}
}
