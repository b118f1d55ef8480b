// Package stats provides the measurement machinery for the experiment
// harness: per-operation latency collection with medians, means,
// percentile thresholds and CDF series (Table 3 and Figure 8).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Latencies collects per-operation durations.
type Latencies struct {
	samples []time.Duration
	sorted  bool
}

// NewLatencies returns a collector preallocated for n samples.
func NewLatencies(n int) *Latencies {
	return &Latencies{samples: make([]time.Duration, 0, n)}
}

// Add records one sample.
func (l *Latencies) Add(d time.Duration) {
	l.samples = append(l.samples, d)
	l.sorted = false
}

// Len returns the number of samples.
func (l *Latencies) Len() int { return len(l.samples) }

func (l *Latencies) sort() {
	if !l.sorted {
		sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
		l.sorted = true
	}
}

// Median returns the 50th percentile.
func (l *Latencies) Median() time.Duration { return l.Percentile(50) }

// Percentile returns the p-th percentile (0 < p <= 100) by
// nearest-rank.
func (l *Latencies) Percentile(p float64) time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	l.sort()
	rank := int(math.Ceil(p/100*float64(len(l.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(l.samples) {
		rank = len(l.samples) - 1
	}
	return l.samples[rank]
}

// Mean returns the arithmetic mean.
func (l *Latencies) Mean() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range l.samples {
		sum += s
	}
	return sum / time.Duration(len(l.samples))
}

// Max returns the largest sample.
func (l *Latencies) Max() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	l.sort()
	return l.samples[len(l.samples)-1]
}

// FractionBelow returns the fraction of samples strictly below the
// threshold — Table 3's "Percentage < 250µs" row.
func (l *Latencies) FractionBelow(threshold time.Duration) float64 {
	if len(l.samples) == 0 {
		return 0
	}
	l.sort()
	// First index >= threshold.
	i := sort.Search(len(l.samples), func(i int) bool { return l.samples[i] >= threshold })
	return float64(i) / float64(len(l.samples))
}

// CDFPoint is one point of a cumulative distribution: the fraction of
// samples <= the upper bound of the bucket.
type CDFPoint struct {
	Upper    time.Duration
	Fraction float64
}

// CDF returns the cumulative distribution over log-spaced buckets from
// 1µs to 10^decades µs with pointsPerDecade points per decade — the series
// plotted in Figure 8.
func (l *Latencies) CDF(decades, pointsPerDecade int) []CDFPoint {
	if len(l.samples) == 0 {
		return nil
	}
	l.sort()
	var out []CDFPoint
	for d := 0; d < decades; d++ {
		for p := 0; p < pointsPerDecade; p++ {
			exp := float64(d) + float64(p)/float64(pointsPerDecade)
			upper := time.Duration(math.Pow(10, exp) * float64(time.Microsecond))
			i := sort.Search(len(l.samples), func(i int) bool { return l.samples[i] > upper })
			out = append(out, CDFPoint{Upper: upper, Fraction: float64(i) / float64(len(l.samples))})
		}
	}
	// Final point at the top of the last decade.
	upper := time.Duration(math.Pow(10, float64(decades)) * float64(time.Microsecond))
	i := sort.Search(len(l.samples), func(i int) bool { return l.samples[i] > upper })
	out = append(out, CDFPoint{Upper: upper, Fraction: float64(i) / float64(len(l.samples))})
	return out
}

// FormatCDF renders a CDF as a two-column table ("us fraction") for
// gnuplot-style consumption.
func FormatCDF(points []CDFPoint) string {
	var b strings.Builder
	b.WriteString("# microseconds cdf\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%.3f %.6f\n", float64(p.Upper)/float64(time.Microsecond), p.Fraction)
	}
	return b.String()
}

// FormatMicros renders a duration as microseconds with a µs suffix, the
// unit of the paper's tables.
func FormatMicros(d time.Duration) string {
	return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
}
