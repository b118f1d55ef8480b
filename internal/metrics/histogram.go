package metrics

import (
	"bufio"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of finite histogram buckets. Bounds are
// geometric: 1µs·2⁰ … 1µs·2²⁵ (≈33.6s), which spans everything from a
// single-link dirty check to a full 10⁵-invariant recheck. One shared
// bucket layout keeps every histogram's storage a fixed pointer-free
// array and makes cross-stage comparisons line up bucket-for-bucket.
const NumBuckets = 26

// bucketBoundNs returns the upper bound (inclusive, per Prometheus `le`
// semantics) of finite bucket i, in nanoseconds.
func bucketBoundNs(i int) int64 {
	return 1000 << uint(i)
}

// histCounts is the histogram hot-path storage: cumulative-rendered
// bucket counts (index NumBuckets is +Inf), total observed nanoseconds,
// and observation count. It must stay free of pointers at any depth so
// histograms add no GC scan work (atomic.Uint64/Int64 wrap a bare word).
type histCounts struct {
	buckets [NumBuckets + 1]atomic.Uint64
	sumNs   atomic.Int64
	count   atomic.Uint64
}

// Histogram is a fixed-bucket latency histogram. Observe is lock-free
// and allocation-free. The zero value is ready to use (HistogramVec
// relies on that); standalone histograms are created via
// Registry.Histogram.
type Histogram struct {
	c histCounts
}

// bucketIndex returns the finite bucket for ns, or NumBuckets for
// overflow. An observation equal to a bound lands in that bound's
// bucket (`le` is inclusive).
func bucketIndex(ns int64) int {
	for i := 0; i < NumBuckets; i++ {
		if ns <= bucketBoundNs(i) {
			return i
		}
	}
	return NumBuckets
}

// ObserveNs records a duration in nanoseconds. Negative values clamp
// to zero (monotonic-clock paranoia, not an expected input).
func (h *Histogram) ObserveNs(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.c.buckets[bucketIndex(ns)].Add(1)
	h.c.sumNs.Add(ns)
	h.c.count.Add(1)
}

// Observe records a duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNs(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.c.count.Load() }

// SumNs returns the total observed nanoseconds.
func (h *Histogram) SumNs() int64 { return h.c.sumNs.Load() }

// renderLabelled writes the _bucket/_sum/_count sample lines.
// extraLabel is either empty or a pre-rendered `name="value"` pair to
// splice before le. Counts are read once into a snapshot so the
// cumulative series is internally non-decreasing even under concurrent
// observes (sum/count may trail or lead slightly; scrapes tolerate it).
func (h *Histogram) renderLabelled(w *bufio.Writer, name, extraLabel string) {
	var snap [NumBuckets + 1]uint64
	for i := range snap {
		snap[i] = h.c.buckets[i].Load()
	}
	sep := ""
	if extraLabel != "" {
		sep = ","
	}
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		cum += snap[i]
		le := strconv.FormatFloat(float64(bucketBoundNs(i))/1e9, 'g', -1, 64)
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, extraLabel, sep, le, cum)
	}
	cum += snap[NumBuckets]
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, extraLabel, sep, cum)
	if extraLabel == "" {
		fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(float64(h.c.sumNs.Load())/1e9))
		fmt.Fprintf(w, "%s_count %d\n", name, cum)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %s\n", name, extraLabel, formatFloat(float64(h.c.sumNs.Load())/1e9))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, extraLabel, cum)
	}
}
