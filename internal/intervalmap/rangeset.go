package intervalmap

import "sort"

// RangeSet is a sorted set of inclusive atom-id ranges — the coarse
// "interval sketch" the incremental monitor uses to summarize which atoms
// an evaluation's verdict depended on, per link. Sketches trade precision
// for stability and size: coarsening merges nearby ranges, which can only
// add false positives (an extra re-evaluation), never false negatives, so
// a sketch is always a safe over-approximation of the exact atom set it
// was built from.
//
// Atom ids are unstable under split/merge churn (splits mint new ids, GC
// recycles freed ones), so id sketches alone cannot be trusted across
// time; the monitor pairs every sketch with the Map's allocation sequence
// (AllocSeq) and treats any atom born after the sketch was recorded as a
// conservative hit (see BornSeq).
type RangeSet struct {
	r []Range
}

// Range is an inclusive range [Lo, Hi] of atom ids.
type Range struct {
	Lo, Hi AtomID
}

// Reset empties the set, retaining capacity.
func (s *RangeSet) Reset() { s.r = s.r[:0] }

// Empty reports whether the set covers no ids.
func (s *RangeSet) Empty() bool { return len(s.r) == 0 }

// NumRanges returns the number of ranges in the sketch.
func (s *RangeSet) NumRanges() int { return len(s.r) }

// Ranges returns the backing ranges in ascending order. Callers must not
// mutate the slice.
func (s *RangeSet) Ranges() []Range { return s.r }

// AppendID adds one id to the set. Ids must be appended in non-decreasing
// order (the natural order of a bitset iteration); adjacent and duplicate
// ids extend the last range instead of starting a new one.
func (s *RangeSet) AppendID(id AtomID) {
	if n := len(s.r); n > 0 {
		last := &s.r[n-1]
		if id <= last.Hi {
			return
		}
		if id == last.Hi+1 {
			last.Hi = id
			return
		}
	}
	s.r = append(s.r, Range{Lo: id, Hi: id})
}

// AppendRange adds an inclusive range. Ranges must be appended in
// ascending order of Lo; overlapping or adjacent ranges are merged.
func (s *RangeSet) AppendRange(lo, hi AtomID) {
	if hi < lo {
		return
	}
	if n := len(s.r); n > 0 {
		last := &s.r[n-1]
		if lo <= last.Hi+1 {
			if hi > last.Hi {
				last.Hi = hi
			}
			return
		}
	}
	s.r = append(s.r, Range{Lo: lo, Hi: hi})
}

// Contains reports whether the set covers id.
func (s *RangeSet) Contains(id AtomID) bool {
	lo, hi := 0, len(s.r)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case id < s.r[mid].Lo:
			hi = mid
		case id > s.r[mid].Hi:
			lo = mid + 1
		default:
			return true
		}
	}
	return false
}

// Intersects reports whether the two sets share at least one id, by a
// linear merge over the sorted ranges.
func (s *RangeSet) Intersects(o *RangeSet) bool {
	i, j := 0, 0
	for i < len(s.r) && j < len(o.r) {
		a, b := s.r[i], o.r[j]
		if a.Hi < b.Lo {
			i++
		} else if b.Hi < a.Lo {
			j++
		} else {
			return true
		}
	}
	return false
}

// UnionWith merges o into s (both stay sorted and non-overlapping).
func (s *RangeSet) UnionWith(o *RangeSet) {
	if o.Empty() {
		return
	}
	merged := make([]Range, 0, len(s.r)+len(o.r))
	i, j := 0, 0
	appendMerged := func(r Range) {
		if n := len(merged); n > 0 && r.Lo <= merged[n-1].Hi+1 {
			if r.Hi > merged[n-1].Hi {
				merged[n-1].Hi = r.Hi
			}
			return
		}
		merged = append(merged, r)
	}
	for i < len(s.r) || j < len(o.r) {
		switch {
		case j >= len(o.r) || (i < len(s.r) && s.r[i].Lo <= o.r[j].Lo):
			appendMerged(s.r[i])
			i++
		default:
			appendMerged(o.r[j])
			j++
		}
	}
	s.r = merged
}

// Clone returns an independent copy.
func (s *RangeSet) Clone() *RangeSet {
	return &RangeSet{r: append([]Range(nil), s.r...)}
}

// Coarsen merges ranges until at most max remain, closing the smallest
// id gaps first so the sketch stays as tight as its budget allows. The
// result covers a superset of the original ids (never fewer), which is
// the conservative direction for dirtiness summaries.
func (s *RangeSet) Coarsen(max int) {
	if max < 1 {
		max = 1
	}
	if len(s.r) <= max {
		return
	}
	// Pick the gap size below which adjacent ranges merge: the k-th
	// smallest of the len-1 gaps, where k = len-max merges are needed.
	// Ties at the threshold may merge a few extra gaps, ending below max
	// ranges — coarser is safe.
	gaps := make([]AtomID, 0, len(s.r)-1)
	for i := 1; i < len(s.r); i++ {
		gaps = append(gaps, s.r[i].Lo-s.r[i-1].Hi)
	}
	sort.Slice(gaps, func(a, b int) bool { return gaps[a] < gaps[b] })
	threshold := gaps[len(s.r)-max-1]
	out := s.r[:1]
	for i := 1; i < len(s.r); i++ {
		if s.r[i].Lo-out[len(out)-1].Hi <= threshold {
			out[len(out)-1].Hi = s.r[i].Hi
			continue
		}
		out = append(out, s.r[i])
	}
	s.r = out
}

// CoversAll reports whether the set covers every id in [0, n) — the
// signal that a sketch is no more selective than "everything matters"
// and is not worth storing.
func (s *RangeSet) CoversAll(n int) bool {
	return len(s.r) == 1 && s.r[0].Lo == 0 && int(s.r[0].Hi) >= n-1
}

// SketchRanges is the fixed range budget of a Sketch.
const SketchRanges = 8

// Sketch is the bounded, pointer-free form of a RangeSet: at most
// SketchRanges inclusive ranges inlined into a fixed array. This is the
// representation long-lived summaries are stored in — a monitor holding
// 10⁵ invariants retains hundreds of thousands of sketches, and inlined
// no-pointer values keep that entire footprint invisible to the garbage
// collector (maps with pointer-free keys and values are never scanned),
// where a *RangeSet per summary made every GC cycle walk them all.
// TestPointerFree keeps the property from regressing.
type Sketch struct {
	n uint8
	r [SketchRanges]Range
}

// SetFrom coarsens rs to the sketch budget (mutating rs) and stores it.
func (s *Sketch) SetFrom(rs *RangeSet) {
	rs.Coarsen(SketchRanges)
	s.n = uint8(len(rs.r))
	copy(s.r[:], rs.r)
}

// NumRanges returns the number of ranges in the sketch.
func (s *Sketch) NumRanges() int { return int(s.n) }

// Ranges returns the sketch's ranges in ascending order.
func (s *Sketch) Ranges() []Range { return s.r[:s.n] }

// Contains reports whether the sketch covers id.
func (s *Sketch) Contains(id AtomID) bool {
	for _, r := range s.r[:s.n] {
		if id >= r.Lo && id <= r.Hi {
			return true
		}
	}
	return false
}

// Intersects reports whether the sketch and a range set share an id.
func (s *Sketch) Intersects(o *RangeSet) bool {
	i, j := 0, 0
	for i < int(s.n) && j < len(o.r) {
		a, b := s.r[i], o.r[j]
		if a.Hi < b.Lo {
			i++
		} else if b.Hi < a.Lo {
			j++
		} else {
			return true
		}
	}
	return false
}

// ToRangeSet appends the sketch's ranges into dst (resetting it first).
func (s *Sketch) ToRangeSet(dst *RangeSet) {
	dst.Reset()
	for _, r := range s.r[:s.n] {
		dst.AppendRange(r.Lo, r.Hi)
	}
}
