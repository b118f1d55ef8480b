package intervalmap

import (
	"math/rand"
	"testing"

	"deltanet/internal/ipnet"
	"deltanet/internal/testutil"
)

func spaceForTest() ipnet.Space { return ipnet.IPv4 }

func ivForTest(lo, hi uint64) ipnet.Interval { return ipnet.Interval{Lo: lo, Hi: hi} }

func idsOf(rs *RangeSet) map[AtomID]bool {
	out := map[AtomID]bool{}
	for _, r := range rs.Ranges() {
		for id := r.Lo; id <= r.Hi; id++ {
			out[id] = true
		}
	}
	return out
}

func TestRangeSetAppendID(t *testing.T) {
	var rs RangeSet
	for _, id := range []AtomID{1, 2, 3, 3, 7, 8, 20} {
		rs.AppendID(id)
	}
	want := []Range{{1, 3}, {7, 8}, {20, 20}}
	got := rs.Ranges()
	if len(got) != len(want) {
		t.Fatalf("ranges %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranges %v, want %v", got, want)
		}
	}
	for _, id := range []AtomID{1, 2, 3, 7, 8, 20} {
		if !rs.Contains(id) {
			t.Fatalf("missing %d", id)
		}
	}
	for _, id := range []AtomID{0, 4, 6, 9, 19, 21} {
		if rs.Contains(id) {
			t.Fatalf("spurious %d", id)
		}
	}
}

func TestRangeSetCoarsenIsSuperset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var rs RangeSet
		prev := AtomID(0)
		for i := 0; i < 40; i++ {
			prev += AtomID(rng.Intn(20))
			rs.AppendID(prev)
		}
		before := idsOf(&rs)
		max := 1 + rng.Intn(10)
		rs.Coarsen(max)
		if rs.NumRanges() > max {
			t.Fatalf("coarsen left %d ranges, budget %d", rs.NumRanges(), max)
		}
		for id := range before {
			if !rs.Contains(id) {
				t.Fatalf("coarsen dropped id %d", id)
			}
		}
	}
}

func TestRangeSetIntersectsAndUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		var a, b RangeSet
		for i, prev := 0, AtomID(0); i < 10; i++ {
			prev += AtomID(1 + rng.Intn(12))
			a.AppendID(prev)
		}
		for i, prev := 0, AtomID(0); i < 10; i++ {
			prev += AtomID(1 + rng.Intn(12))
			b.AppendID(prev)
		}
		aIDs, bIDs := idsOf(&a), idsOf(&b)
		wantHit := false
		for id := range aIDs {
			if bIDs[id] {
				wantHit = true
				break
			}
		}
		if got := a.Intersects(&b); got != wantHit {
			t.Fatalf("Intersects(%v, %v) = %v, want %v", a.Ranges(), b.Ranges(), got, wantHit)
		}
		u := a.Clone()
		u.UnionWith(&b)
		for id := range aIDs {
			if !u.Contains(id) {
				t.Fatalf("union lost %d from a", id)
			}
		}
		for id := range bIDs {
			if !u.Contains(id) {
				t.Fatalf("union lost %d from b", id)
			}
		}
		// Sorted, non-overlapping, non-adjacent.
		rs := u.Ranges()
		for i := 1; i < len(rs); i++ {
			if rs[i].Lo <= rs[i-1].Hi+1 {
				t.Fatalf("union not normalized: %v", rs)
			}
		}
	}
}

func TestSketchRoundTrip(t *testing.T) {
	var rs RangeSet
	for _, id := range []AtomID{1, 5, 6, 100, 200, 201, 300, 400, 500, 600, 700, 800, 900} {
		rs.AppendID(id)
	}
	before := idsOf(&rs)
	var sk Sketch
	sk.SetFrom(&rs)
	if sk.NumRanges() > SketchRanges {
		t.Fatalf("sketch over budget: %d", sk.NumRanges())
	}
	for id := range before {
		if !sk.Contains(id) {
			t.Fatalf("sketch dropped %d", id)
		}
	}
	var probe RangeSet
	probe.AppendID(5)
	if !sk.Intersects(&probe) {
		t.Fatal("sketch misses a contained id")
	}
	var back RangeSet
	sk.ToRangeSet(&back)
	for id := range before {
		if !back.Contains(id) {
			t.Fatalf("round trip dropped %d", id)
		}
	}
}

// TestSketchExactFit: a set of exactly SketchRanges disjoint ranges is
// at the budget boundary — SetFrom must store it verbatim, with no
// coarsening-induced widening.
func TestSketchExactFit(t *testing.T) {
	var rs RangeSet
	want := make([]Range, 0, SketchRanges)
	for i := 0; i < SketchRanges; i++ {
		lo := AtomID(i * 10)
		rs.AppendRange(lo, lo+3)
		want = append(want, Range{Lo: lo, Hi: lo + 3})
	}
	var sk Sketch
	sk.SetFrom(&rs)
	if sk.NumRanges() != SketchRanges {
		t.Fatalf("exact-fit set coarsened: %d ranges, want %d", sk.NumRanges(), SketchRanges)
	}
	got := sk.Ranges()
	for i, r := range want {
		if got[i] != r {
			t.Fatalf("range %d = %v, want %v (exact fit must be verbatim)", i, got[i], r)
		}
	}
	// Gaps between the stored ranges must remain uncovered: no widening.
	for i := 0; i < SketchRanges-1; i++ {
		if sk.Contains(AtomID(i*10 + 5)) {
			t.Fatalf("exact-fit sketch covers gap id %d", i*10+5)
		}
	}
}

// TestSketchOverflowCoarsens: one range past the budget forces exactly
// one merge, and Coarsen must close the smallest gap — the two ranges
// separated by it fuse, every other range survives untouched, and the
// result is a superset of the input.
func TestSketchOverflowCoarsens(t *testing.T) {
	var rs RangeSet
	// SketchRanges+1 ranges with gaps 100, 100, ..., except one gap of 2
	// between ranges 3 and 4.
	lo := AtomID(0)
	var lows []AtomID
	for i := 0; i <= SketchRanges; i++ {
		rs.AppendRange(lo, lo+9)
		lows = append(lows, lo)
		if i == 3 {
			lo += 9 + 2 // the smallest gap: 11 - 9 = 2
		} else {
			lo += 110
		}
	}
	before := idsOf(&rs)
	var sk Sketch
	sk.SetFrom(&rs)
	if sk.NumRanges() != SketchRanges {
		t.Fatalf("overflow set has %d ranges, want %d", sk.NumRanges(), SketchRanges)
	}
	for id := range before {
		if !sk.Contains(id) {
			t.Fatalf("coarsening dropped %d (must be a superset)", id)
		}
	}
	// The fused range spans ranges 3 and 4 — and covers their tiny gap.
	if !sk.Contains(lows[3] + 10) {
		t.Fatal("smallest gap not closed by the merge")
	}
	// The large gaps stay open: coarsening must not fuse anything else.
	if sk.Contains(lows[0] + 50) {
		t.Fatal("coarsening closed a large gap; should merge the smallest only")
	}
}

// TestSketchEmpty: the empty set's sketch covers nothing and intersects
// nothing — the zero value and the SetFrom(empty) forms must agree.
func TestSketchEmpty(t *testing.T) {
	var empty RangeSet
	var sk Sketch
	sk.SetFrom(&empty)
	var zero Sketch
	for name, s := range map[string]*Sketch{"SetFrom(empty)": &sk, "zero value": &zero} {
		if s.NumRanges() != 0 {
			t.Fatalf("%s has %d ranges, want 0", name, s.NumRanges())
		}
		if s.Contains(0) || s.Contains(1<<30) {
			t.Fatalf("%s contains ids", name)
		}
		var probe RangeSet
		probe.AppendRange(0, 1<<30)
		if s.Intersects(&probe) {
			t.Fatalf("%s intersects a full-space probe", name)
		}
		var back RangeSet
		s.ToRangeSet(&back)
		if !back.Empty() {
			t.Fatalf("%s round-trips to a non-empty set", name)
		}
	}
}

func TestMapAllocSeqStamps(t *testing.T) {
	m := New(spaceForTest())
	seq0 := m.AllocSeq()
	split := m.CreateAtoms(ivForTest(100, 200))
	if len(split) == 0 {
		t.Fatal("expected a split")
	}
	if m.AllocSeq() <= seq0 {
		t.Fatal("AllocSeq did not advance on split")
	}
	for _, sp := range split {
		if m.BornSeq(sp.New) <= seq0 {
			t.Fatalf("new atom %d stamped %d, not after %d", sp.New, m.BornSeq(sp.New), seq0)
		}
	}
	// Recycling restamps: release a bound, re-create it, and the reused
	// id must carry a newer stamp than its previous life.
	id, ok := m.ReleaseBound(100)
	if !ok {
		t.Fatal("release failed")
	}
	was := m.BornSeq(id)
	split = m.CreateAtoms(ivForTest(100, 150))
	found := false
	for _, sp := range split {
		if sp.New == id {
			found = true
			if m.BornSeq(id) <= was {
				t.Fatalf("recycled atom %d kept stale stamp %d", id, m.BornSeq(id))
			}
		}
	}
	if !found {
		t.Fatalf("free list did not recycle id %d", id)
	}
}

// TestPointerFree: arena nodes, ranges and sketches are stored inline by
// the hundred thousand; the GC must never scan them.
func TestPointerFree(t *testing.T) {
	testutil.PointerFree(t, treeNode{}, Range{}, Sketch{})
}
