package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fromSlice returns a set containing exactly the given values.
func fromSlice(vals []int) *Set {
	s := &Set{}
	for _, v := range vals {
		s.Add(v)
	}
	return s
}

// union and difference return a new set s ∪ o and s − o.
func union(s, o *Set) *Set {
	r := s.Clone()
	r.UnionWith(o)
	return r
}

func difference(s, o *Set) *Set {
	r := s.Clone()
	r.DifferenceWith(o)
	return r
}

func TestAddContainsRemove(t *testing.T) {
	s := New(0)
	vals := []int{0, 1, 63, 64, 65, 127, 128, 1000}
	for _, v := range vals {
		s.Add(v)
	}
	for _, v := range vals {
		if !s.Contains(v) {
			t.Fatalf("missing %d", v)
		}
	}
	for _, v := range []int{2, 62, 66, 999, 1001} {
		if s.Contains(v) {
			t.Fatalf("spurious %d", v)
		}
	}
	if s.Len() != len(vals) {
		t.Fatalf("Len=%d want %d", s.Len(), len(vals))
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Fatal("Remove failed")
	}
	s.Remove(64) // idempotent
	s.Remove(100000)
	if s.Len() != len(vals)-1 {
		t.Fatalf("Len=%d", s.Len())
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Set
	s.Add(5)
	if !s.Contains(5) || s.Len() != 1 {
		t.Fatal("zero value not usable")
	}
}

func TestEmptyAndClear(t *testing.T) {
	s := New(100)
	if !s.Empty() {
		t.Fatal("New set not empty")
	}
	s.Add(50)
	if s.Empty() {
		t.Fatal("nonempty set reported empty")
	}
	s.Clear()
	if !s.Empty() || s.Len() != 0 {
		t.Fatal("Clear failed")
	}
}

func TestSetOps(t *testing.T) {
	a := fromSlice([]int{1, 2, 3, 100})
	b := fromSlice([]int{2, 3, 4, 200})

	u := union(a, b)
	for _, v := range []int{1, 2, 3, 4, 100, 200} {
		if !u.Contains(v) {
			t.Fatalf("union missing %d", v)
		}
	}
	if u.Len() != 6 {
		t.Fatalf("union Len=%d", u.Len())
	}

	i := Intersect(a, b)
	if i.Len() != 2 || !i.Contains(2) || !i.Contains(3) {
		t.Fatalf("intersect wrong: %v", i)
	}

	d := difference(a, b)
	if d.Len() != 2 || !d.Contains(1) || !d.Contains(100) {
		t.Fatalf("difference wrong: %v", d)
	}

	// Original sets untouched.
	if a.Len() != 4 || b.Len() != 4 {
		t.Fatal("operands mutated")
	}
}

func TestInPlaceOpsDifferentSizes(t *testing.T) {
	small := fromSlice([]int{1})
	big := fromSlice([]int{1, 500})

	s := small.Clone()
	s.UnionWith(big)
	if !s.Contains(500) {
		t.Fatal("UnionWith did not grow")
	}

	s = big.Clone()
	s.IntersectWith(small)
	if s.Contains(500) || !s.Contains(1) {
		t.Fatalf("IntersectWith with smaller operand: %v", s)
	}

	s = small.Clone()
	s.IntersectWith(big)
	if !s.Contains(1) || s.Len() != 1 {
		t.Fatalf("IntersectWith with larger operand: %v", s)
	}

	s = small.Clone()
	s.DifferenceWith(big)
	if !s.Empty() {
		t.Fatalf("DifferenceWith: %v", s)
	}
}

func TestOrAnd(t *testing.T) {
	a := fromSlice([]int{1, 2, 3})
	b := fromSlice([]int{2, 3, 4})
	s := fromSlice([]int{9})
	if !s.OrAnd(a, b) {
		t.Fatal("OrAnd should report change")
	}
	want := fromSlice([]int{2, 3, 9})
	if !s.Equal(want) {
		t.Fatalf("OrAnd: got %v want %v", s, want)
	}
	if s.OrAnd(a, b) {
		t.Fatal("second OrAnd should report no change")
	}
	// Growth when target is smaller than operands.
	tiny := New(0)
	x := fromSlice([]int{300})
	if !tiny.OrAnd(x, x) || !tiny.Contains(300) {
		t.Fatal("OrAnd did not grow target")
	}
}

func TestIntersects(t *testing.T) {
	a := fromSlice([]int{1, 100})
	b := fromSlice([]int{100})
	c := fromSlice([]int{2, 200})
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Fatal("Intersects false negative")
	}
	if a.Intersects(c) {
		t.Fatal("Intersects false positive")
	}
	if a.Intersects(New(0)) {
		t.Fatal("Intersects with empty")
	}
}

func TestEqualAndSubset(t *testing.T) {
	a := fromSlice([]int{1, 2, 3})
	b := fromSlice([]int{1, 2, 3})
	b.Add(5000)
	b.Remove(5000) // trailing zero words must not break Equal
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("Equal with trailing zeros")
	}
	b.Add(4)
	if a.Equal(b) {
		t.Fatal("Equal false positive")
	}
	// a ⊆ b exactly when a − b is empty.
	if !difference(a, b).Empty() {
		t.Fatal("subset has a difference")
	}
	if difference(b, a).Empty() {
		t.Fatal("superset has no difference")
	}
	big := fromSlice([]int{1, 2, 3, 900})
	if difference(big, a).Empty() {
		t.Fatal("larger operand has no difference")
	}
}

func TestForEachAndSlice(t *testing.T) {
	vals := []int{5, 1, 300, 64}
	s := fromSlice(vals)
	got := s.Slice()
	want := []int{1, 5, 64, 300}
	if len(got) != len(want) {
		t.Fatalf("Slice=%v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice=%v want %v", got, want)
		}
	}
	// Early termination.
	n := 0
	s.ForEach(func(int) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("ForEach early stop: n=%d", n)
	}
}

func TestMinMax(t *testing.T) {
	s := New(0)
	if s.Min() != -1 || s.Max() != -1 {
		t.Fatal("Min/Max of empty set")
	}
	s.Add(200)
	s.Add(7)
	s.Add(64)
	if s.Min() != 7 || s.Max() != 200 {
		t.Fatalf("Min=%d Max=%d", s.Min(), s.Max())
	}
}

func TestCopy(t *testing.T) {
	a := fromSlice([]int{1, 2, 900})
	b := fromSlice([]int{5})
	b.Copy(a)
	if !b.Equal(a) {
		t.Fatal("Copy mismatch")
	}
	b.Add(6)
	if a.Contains(6) {
		t.Fatal("Copy aliases source")
	}
}

func TestString(t *testing.T) {
	s := fromSlice([]int{2, 1})
	if got := s.String(); got != "{1, 2}" {
		t.Fatalf("String=%q", got)
	}
	if got := New(0).String(); got != "{}" {
		t.Fatalf("empty String=%q", got)
	}
}

// Property: set semantics match a reference map under random ops.
func TestPropertyAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New(0)
	ref := map[int]bool{}
	for i := 0; i < 50000; i++ {
		v := rng.Intn(1 << 12)
		if rng.Intn(2) == 0 {
			s.Add(v)
			ref[v] = true
		} else {
			s.Remove(v)
			delete(ref, v)
		}
	}
	if s.Len() != len(ref) {
		t.Fatalf("Len=%d want %d", s.Len(), len(ref))
	}
	for v := range ref {
		if !s.Contains(v) {
			t.Fatalf("missing %d", v)
		}
	}
	s.ForEach(func(v int) bool {
		if !ref[v] {
			t.Fatalf("spurious %d", v)
		}
		return true
	})
}

// Property: De Morgan-ish algebra — |A ∪ B| = |A| + |B| − |A ∩ B|.
func TestPropertyInclusionExclusion(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a, b := New(0), New(0)
		for _, x := range xs {
			a.Add(int(x))
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		return union(a, b).Len() == a.Len()+b.Len()-Intersect(a, b).Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: difference then union with the intersection reconstructs A.
func TestPropertyDifferenceReconstruction(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a, b := New(0), New(0)
		for _, x := range xs {
			a.Add(int(x))
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		r := difference(a, b)
		r.UnionWith(Intersect(a, b))
		return r.Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	s := New(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(i & (1<<20 - 1))
	}
}

func BenchmarkUnionWith4096(b *testing.B) {
	x := New(4096)
	y := New(4096)
	for i := 0; i < 4096; i += 3 {
		y.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.UnionWith(y)
	}
}

func BenchmarkOrAnd4096(b *testing.B) {
	x := New(4096)
	y := New(4096)
	z := New(4096)
	for i := 0; i < 4096; i += 2 {
		y.Add(i)
	}
	for i := 0; i < 4096; i += 3 {
		z.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.OrAnd(y, z)
	}
}

func TestNextSet(t *testing.T) {
	s := fromSlice([]int{3, 64, 65, 200})
	cases := []struct{ from, want int }{
		{-5, 3}, {0, 3}, {3, 3}, {4, 64}, {64, 64}, {65, 65}, {66, 200},
		{200, 200}, {201, -1}, {10_000, -1},
	}
	for _, c := range cases {
		if got := s.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if got := New(0).NextSet(0); got != -1 {
		t.Errorf("empty NextSet(0) = %d, want -1", got)
	}
	// Walking via NextSet enumerates exactly the elements.
	var walked []int
	for v := s.NextSet(0); v >= 0; v = s.NextSet(v + 1) {
		walked = append(walked, v)
	}
	if want := s.Slice(); !slicesEqual(walked, want) {
		t.Errorf("NextSet walk %v, want %v", walked, want)
	}
}

func TestAndOf(t *testing.T) {
	a := fromSlice([]int{1, 5, 70, 128, 300})
	b := fromSlice([]int{5, 70, 301})
	s := New(512) // oversized scratch: AndOf must shrink it
	s.Add(400)    // stale content must vanish
	s.AndOf(a, b)
	if want := Intersect(a, b); !s.Equal(want) {
		t.Errorf("AndOf = %v, want %v", s, want)
	}
	// Different operand sizes, reusing the same scratch.
	s.AndOf(b, a)
	if want := Intersect(a, b); !s.Equal(want) {
		t.Errorf("AndOf reversed = %v, want %v", s, want)
	}
	s.AndOf(a, New(0))
	if !s.Empty() {
		t.Errorf("AndOf with empty = %v, want empty", s)
	}
}

func slicesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
