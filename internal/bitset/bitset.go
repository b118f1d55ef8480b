// Package bitset implements the dynamic bitsets that Delta-net uses for
// edge labels (paper §4.1: "We implement edge labels as customized dynamic
// bitsets, stored as aligned, dynamically allocated, contiguous memory").
//
// A Set holds atom identifiers, which are dense small integers, so a packed
// word array gives constant-time membership, cheap unions/intersections for
// Algorithm 3, and a memory footprint proportional to the highest atom id.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a growable bitset. The zero value is an empty set ready to use.
type Set struct {
	words []uint64
}

// New returns an empty set with capacity preallocated for values < n.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

func (s *Set) grow(word int) {
	if word < len(s.words) {
		return
	}
	n := len(s.words)*2 + 1
	if n <= word {
		n = word + 1
	}
	w := make([]uint64, n)
	copy(w, s.words)
	s.words = w
}

// Add inserts v into the set. v must be non-negative.
func (s *Set) Add(v int) {
	w := v / wordBits
	s.grow(w)
	s.words[w] |= 1 << (uint(v) % wordBits)
}

// Remove deletes v from the set. Removing an absent value is a no-op.
func (s *Set) Remove(v int) {
	w := v / wordBits
	if w < len(s.words) {
		s.words[w] &^= 1 << (uint(v) % wordBits)
	}
}

// Contains reports whether v is in the set.
func (s *Set) Contains(v int) bool {
	w := v / wordBits
	return w < len(s.words) && s.words[w]&(1<<(uint(v)%wordBits)) != 0
}

// Len returns the number of elements (population count).
func (s *Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all elements, retaining capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{words: w}
}

// Copy overwrites s with the contents of o.
func (s *Set) Copy(o *Set) {
	if cap(s.words) < len(o.words) {
		s.words = make([]uint64, len(o.words))
	} else {
		s.words = s.words[:len(o.words)]
	}
	copy(s.words, o.words)
}

// UnionWith adds every element of o to s (s |= o).
func (s *Set) UnionWith(o *Set) {
	if len(o.words) > len(s.words) {
		s.grow(len(o.words) - 1)
	}
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// IntersectWith removes from s every element not in o (s &= o).
func (s *Set) IntersectWith(o *Set) {
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		s.words[i] &= o.words[i]
	}
	for i := n; i < len(s.words); i++ {
		s.words[i] = 0
	}
}

// DifferenceWith removes every element of o from s (s &^= o).
func (s *Set) DifferenceWith(o *Set) {
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		s.words[i] &^= o.words[i]
	}
}

// Intersect returns a new set s ∩ o.
func Intersect(s, o *Set) *Set {
	r := s.Clone()
	r.IntersectWith(o)
	return r
}

// OrAnd sets s |= (a & b) and reports whether s changed. This is the inner
// step of Algorithm 3 (label[i,j] ∪= label[i,k] ∩ label[k,j]) fused into a
// single pass so the all-pairs computation allocates nothing per step.
func (s *Set) OrAnd(a, b *Set) bool {
	n := len(a.words)
	if len(b.words) < n {
		n = len(b.words)
	}
	if n > len(s.words) {
		s.grow(n - 1)
	}
	changed := false
	for i := 0; i < n; i++ {
		v := a.words[i] & b.words[i]
		if v&^s.words[i] != 0 {
			changed = true
			s.words[i] |= v
		}
	}
	return changed
}

// AndOf overwrites s with a ∩ b, reusing s's capacity — the allocation-free
// form of Intersect for hot paths that keep a scratch set (the reachability
// fixpoint's per-hop contribution, the monitor's dirty marking).
func (s *Set) AndOf(a, b *Set) {
	n := len(a.words)
	if len(b.words) < n {
		n = len(b.words)
	}
	if cap(s.words) < n {
		s.words = make([]uint64, n)
	} else {
		s.words = s.words[:n]
	}
	for i := 0; i < n; i++ {
		s.words[i] = a.words[i] & b.words[i]
	}
}

// NextSet returns the smallest element ≥ v, or -1 if no such element
// exists — the resumable iteration primitive (NextSet(0) is Min).
func (s *Set) NextSet(v int) int {
	if v < 0 {
		v = 0
	}
	w := v / wordBits
	if w >= len(s.words) {
		return -1
	}
	// Mask off the bits below v in the first word.
	if cur := s.words[w] &^ ((1 << (uint(v) % wordBits)) - 1); cur != 0 {
		return w*wordBits + bits.TrailingZeros64(cur)
	}
	for i := w + 1; i < len(s.words); i++ {
		if s.words[i] != 0 {
			return i*wordBits + bits.TrailingZeros64(s.words[i])
		}
	}
	return -1
}

// Intersects reports whether s and o share at least one element, without
// allocating.
func (s *Set) Intersects(o *Set) bool {
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether s and o contain the same elements.
func (s *Set) Equal(o *Set) bool {
	a, b := s.words, o.words
	if len(a) < len(b) {
		a, b = b, a
	}
	for i := range b {
		if a[i] != b[i] {
			return false
		}
	}
	for i := len(b); i < len(a); i++ {
		if a[i] != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn with each element in ascending order until fn returns
// false.
func (s *Set) ForEach(fn func(v int) bool) {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(i*wordBits + b) {
				return
			}
			w &^= 1 << uint(b)
		}
	}
}

// Slice returns the elements in ascending order.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.Len())
	s.ForEach(func(v int) bool {
		out = append(out, v)
		return true
	})
	return out
}

// Min returns the smallest element, or -1 if the set is empty.
func (s *Set) Min() int {
	for i, w := range s.words {
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Max returns the largest element, or -1 if the set is empty.
func (s *Set) Max() int {
	for i := len(s.words) - 1; i >= 0; i-- {
		if w := s.words[i]; w != 0 {
			return i*wordBits + wordBits - 1 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// WordBytes returns the heap footprint of the backing array in bytes,
// used by the memory-accounting experiments (paper Appendix D).
func (s *Set) WordBytes() int { return cap(s.words) * 8 }

// String renders the set as "{a, b, c}" for debugging and test failure
// messages.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(v int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", v)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
