// Package intervalmap implements M, Delta-net's ordered map from interval
// boundaries to atom identifiers (paper §3.1, Figure 6).
//
// M contains key/value pairs n ↦ αᵢ where n is a lower or upper bound of
// some rule's IP-prefix interval and αᵢ is an atom identifier. The pair
// n ↦ αᵢ (for n < MAX) means the atom αᵢ denotes the half-closed interval
// [n : n′) where n′ is the next greater key. M is initialized with
// MIN ↦ α₀ and MAX ↦ α∞, so the number of atoms equals len(M) − 1.
//
// Atom identifiers are dense ints handed out by a consecutively increasing
// counter (with an optional free-list for the garbage-collection extension),
// so callers can index slices and bitsets by atom id.
package intervalmap

import (
	"deltanet/internal/ipnet"
)

// AtomID identifies one atom: a half-closed interval in the current
// partition of the address space. Ids are dense and start at 0.
type AtomID int32

// Infinity is the sentinel value α∞ stored under the MAX key; it denotes no
// interval and never appears in interval expansions.
const Infinity AtomID = -1

// Bound is a handle on one key of M: the slot of the key's node in the
// arena tree. A handle names the same key for as long as that key stays
// in M — insertion, the CLRS delete and the rotations relink nodes and
// never move a key to another slot — so a caller may store it in place
// of the key. Once the key is released the slot is recycled, and the
// handle may come to name a different key.
type Bound int32

// SplitPair records that an existing atom's interval was split: Old now
// denotes only the lower part and New denotes the upper part. Algorithm 1
// consumes these as its Δ set; |Δ| ≤ 2 per rule insertion.
type SplitPair struct {
	Old, New AtomID
}

// Map is the boundary map M. It is not safe for concurrent mutation.
//
// The backing store is an arena-backed red-black tree (see arena.go):
// index-addressed nodes in one contiguous pointer-free slice, so the
// boundary map costs the garbage collector nothing no matter how many
// bounds it holds. internal/rbtree remains only as the differential
// oracle this implementation is fuzzed against.
type Map struct {
	space ipnet.Space
	tree  arenaTree
	next  AtomID
	free  []AtomID // recycled ids when garbage collection is enabled

	// allocSeq counts atom allocations (fresh and recycled alike); born
	// stamps each live id with the allocSeq of its most recent allocation.
	// Consumers that cache per-atom conclusions (the monitor's dependency
	// range sketches) compare stamps to detect that an id now denotes a
	// different interval than when the conclusion was recorded — the
	// split/merge-stability anchor raw atom ids cannot provide.
	allocSeq int64
	born     []int64
}

// New returns a Map over the given space, pre-seeded with MIN ↦ α₀ and
// MAX ↦ α∞ as §3.1 prescribes.
func New(space ipnet.Space) *Map {
	m := &Map{space: space, tree: newArenaTree()}
	m.tree.insert(0, m.alloc())
	m.tree.insert(space.Max(), Infinity)
	return m
}

func (m *Map) alloc() AtomID {
	var id AtomID
	if n := len(m.free); n > 0 {
		id = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		id = m.next
		m.next++
	}
	m.allocSeq++
	for int(id) >= len(m.born) {
		m.born = append(m.born, 0)
	}
	m.born[id] = m.allocSeq
	return id
}

// AllocSeq returns the number of atom allocations performed so far (a
// recycled id counts again). It only moves forward, so a caller that
// records AllocSeq alongside per-atom state can later tell whether any
// atom it sees was (re-)allocated after the recording — see BornSeq.
func (m *Map) AllocSeq() int64 { return m.allocSeq }

// BornSeq returns the allocation stamp of the atom id's most recent
// allocation (0 for ids never allocated). An id with BornSeq greater
// than a recorded AllocSeq denotes an interval the recording never saw:
// either a split minted it afterwards, or garbage collection merged the
// original away and recycled the id.
func (m *Map) BornSeq(id AtomID) int64 {
	if int(id) < 0 || int(id) >= len(m.born) {
		return 0
	}
	return m.born[id]
}

// Space returns the address space the map partitions.
func (m *Map) Space() ipnet.Space { return m.space }

// NumAtoms returns the current number of atoms (len(M) − 1).
func (m *Map) NumAtoms() int { return m.tree.len() - 1 }

// MaxID returns one past the largest atom id ever allocated; slices indexed
// by AtomID need this capacity. With GC enabled this can exceed NumAtoms.
func (m *Map) MaxID() int { return int(m.next) }

// CreateAtoms ensures both bounds of iv are keys of M, splitting at most two
// existing atoms. It returns the split pairs (the paper's Δ from
// CREATE_ATOMS+); the caller must copy owner state from Old to New for each
// pair. The set of atoms that results is independent of insertion order,
// though the identifier values are not (§3.1).
func (m *Map) CreateAtoms(iv ipnet.Interval) []SplitPair {
	return m.CreateAtomsInto(iv, nil)
}

// CreateAtomsInto is CreateAtoms appending into dst — the allocation-free
// form for hot update paths that keep a reusable split buffer.
func (m *Map) CreateAtomsInto(iv ipnet.Interval, dst []SplitPair) []SplitPair {
	delta, _, _ := m.CreateBounds(iv, dst)
	return delta
}

// CreateBounds is CreateAtomsInto that also returns the handles of iv's
// two bounds, found or created on the way.
func (m *Map) CreateBounds(iv ipnet.Interval, dst []SplitPair) (delta []SplitPair, lo, hi Bound) {
	delta = dst
	var h [2]Bound
	for i, bound := range [2]uint64{iv.Lo, iv.Hi} {
		n := m.tree.find(bound)
		if n == nilNode {
			prev := m.tree.lower(bound)
			// prev always exists: MIN=0 is a key and bound > 0 here
			// (bound == 0 would have been found).
			old := m.tree.nodes[prev].val
			id := m.alloc()
			n = m.tree.insert(bound, id)
			delta = append(delta, SplitPair{Old: old, New: id})
		}
		h[i] = Bound(n)
	}
	return delta, h[0], h[1]
}

// Key returns the key a live handle names.
func (m *Map) Key(h Bound) uint64 { return m.tree.nodes[h].key }

// Live reports whether h names a key currently in M.
func (m *Map) Live(h Bound) bool {
	return h >= 0 && int(h) < len(m.tree.nodes) && m.tree.find(m.tree.nodes[h].key) == int32(h)
}

// ReleaseBound removes the boundary key at bound, merging the atom that
// starts at bound into its predecessor. It returns the id of the removed
// atom so the caller can clear labels/owner state, and recycles the id.
// The bound must not be MIN or MAX and must currently be a key.
// This implements the garbage-collection mechanism the paper sketches but
// omits from Algorithm 2 (§3.2.2).
func (m *Map) ReleaseBound(bound uint64) (AtomID, bool) {
	if bound == 0 || bound == m.space.Max() {
		return 0, false
	}
	n := m.tree.find(bound)
	if n == nilNode {
		return 0, false
	}
	v := m.tree.nodes[n].val
	m.tree.deleteNode(n)
	m.free = append(m.free, v)
	return v, true
}

// Atoms appends to dst the atom ids whose intervals compose iv — the
// paper's ⟦interval(r)⟧ — assuming both bounds of iv are keys (call
// CreateAtoms first). Atoms are produced in ascending address order.
func (m *Map) Atoms(iv ipnet.Interval, dst []AtomID) []AtomID {
	m.tree.ascendRange(iv.Lo, iv.Hi, func(_ uint64, id AtomID) bool {
		dst = append(dst, id)
		return true
	})
	return dst
}

// AtomsBetween is Atoms for the interval between two live handles,
// Key(lo) < Key(hi): it walks successors from lo and skips the descent
// that finds the interval's first key.
func (m *Map) AtomsBetween(lo, hi Bound, dst []AtomID) []AtomID {
	for n := int32(lo); n != int32(hi); n = m.tree.next(n) {
		dst = append(dst, m.tree.nodes[n].val)
	}
	return dst
}

// AtomsOverlapping appends the atom ids whose intervals intersect iv, even
// when iv's bounds are not keys of M. Used by query paths that must not
// mutate the partition.
func (m *Map) AtomsOverlapping(iv ipnet.Interval, dst []AtomID) []AtomID {
	if iv.Empty() {
		return dst
	}
	if n := m.tree.floor(iv.Lo); n != nilNode && m.tree.nodes[n].val != Infinity && m.tree.nodes[n].key < iv.Lo {
		dst = append(dst, m.tree.nodes[n].val)
	}
	m.tree.ascendRange(iv.Lo, iv.Hi, func(k uint64, id AtomID) bool {
		if id != Infinity {
			dst = append(dst, id)
		}
		return true
	})
	return dst
}

// AtomOf returns the atom containing the address, which always exists.
func (m *Map) AtomOf(addr uint64) AtomID {
	return m.tree.nodes[m.tree.floor(addr)].val
}

// IntervalOf returns the half-closed interval currently denoted by the atom.
// It is a linear scan and intended for tests, tooling and reporting, not the
// hot path (the engine never needs the reverse mapping).
func (m *Map) IntervalOf(id AtomID) (ipnet.Interval, bool) {
	var out ipnet.Interval
	found := false
	var prevKey uint64
	var prevID AtomID = Infinity
	first := true
	m.tree.ascend(func(k uint64, v AtomID) bool {
		if !first && prevID == id {
			out = ipnet.Interval{Lo: prevKey, Hi: k}
			found = true
			return false
		}
		first = false
		prevKey, prevID = k, v
		return true
	})
	return out, found
}

// Bounds returns all boundary keys in ascending order (including MIN and
// MAX). Intended for tests and reporting.
func (m *Map) Bounds() []uint64 {
	out := make([]uint64, 0, m.tree.len())
	m.tree.ascend(func(k uint64, _ AtomID) bool {
		out = append(out, k)
		return true
	})
	return out
}

// ForEachAtom calls fn for every atom with its interval, in address order.
func (m *Map) ForEachAtom(fn func(id AtomID, iv ipnet.Interval) bool) {
	var prevKey uint64
	var prevID AtomID = Infinity
	first := true
	m.tree.ascend(func(k uint64, v AtomID) bool {
		if !first {
			if !fn(prevID, ipnet.Interval{Lo: prevKey, Hi: k}) {
				return false
			}
		}
		first = false
		prevKey, prevID = k, v
		return true
	})
}

// HasBound reports whether n is currently a boundary key.
func (m *Map) HasBound(n uint64) bool { return m.tree.find(n) != nilNode }

// CheckInvariants verifies the backing tree's red-black properties, key
// ordering, and arena slot accounting, returning a description of the
// first violation (empty string when valid). Tests and tooling only.
func (m *Map) CheckInvariants() string { return m.tree.checkInvariants() }
