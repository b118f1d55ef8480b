package core

// Flat owner storage. The paper's owner[α][source] is a balanced BST of
// rules per (atom, source); transcribing that literally cost one Go map
// per atom plus one heap-allocated tree node per (atom, source, rule) —
// pointer-chasing on every ownership reassignment and a large
// GC-scannable object graph. This file replaces it with struct-of-arrays
// storage:
//
//   - ruleStore: every live rule lives in one dense slot-indexed arena of
//     16-byte pointer-free ruleRecs, with a LIFO free list so steady-state
//     churn recycles slots instead of allocating, and an open-addressed
//     id → slot table (4 bytes per entry, keyed by the id the store
//     already holds) in place of a Go map. A record holds its id's low
//     32 bits; the high half lives in a per-page column that a page only
//     has once an id needing it lands there. A record names its match by an
//     interval entry: one refcounted ivRec per distinct live match holds
//     the match's two boundary-map handles, found through a second
//     open-addressed table keyed by the match. The paper's planes compile
//     one prefix into a rule per switch, so most rules share an entry,
//     and an insert descends the boundary tree only for a new match;
//   - ownerAtom: one atom's whole owner table — one []int32 cell
//     directory, a source bitmap with a bit per node that has rules in
//     the atom followed by one 4-byte cell per set bit in node order,
//     over one packed []int32 slab of rule slots. A one-rule cell (two in
//     three on the paper's planes) holds its slot inline; a larger cell
//     names a priority-sorted slab window whose last entry is its
//     maximum, the paper's bst.Max().
//
// Finding a node's cell is a rank — a bit test plus popcounts over the
// bitmap words up to the node's — and ownership operations are binary
// searches plus int32 memmoves over contiguous memory; a change to a
// one-rule cell moves no slab entry. Cell directories and slabs retain
// capacity across delete/insert cycles and atom death (GC merge), so a
// steady-state insert/remove workload performs no allocation at all in
// the owner structures. Batch replay rewrites one atom's ownerAtom at a
// time, through one retained scratch table (replayScratch).

import (
	"fmt"
	"math/bits"
	"slices"

	"deltanet/internal/intervalmap"
	"deltanet/internal/netgraph"
)

// noSlot marks "no rule" in prev/top comparisons and "no interval entry"
// in a released record.
const noSlot int32 = -1

// ruleRec is one 16-byte arena slot: a Rule without its source, which is
// always graph.Link(link).Src (a drop rule is stored on its source's drop
// link), its match named by interval entry iv, and only the low half of
// its id: the high half is in the page's column (ruleStore.his), which
// only exists once an id with high bits lands in the page. An int64 id
// field would align the record to 8 bytes and pad it to 24. A released
// slot holds iv == noSlot.
//
//deltanet:pointerfree
type ruleRec struct {
	idLo uint32
	iv   int32
	link netgraph.LinkID
	prio Priority
}

// ivRec is one interval entry: a match some live rule has, its bounds named
// by their handles in M, and refs, the number of records naming it. The
// handles never dangle: GC only releases keys no live entry names. A freed
// entry is zeroed, so refs == 0 marks it.
//
//deltanet:pointerfree
type ivRec struct {
	lo, hi intervalmap.Bound
	refs   int32
}

// ruleStore is the dense arena of live rules and their interval entries.
// Slots and entries are recycled LIFO. Records live in pages that are
// never moved, so growth costs one page and leaves at most one spare.
// his holds one entry per page: nil until an id whose high 32 bits are
// not zero is allocated into the page, then a column of the page's ids'
// high halves, zero at every slot whose id has none and at every released
// slot. Pages, columns and entries are pointer-free, so the garbage
// collector never scans rule storage, and owner-list searches index flat
// arrays.
type ruleStore struct {
	pages []*[pageSize]ruleRec
	his   []*[pageSize]uint32 // high id halves per page, nil while all are zero
	n     int32               // slots ever allocated: the arena's length
	free  []int32
	ids   index // id → slot

	ivs    []ivRec
	ivFree []int32
	ivIdx  index // match → entry; ivKey hashes the match
}

// pageSize is how many records one arena page holds: 512 × 16 B is
// 8 192 B, an exact Go size class, and a column is 2 048 B, another.
const pageSize = 1 << 9

func newRuleStore() ruleStore {
	return ruleStore{ids: newIndex(), ivIdx: newIndex()}
}

// index is an open-addressed table of entry+1 (0 = empty): a power-of-two
// array linear-probed from a multiplicative hash of the key (caller-chosen
// ids are often sequential) and kept at most 7/8 full. It stores no key:
// callers read an entry's key back from the entry itself. Deletion shifts
// the probe run back instead of leaving tombstones, so churn at a steady
// count never rehashes.
type index struct {
	table []int32
	shift uint8 // 64 − log2(len(table)): the hash keeps the product's top bits
	live  int
}

func newIndex() index { return index{table: make([]int32, 16), shift: 64 - 4} }

func (x *index) home(key uint64) int { return int(key * 0x9E3779B97F4A7C15 >> x.shift) }

// find returns the position in key's probe run of the entry that is
// accepts, or the empty position that ends the run.
func (x *index) find(key uint64, is func(e int32) bool) (int, bool) {
	mask := len(x.table) - 1
	for i := x.home(key); ; i = (i + 1) & mask {
		if e := x.table[i]; e == 0 || is(e-1) {
			return i, e != 0
		}
	}
}

// add stores entry e at i, the empty position find returned, and reports
// whether the table is now over 7/8 full and must grow.
func (x *index) add(i int, e int32) bool {
	x.table[i] = e + 1
	x.live++
	return x.live*8 > len(x.table)*7
}

// grow doubles the table and returns the old one. The caller re-inserts
// its entries with put, reading each key from its entry inline: a
// function value called per entry took 1.7× as long to rehash the id
// table in a bulk-load profile.
func (x *index) grow() []int32 {
	old := x.table
	x.table = make([]int32, 2*len(old))
	x.shift--
	return old
}

// put stores table value v (entry+1) at the end of key's probe run.
func (x *index) put(key uint64, v int32) {
	mask := len(x.table) - 1
	i := x.home(key)
	for x.table[i] != 0 {
		i = (i + 1) & mask
	}
	x.table[i] = v
}

// cut starts the backward-shift deletion of entry e, whose key is key: it
// returns e's emptied position and the next of its probe run (-1, -1 if e
// is not indexed). The caller walks the run with next and fill, reading
// keys inline as grow's callers do (a function value is not inlined).
func (x *index) cut(key uint64, e int32) (hole, j int) {
	mask := len(x.table) - 1
	i := x.home(key)
	for ; x.table[i] != e+1; i = (i + 1) & mask {
		if x.table[i] == 0 {
			return -1, -1
		}
	}
	x.table[i] = 0
	x.live--
	return i, x.next(i)
}

// next returns the position after j in its probe run, or -1 at the run's
// end.
func (x *index) next(j int) int {
	if j = (j + 1) & (len(x.table) - 1); x.table[j] == 0 {
		return -1
	}
	return j
}

// fill moves the entry at j, whose key is key, into hole i unless that
// would put it before its home, and returns where the hole is now.
func (x *index) fill(i, j int, key uint64) int {
	mask := len(x.table) - 1
	if (j-x.home(key))&mask < (j-i)&mask {
		return i
	}
	x.table[i], x.table[j] = x.table[j], 0
	return j
}

// rec returns the record in slot.
func (s *ruleStore) rec(slot int32) *ruleRec {
	return &s.pages[uint32(slot)/pageSize][uint32(slot)%pageSize]
}

// hi returns the high half of slot's id: 0 when its page has no column.
func (s *ruleStore) hi(slot int32) uint32 {
	if h := s.his[uint32(slot)/pageSize]; h != nil {
		return h[uint32(slot)%pageSize]
	}
	return 0
}

// id rebuilds the id of the rule in slot from its record and its page's
// column.
func (s *ruleStore) id(slot int32) RuleID {
	return RuleID(uint64(s.hi(slot))<<32 | uint64(s.rec(slot).idLo))
}

func (s *ruleStore) idKey(slot int32) uint64 { return uint64(s.id(slot)) }

// find returns the id table position holding id's slot, or the empty
// position that ends its probe run. A probe reads the column only when
// the low halves match.
func (s *ruleStore) find(id RuleID) (int, bool) {
	lo, hi := uint32(id), uint32(uint64(id)>>32)
	return s.ids.find(uint64(id), func(slot int32) bool { return s.rec(slot).idLo == lo && s.hi(slot) == hi })
}

// alloc stores r's record, naming interval entry iv, and returns its slot,
// pointing the id table at it. If its id is still indexed (a batch that
// removes a rule and re-inserts its id allocates before it releases), the
// entry is repointed.
func (s *ruleStore) alloc(r *Rule, iv int32) int32 {
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = s.n
		if s.n++; int(slot/pageSize) == len(s.pages) {
			s.pages = append(s.pages, new([pageSize]ruleRec))
			s.his = append(s.his, nil)
		}
	}
	*s.rec(slot) = ruleRec{idLo: uint32(r.ID), iv: iv, link: r.Link, prio: r.Priority}
	if hi := uint32(uint64(r.ID) >> 32); hi != 0 { // a free slot is zero in its column
		page := uint32(slot) / pageSize
		if s.his[page] == nil {
			s.his[page] = new([pageSize]uint32)
		}
		s.his[page][uint32(slot)%pageSize] = hi
	}
	if i, ok := s.find(r.ID); ok {
		s.ids.table[i] = slot + 1
	} else if s.ids.add(i, slot) {
		for _, v := range s.ids.grow() {
			if v != 0 {
				s.ids.put(s.idKey(v-1), v)
			}
		}
	}
	return slot
}

// releaseSlot frees slot, zeroing its record and its column entry. The id
// table entry is only removed when it still names this slot — a batch
// that removes a rule and re-inserts its id has already repointed the
// entry at the new slot.
func (s *ruleStore) releaseSlot(slot int32) {
	x := &s.ids
	for i, j := x.cut(s.idKey(slot), slot); j >= 0; j = x.next(j) {
		i = x.fill(i, j, s.idKey(x.table[j]-1))
	}
	*s.rec(slot) = ruleRec{iv: noSlot}
	if h := s.his[uint32(slot)/pageSize]; h != nil {
		h[uint32(slot)%pageSize] = 0
	}
	s.free = append(s.free, slot)
}

func (s *ruleStore) slotOf(id RuleID) (int32, bool) {
	if i, ok := s.find(id); ok {
		return s.ids.table[i] - 1, true
	}
	return noSlot, false
}

func (s *ruleStore) keyOf(slot int32) prioKey {
	return prioKey{prio: s.rec(slot).prio, id: s.id(slot)}
}

func (s *ruleStore) len() int { return s.ids.live }

// appendGrow is append for the owner tables: up to 64
// elements it keeps append's doubling, past that a full slice grows by an
// eighth, so a structure that stops growing holds at most an eighth of
// spare capacity (append leaves up to a quarter, past 256 elements).
func appendGrow[T any](s []T, v T) []T {
	if n := len(s); n == cap(s) && n >= 64 {
		s = append(make([]T, 0, n+n/8), s...)
	}
	return append(s, v)
}

// setGrow returns src's elements in dst's storage, or in a new array of
// exactly src's length when they do not fit.
func setGrow[T any](dst, src []T) []T {
	if len(src) > cap(dst) {
		dst = make([]T, 0, len(src))
	}
	return append(dst[:0], src...)
}

// ownerAtom is one atom's owner table in two flat arrays. The cell
// directory cells is empty or holds the atom's source bitmap and then its
// cells: cells[0] is the bitmap's word count w; cells[1:1+w] are its
// 32-bit words, bit v%32 of word v/32 set when node v has rules in the
// atom; and cells[1+w:] hold one cell per set bit in ascending node order
// (vals). A cell ≥ 0 is an inline cell's one rule slot; a cell of two or
// more rules is windowed and stores ^end, its rule slots being
// slab[start:end], start the previous windowed cell's end (0 for the
// first), sorted by priority key ascending. Either way the owner —
// bst.Max() in the paper — is the cell's last slot. The windows are
// contiguous, ascending, and exactly cover slab. The bitmap only widens,
// to the highest source the atom has had since its last reset, so a word
// may be zero. Both backing arrays hold no pointers and retain capacity
// across mutations and atom death, so churn over a warmed atom allocates
// nothing.
//
// Against a 4-byte node id per cell, the bitmap costs 4 B per 32 node ids
// up to the highest source plus 4 B for its word count, so it is the
// larger only when the atom has cells at fewer than about 1/32 of those
// ids. The paper's planes put cells at nearly every node of a non-empty
// atom, and an atom without cells pays nothing.
type ownerAtom struct {
	cells []int32
	slab  []int32
}

// base returns the index of the first cell in the directory.
func (oa *ownerAtom) base() int {
	if len(oa.cells) == 0 {
		return 0
	}
	return 1 + int(oa.cells[0])
}

// words returns the source bitmap; vals returns the cells.
func (oa *ownerAtom) words() []int32 { return oa.cells[min(1, len(oa.cells)):oa.base()] }
func (oa *ownerAtom) vals() []int32  { return oa.cells[oa.base():] }

// findCell returns the index of node's cell, or (insertion point, false):
// the rank of node's bit, a popcount over the words up to node's.
func (oa *ownerAtom) findCell(node netgraph.NodeID) (int, bool) {
	words, w := oa.words(), int(node>>5)
	if w >= len(words) {
		return len(oa.vals()), false
	}
	x, bit := uint32(words[w]), uint32(1)<<(node&31)
	rank := bits.OnesCount32(x & (bit - 1))
	for _, y := range words[:w] {
		rank += bits.OnesCount32(uint32(y))
	}
	return rank, x&bit != 0
}

// nodeFrom returns the lowest node at or above v that has a cell, or -1.
func (oa *ownerAtom) nodeFrom(v netgraph.NodeID) netgraph.NodeID {
	words := oa.words()
	for w := int(v >> 5); w < len(words); w, v = w+1, netgraph.NodeID(w+1)<<5 {
		if x := uint32(words[w]) >> (v & 31); x != 0 {
			return v + netgraph.NodeID(bits.TrailingZeros32(x))
		}
	}
	return -1
}

// widen grows the bitmap to at least k words, moving the cells up past
// the new zero words.
func (oa *ownerAtom) widen(k int) {
	if len(oa.cells) == 0 {
		oa.cells = append(oa.cells, 0)
	}
	w, n := int(oa.cells[0]), len(oa.cells)
	if k <= w {
		return
	}
	for range k - w {
		oa.cells = appendGrow(oa.cells, 0)
	}
	copy(oa.cells[1+k:], oa.cells[1+w:n])
	clear(oa.cells[1+w : 1+k])
	oa.cells[0] = int32(k)
}

// mark sets node's bit, widening the bitmap to node's word.
func (oa *ownerAtom) mark(node netgraph.NodeID) {
	oa.widen(int(node>>5) + 1)
	oa.words()[node>>5] |= 1 << (node & 31)
}

// closeCell appends node's cell, its rules slab[start:], to a table being
// rebuilt in node order: no rules leave no cell, one goes inline, more
// make a window.
func (oa *ownerAtom) closeCell(node netgraph.NodeID, start int) {
	c := ^int32(len(oa.slab))
	switch len(oa.slab) - start {
	case 0:
		return
	case 1:
		c, oa.slab = oa.slab[start], oa.slab[:start]
	}
	oa.mark(node)
	oa.cells = append(oa.cells, c)
}

// start returns where cell i's slab window begins or would begin: the end
// of the nearest earlier windowed cell, or 0.
func (oa *ownerAtom) start(i int) int32 {
	vals := oa.vals()
	for i--; i >= 0; i-- {
		if c := vals[i]; c < 0 {
			return ^c
		}
	}
	return 0
}

// window returns cell i's rule slots: for an inline cell, a one-element
// view of its slot.
func (oa *ownerAtom) window(i int) []int32 {
	vals := oa.vals()
	if c := vals[i]; c < 0 {
		return oa.slab[oa.start(i):^c]
	}
	return vals[i : i+1 : i+1]
}

// topOf returns the owning slot of a cell whose value is c.
func (oa *ownerAtom) topOf(c int32) int32 {
	if c < 0 {
		return oa.slab[^c-1]
	}
	return c
}

// top returns the owning rule's slot at node (the highest-priority
// entry), or noSlot.
func (oa *ownerAtom) top(node netgraph.NodeID) int32 {
	if i, ok := oa.findCell(node); ok {
		return oa.topOf(oa.vals()[i])
	}
	return noSlot
}

// eachTop calls fn with every cell's owning slot.
func (oa *ownerAtom) eachTop(fn func(slot int32)) {
	for _, c := range oa.vals() {
		fn(oa.topOf(c))
	}
}

// empty reports whether the atom has no owner state at all.
func (oa *ownerAtom) empty() bool { return len(oa.vals()) == 0 }

// reset drops all owner state, retaining capacity for reuse (atom ids
// are recycled by GC; the storage is, too).
func (oa *ownerAtom) reset() {
	oa.cells = oa.cells[:0]
	oa.slab = oa.slab[:0]
}

// cloneFrom makes oa an independent copy of src (the owner[α′] ← owner[α]
// split copy of Algorithm 1, line 4), reusing oa's retained capacity.
func (oa *ownerAtom) cloneFrom(src *ownerAtom) {
	oa.cells = append(oa.cells[:0], src.cells...)
	oa.slab = append(oa.slab[:0], src.slab...)
}

// search returns the first position in slab[lo:hi] whose key is not
// below k.
func (oa *ownerAtom) search(s *ruleStore, lo, hi int, k prioKey) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmpPrioKey(s.keyOf(oa.slab[mid]), k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// moveEnds adds d to the end of every windowed cell from i on; an inline
// cell's value is a slot and stays. A windowed cell stores ^end, so its
// end grows by d as its value drops by d, and v>>31 is all ones only then.
func (oa *ownerAtom) moveEnds(i int, d int32) {
	vals := oa.vals()
	for ; i < len(vals); i++ {
		vals[i] -= d & (vals[i] >> 31)
	}
}

// insert adds rule slot (with key k) to node's cell, keeping the cell's
// window priority-sorted, and returns the cell's previous top (noSlot if
// node had no cell). Duplicate keys must not occur (rule ids are unique
// among live rules).
func (oa *ownerAtom) insert(s *ruleStore, node netgraph.NodeID, slot int32, k prioKey) (prev int32) {
	ci, ok := oa.findCell(node)
	if !ok { // a new cell holds its rule inline
		oa.mark(node)
		at := oa.base() + ci
		oa.cells = appendGrow(oa.cells, 0)
		copy(oa.cells[at+1:], oa.cells[at:])
		oa.cells[at] = slot
		return noSlot
	}
	c, start := &oa.vals()[ci], int(oa.start(ci))
	if prev = oa.topOf(*c); *c >= 0 { // inline: a window of two
		oa.slab = appendGrow(appendGrow(oa.slab, 0), 0)
		copy(oa.slab[start+2:], oa.slab[start:])
		if oa.slab[start], oa.slab[start+1] = prev, slot; cmpPrioKey(k, s.keyOf(prev)) < 0 {
			oa.slab[start], oa.slab[start+1] = slot, prev
		}
		*c = ^int32(start)
		oa.moveEnds(ci, 2)
		return prev
	}
	at := oa.search(s, start, int(^*c), k)
	oa.slab = appendGrow(oa.slab, 0)
	copy(oa.slab[at+1:], oa.slab[at:])
	oa.slab[at] = slot
	oa.moveEnds(ci, 1)
	return prev
}

// remove deletes the entry with key k from node's cell, reporting whether
// it was the cell's top and, if so, the next top (noSlot when the cell
// empties and leaves the table). An absent key removes nothing.
func (oa *ownerAtom) remove(s *ruleStore, node netgraph.NodeID, k prioKey) (wasTop bool, next int32) {
	ci, ok := oa.findCell(node)
	if !ok {
		return false, noSlot
	}
	c := &oa.vals()[ci]
	if *c >= 0 {
		if cmpPrioKey(s.keyOf(*c), k) != 0 {
			return false, noSlot
		}
		at := oa.base() + ci
		oa.cells = slices.Delete(oa.cells, at, at+1)
		oa.words()[node>>5] &^= 1 << (node & 31)
		return true, noSlot
	}
	start, end := int(oa.start(ci)), int(^*c)
	at := oa.search(s, start, end, k)
	if at >= end || cmpPrioKey(s.keyOf(oa.slab[at]), k) != 0 {
		return false, noSlot
	}
	next = noSlot
	if wasTop = at == end-1; wasTop {
		next = oa.slab[at-1]
	}
	gone := 1
	if end-start == 2 { // the other rule goes inline
		*c, at, gone = oa.slab[2*start+1-at], start, 2
	}
	copy(oa.slab[at:], oa.slab[at+gone:])
	oa.slab = oa.slab[:len(oa.slab)-gone]
	oa.moveEnds(ci, int32(-gone))
	return wasTop, next
}

// get returns the slot stored under (node, k), or noSlot.
func (oa *ownerAtom) get(s *ruleStore, node netgraph.NodeID, k prioKey) int32 {
	ci, ok := oa.findCell(node)
	if !ok {
		return noSlot
	}
	for _, slot := range oa.window(ci) {
		if cmpPrioKey(s.keyOf(slot), k) == 0 {
			return slot
		}
	}
	return noSlot
}

// checkInvariants validates the table's layout: a bitmap within the
// directory with one cell per set bit, windows of two or more rules,
// ascending and exactly covering the slab, priority-sorted, and every slot
// a live rule at the cell's node. Tests only.
func (oa *ownerAtom) checkInvariants(s *ruleStore, g *netgraph.Graph) string {
	if len(oa.cells) > 0 && (oa.cells[0] < 0 || oa.base() > len(oa.cells)) {
		return fmt.Sprintf("owner bitmap of %d words overruns its %d-entry cell directory", oa.cells[0], len(oa.cells))
	}
	vals, marked := oa.vals(), 0
	for _, x := range oa.words() {
		marked += bits.OnesCount32(uint32(x))
	}
	if marked != len(vals) {
		return fmt.Sprintf("owner bitmap marks %d nodes for %d cells", marked, len(vals))
	}
	for i, node := 0, oa.nodeFrom(0); node >= 0; i, node = i+1, oa.nodeFrom(node+1) {
		if c, start := vals[i], oa.start(i); c < 0 && (^c < start+2 || int(^c) > len(oa.slab)) {
			return fmt.Sprintf("owner cell of node %d has slab window [%d:%d) of %d, want ≥ 2 rules", node, start, ^c, len(oa.slab))
		}
		w := oa.window(i)
		for _, slot := range w {
			if slot < 0 || slot >= s.n || s.rec(slot).iv == noSlot {
				return fmt.Sprintf("owner cell of node %d holds released slot %d", node, slot)
			}
			if src := g.Link(s.rec(slot).link).Src; src != node {
				return fmt.Sprintf("owner cell of node %d holds foreign rule %d of node %d", node, s.id(slot), src)
			}
		}
		if !slices.IsSortedFunc(w, func(a, b int32) int { return cmpPrioKey(s.keyOf(a), s.keyOf(b)) }) {
			return "owner cell window not priority-sorted"
		}
	}
	if int(oa.start(len(vals))) != len(oa.slab) {
		return "owner slab length mismatch"
	}
	return ""
}
