package core

// Differential tests for one atom's owner table: insert, remove, the
// split copy and batch replay driven against a reference of each node's
// rule slots in priority order, checking the canonical form (a one-rule
// cell is inline, a slab window holds two or more) after every operation.

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"deltanet/internal/netgraph"
)

// ownerNodes is the number of sources the driver's atom has cells for:
// enough for a first, a middle and a last cell. ownerSources are their
// node ids in ownerGraph's 192 nodes, placed so that the source bitmap's
// 32-bit words hold two cells (0 and 31), one (32, 95, 191) or none
// (words 3 and 4), and cells sit on both sides of a word boundary.
const ownerNodes = 5

var ownerSources = [ownerNodes]netgraph.NodeID{0, 31, 32, 95, 191}

// ownerGraph is the driver's topology, built once: two links out of each
// source, to the next two sources. Networks only read it.
var ownerGraph = sync.OnceValues(func() (*netgraph.Graph, [ownerNodes][2]netgraph.LinkID) {
	g := netgraph.New()
	for i := range ownerSources[ownerNodes-1] + 1 {
		g.AddNode(fmt.Sprint("n", i))
	}
	var links [ownerNodes][2]netgraph.LinkID
	for i, v := range ownerSources {
		links[i] = [2]netgraph.LinkID{g.AddLink(v, ownerSources[(i+1)%ownerNodes]), g.AddLink(v, ownerSources[(i+2)%ownerNodes])}
	}
	return g, links
})

// ownerDriver drives the owner table n.owner[0]; n.owner[1] is the target
// of split copies, and the two swap after each copy so that the driver
// goes on with the copy.
type ownerDriver struct {
	t     testing.TB
	n     *Network
	links [ownerNodes][2]netgraph.LinkID
	ref   [ownerNodes][]int32 // each source's slots in key order
	next  RuleID
	// hit has a bit per transition seen: path*12 + kind*3 + position,
	// path 0 for insert/remove and 1 for a batch rewrite, kind 0→1, 1→2,
	// 2→1 or 1→0 rules in a cell, position first, middle or last cell.
	hit uint32
}

func newOwnerDriver(t testing.TB) *ownerDriver {
	g, links := ownerGraph()
	dr := &ownerDriver{t: t, links: links, n: NewNetwork(g, Options{})}
	dr.n.ownerAt(1)
	return dr
}

// newRule allocates a record for a fresh rule whose source (by index into
// ownerSources), link and priority x picks.
func (dr *ownerDriver) newRule(x byte) (int, int32) {
	i := int(x % ownerNodes)
	dr.next++
	return i, dr.n.store.alloc(&Rule{ID: dr.next, Link: dr.links[i][x/ownerNodes%2], Priority: Priority(x / 10 % 4)}, 0)
}

func (dr *ownerDriver) rule(slot int32) Rule {
	rec := dr.n.store.rec(slot)
	return Rule{ID: dr.n.store.id(slot), Source: dr.n.graph.Link(rec.link).Src, Link: rec.link, Priority: rec.prio}
}

func (dr *ownerDriver) key(slot int32) prioKey { return dr.n.store.keyOf(slot) }

func (dr *ownerDriver) refInsert(i int, slot int32) {
	w := dr.ref[i]
	at, _ := slices.BinarySearchFunc(w, slot, func(a, b int32) int { return cmpPrioKey(dr.key(a), dr.key(b)) })
	dr.ref[i] = slices.Insert(w, at, slot)
}

func (dr *ownerDriver) top(i int) int32 {
	if w := dr.ref[i]; len(w) > 0 {
		return w[len(w)-1]
	}
	return noSlot
}

func (dr *ownerDriver) counts() (c [ownerNodes]int) {
	for v, w := range dr.ref {
		c[v] = len(w)
	}
	return c
}

// note records the transitions between rule counts before and after.
func (dr *ownerDriver) note(path int, before, after [ownerNodes]int) {
	position := func(c [ownerNodes]int, v int) int {
		cells, at := 0, 0
		for u, k := range c {
			if k > 0 {
				if u < v {
					at++
				}
				cells++
			}
		}
		switch {
		case cells < 2:
			return -1
		case at == 0:
			return 0
		case at == cells-1:
			return 2
		}
		return 1
	}
	for v := range before {
		kind, in := -1, after
		switch [2]int{before[v], after[v]} {
		case [2]int{0, 1}:
			kind = 0
		case [2]int{1, 2}:
			kind = 1
		case [2]int{2, 1}:
			kind = 2
		case [2]int{1, 0}:
			kind, in = 3, before
		}
		if p := position(in, v); kind >= 0 && p >= 0 {
			dr.hit |= 1 << (path*12 + kind*3 + p)
		}
	}
}

func (dr *ownerDriver) insert(x byte) {
	before := dr.counts()
	i, slot := dr.newRule(x)
	want, v := dr.top(i), ownerSources[i]
	if prev := dr.n.owner[0].insert(&dr.n.store, v, slot, dr.key(slot)); prev != want {
		dr.t.Fatalf("insert at node %d: previous top %d, want %d", v, prev, want)
	}
	dr.refInsert(i, slot)
	dr.note(0, before, dr.counts())
}

func (dr *ownerDriver) remove(x byte) {
	oa := &dr.n.owner[0]
	src := int(x % ownerNodes)
	v := ownerSources[src]
	if wasTop, next := oa.remove(&dr.n.store, v, prioKey{prio: 1}); wasTop || next != noSlot {
		dr.t.Fatalf("removing an absent key at node %d: wasTop %v next %d", v, wasTop, next)
	}
	w := dr.ref[src]
	if len(w) == 0 {
		return
	}
	before := dr.counts()
	i := int(x/ownerNodes) % len(w)
	slot := w[i]
	wantNext := noSlot
	if i == len(w)-1 && i > 0 {
		wantNext = w[i-1]
	}
	if wasTop, next := oa.remove(&dr.n.store, v, dr.key(slot)); wasTop != (i == len(w)-1) || next != wantNext {
		dr.t.Fatalf("remove at node %d entry %d of %d: wasTop %v next %d, want next %d", v, i, len(w), wasTop, next, wantNext)
	}
	dr.ref[src] = slices.Delete(w, i, i+1)
	dr.n.store.releaseSlot(slot)
	dr.note(0, before, dr.counts())
}

// clone copies the table and goes on with the copy.
func (dr *ownerDriver) clone() {
	src, dst := &dr.n.owner[0], &dr.n.owner[1]
	dst.cloneFrom(src)
	if !slices.Equal(dst.cells, src.cells) || !slices.Equal(dst.slab, src.slab) {
		dr.t.Fatalf("cloneFrom: cells %v slab %v, want %v %v", dst.cells, dst.slab, src.cells, src.slab)
	}
	dr.n.owner[0], dr.n.owner[1] = dr.n.owner[1], dr.n.owner[0]
}

// batch replays one batch of ops over the atom: a byte with its low bit
// set removes a live rule (one the batch inserted, too) at the node the
// rest picks, any other inserts a fresh rule.
func (dr *ownerDriver) batch(ops []byte) {
	before, tops := dr.counts(), [ownerNodes]int32{}
	for i := range tops {
		tops[i] = dr.top(i)
	}
	var items []batchItem
	var released []int32
	for _, b := range ops {
		if src := int(b >> 1 % ownerNodes); b&1 == 1 && len(dr.ref[src]) > 0 {
			i := int(b>>1/ownerNodes) % len(dr.ref[src])
			slot := dr.ref[src][i]
			items = append(items, batchItem{slot: slot, ref: -1, rule: dr.rule(slot)})
			dr.ref[src] = slices.Delete(dr.ref[src], i, i+1)
			released = append(released, slot)
			continue
		}
		src, slot := dr.newRule(b >> 1)
		items = append(items, batchItem{insert: true, slot: slot, ref: -1, rule: dr.rule(slot)})
		dr.refInsert(src, slot)
	}
	pairs := make([]atomOp, len(items))
	for i := range pairs {
		pairs[i] = atomOp{atom: 0, item: int32(i)}
	}
	pairs, _ = groupPairs(pairs, nil, items)
	var d Delta
	dr.n.replayAtom(0, items, pairs, &d)
	var added, removed, wantAdded, wantRemoved []netgraph.LinkID
	for _, la := range d.Added {
		added = append(added, la.Link)
	}
	for _, la := range d.Removed {
		removed = append(removed, la.Link)
	}
	for i, prev := range tops {
		if pl, al := dr.n.linkOf(prev), dr.n.linkOf(dr.top(i)); pl != al {
			if pl != netgraph.NoLink {
				wantRemoved = append(wantRemoved, pl)
			}
			if al != netgraph.NoLink {
				wantAdded = append(wantAdded, al)
			}
		}
	}
	slices.Sort(added)
	slices.Sort(removed)
	if !slices.Equal(added, wantAdded) || !slices.Equal(removed, wantRemoved) {
		dr.t.Fatalf("batch %v: added %v removed %v, want %v %v", ops, added, removed, wantAdded, wantRemoved)
	}
	for _, slot := range released {
		dr.n.store.releaseSlot(slot)
	}
	path := 1
	if len(ops) == 1 {
		path = 0 // replayAtom edits a one-op run in place
	}
	dr.note(path, before, dr.counts())
}

// check compares the table with the reference: each source's cell by its
// rank among the sources with rules, and no cell beyond those.
func (dr *ownerDriver) check() {
	oa := &dr.n.owner[0]
	if msg := oa.checkInvariants(&dr.n.store, dr.n.graph); msg != "" {
		dr.t.Fatal(msg)
	}
	ci := 0
	for i, w := range dr.ref {
		node := ownerSources[i]
		if len(w) == 0 {
			if oa.top(node) != noSlot {
				dr.t.Fatalf("node %d has no rules but a top", node)
			}
			continue
		}
		if at, ok := oa.findCell(node); !ok || at != ci || !slices.Equal(oa.window(ci), w) {
			dr.t.Fatalf("node %d: cell %d (%v), want %d; directory %v slab %v, want window %v", node, at, ok, ci, oa.cells, oa.slab, w)
		}
		if oa.top(node) != w[len(w)-1] {
			dr.t.Fatalf("node %d: top %d, want %d", node, oa.top(node), w[len(w)-1])
		}
		for _, slot := range w {
			if got := oa.get(&dr.n.store, node, dr.key(slot)); got != slot {
				dr.t.Fatalf("node %d: get finds slot %d, want %d", node, got, slot)
			}
		}
		ci++
	}
	if ci != len(oa.vals()) {
		dr.t.Fatalf("%d cells for %d nodes with rules", len(oa.vals()), ci)
	}
}

// runOwnerDriver applies data two bytes per operation — insert, remove,
// split copy or a batch of 1–6 ops read from the bytes that follow — and
// returns the transitions it saw.
func runOwnerDriver(t testing.TB, data []byte) uint32 {
	dr := newOwnerDriver(t)
	for len(data) >= 2 {
		op, x := data[0], data[1]
		data = data[2:]
		switch op % 4 {
		case 0:
			dr.insert(x)
		case 1:
			dr.remove(x)
		case 2:
			dr.clone()
		case 3:
			m := min(1+int(x)%6, len(data))
			if m == 0 {
				return dr.hit
			}
			dr.batch(data[:m])
			data = data[m:]
		}
		dr.check()
	}
	return dr.hit
}

// FuzzOwnerAtom runs the owner-table driver over fuzzer-chosen operation
// streams.
func FuzzOwnerAtom(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			return
		}
		runOwnerDriver(t, data)
	})
}

// TestOwnerAtomSeedsCoverTransitions requires FuzzOwnerAtom's committed
// seed corpus (found by a seeded random search, then pruned) to take a
// first, a middle and a last cell through 0 → 1 → 2 → 1 → 0 rules, both
// by insert and remove and by batch rewrite.
func TestOwnerAtomSeedsCoverTransitions(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzOwnerAtom/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no seed corpus: %v", err)
	}
	var hit uint32
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(b)), "go test fuzz v1\n[]byte(")
		seed, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a []byte corpus entry", name)
		}
		hit |= runOwnerDriver(t, []byte(seed))
	}
	if hit != 1<<24-1 {
		t.Fatalf("seeds cover transitions %024b, want all 24", hit)
	}
}
