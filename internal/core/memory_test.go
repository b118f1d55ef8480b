package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
)

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestMemoryBytesTracksHeap pins the engine's self-accounting to what
// the heap actually holds: on a 100k-rule plane (30 routers, prefixes
// of mixed length, every rule forwarding on a real out-link),
// MemoryBytes must land within ±15% of the live-heap growth the plane
// caused. The estimate used to charge 48 B per 40 B Rule and a flat
// 24 B per id-index entry, which on the 1.89M-rule replay plane
// reported 203 MB against 219.7 MB of heap. It also holds the plane's
// bytes per rule under a ceiling: 296 B when the 24-byte rule record
// (bounds by boundary-tree handle) landed with growth by an eighth
// (305.5 B with the 32-byte record, 359.5 B before that), plus 10 %. No
// two of these rules share a match, so the plane pays the interval
// entries' whole cost and none of their saving: one 12-byte entry and an
// index slot per rule against 4 bytes off each record, ≈ +13 B per rule
// (≈ 309 B since the 20-byte record). Most of this plane's owner cells
// hold one rule, and since such a cell holds it inline the slabs take
// 0.22 MB instead of 2.71 MB: 284 B per rule. Since cells drop their node
// id for a source bitmap at the head of the cell directory, the
// directories take 4.25 MB instead of 4.97 MB: 277 B per rule. Since the
// record is 16 bytes (no id here needs a high-half column) the records take
// 1.61 MB instead of 2.01 MB, and since the owner directory grows by an
// eighth its 159 888 atoms take 8.16 MB of headers instead of 9.05 MB:
// 264 B per rule, and the ceiling is that plus 10 %.
func TestMemoryBytesTracksHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-rule plane")
	}
	const rules = 100_000
	rng := rand.New(rand.NewSource(20170327))
	g := netgraph.New()
	nodes := make([]netgraph.NodeID, 30)
	for i := range nodes {
		nodes[i] = g.AddNode("r" + string(rune('A'+i)))
	}
	out := make([][]netgraph.LinkID, len(nodes))
	for i := range nodes {
		for k := 1; k <= 4; k++ {
			out[i] = append(out[i], g.AddLink(nodes[i], nodes[(i+k*7)%len(nodes)]))
		}
	}
	input := make([]Rule, rules)
	for i := range input {
		bits := 12 + rng.Intn(17) // /12 .. /28
		lo := uint64(rng.Uint32()) &^ (1<<(32-bits) - 1)
		src := rng.Intn(len(nodes))
		input[i] = Rule{ID: RuleID(i), Source: nodes[src], Link: out[src][rng.Intn(4)],
			Match: ipnet.Interval{Lo: lo, Hi: lo + 1<<(32-bits)}, Priority: Priority(bits)}
	}

	before := liveHeap()
	n := NewNetwork(g, Options{})
	var d Delta
	for _, r := range input {
		if err := n.InsertRuleInto(r, &d); err != nil {
			t.Fatal(err)
		}
	}
	grown := float64(liveHeap() - before)
	est := float64(n.MemoryBytes())
	t.Logf("%d rules, %d atoms: heap grew %.1f MB, MemoryBytes %.1f MB (%+.1f%%)",
		n.NumRules(), n.NumAtoms(), grown/1e6, est/1e6, 100*(est/grown-1))
	t.Logf("rows: %+v", n.MemoryRows())
	if est < 0.85*grown || est > 1.15*grown {
		t.Fatalf("MemoryBytes %.0f is outside ±15%% of the measured heap growth %.0f", est, grown)
	}
	const ceiling = 290 // B per rule
	if perRule := est / float64(n.NumRules()); perRule > ceiling {
		t.Fatalf("MemoryBytes is %.1f B per rule, want ≤ %d", perRule, ceiling)
	}
	runtime.KeepAlive(n)
	runtime.KeepAlive(input)
}

// TestRuleRecordIs16Bytes pins the rule record's size — an id's low half,
// an interval entry, a link and a priority, with no padding — and the
// arena page's and the high-half column's: 8 192 B and 2 048 B are exact
// Go size classes.
func TestRuleRecordIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(ruleRec{}); got != 16 {
		t.Fatalf("ruleRec is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof([pageSize]ruleRec{}); got != 8192 {
		t.Fatalf("an arena page is %d bytes, want 8192", got)
	}
	if got := unsafe.Sizeof([pageSize]uint32{}); got != 2048 {
		t.Fatalf("an id column is %d bytes, want 2048", got)
	}
}

// sharedMatchPlane loads the shape the paper's planes have, one match
// compiled into a rule per switch: 16 sources × 400 matches, so every
// owner cell holds one rule. Every id is high plus a sequence number.
func sharedMatchPlane(t *testing.T, high RuleID) *Network {
	const sources, matches = 16, 400
	g := netgraph.New()
	var links []netgraph.LinkID
	for i := 0; i < sources; i++ {
		links = append(links, g.AddLink(g.AddNode(fmt.Sprint("s", i)), g.AddNode(fmt.Sprint("t", i))))
	}
	n := NewNetwork(g, Options{})
	var ops []BatchOp
	for m := 0; m < matches; m++ {
		for i, l := range links {
			ops = append(ops, InsertOp(Rule{ID: high + RuleID(m*sources+i), Source: g.Link(l).Src, Link: l,
				Match: ipnet.Interval{Lo: uint64(m) << 12, Hi: uint64(m+1) << 12}, Priority: 1}))
		}
	}
	var d Delta
	if err := n.ApplyBatch(ops, &d, 1); err != nil {
		t.Fatal(err)
	}
	if msg := n.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	if live := n.store.ivIdx.live; live != matches {
		t.Fatalf("%d interval entries for %d matches", live, matches)
	}
	return n
}

// TestSharedMatchRecords holds sharedMatchPlane's records to ≤ 17 B per
// rule and its 400 interval entries, their free list and index to ≤ 2 B
// per rule. When every id has high bits, each page carries a column and
// the records may take ≤ 21 B per rule, what a 20-byte record took.
func TestSharedMatchRecords(t *testing.T) {
	for _, pass := range []struct {
		high    RuleID
		records float64
	}{{0, 17}, {1 << 40, 21}} {
		n := sharedMatchPlane(t, pass.high)
		rows, rules := n.MemoryRows(), float64(n.NumRules())
		t.Logf("%d rules with ids from %#x: %+v", n.NumRules(), pass.high, rows)
		if perRule := float64(rows.Records) / rules; perRule > pass.records {
			t.Errorf("ids from %#x: Records row is %.2f B per rule, want ≤ %.0f", pass.high, perRule, pass.records)
		}
		if perRule := float64(rows.Intervals) / rules; perRule > 2 {
			t.Errorf("ids from %#x: Intervals row is %.2f B per rule, want ≤ 2", pass.high, perRule)
		}
	}
}

// TestOneRuleCellsInline requires sharedMatchPlane, where every owner cell
// holds one rule, to keep every rule in its cell: the Slabs row is 0 B,
// and the Cells row is at most 4 B per cell, per source-bitmap word and
// per table's word count. Then one more rule on a source's match makes
// that cell a two-rule slab window, and removing it makes the cell inline
// again.
func TestOneRuleCellsInline(t *testing.T) {
	n := sharedMatchPlane(t, 0)
	rows := n.MemoryRows()
	t.Logf("%d rules: %+v", n.NumRules(), rows)
	if rows.Slabs != 0 {
		t.Fatalf("Slabs row is %d B, want 0", rows.Slabs)
	}
	var cells, words, tables int64
	for i := range n.owner {
		if oa := &n.owner[i]; len(oa.cells) > 0 {
			cells, words, tables = cells+int64(len(oa.vals())), words+int64(len(oa.words())), tables+1
		}
	}
	if want := 4 * (cells + words + tables); rows.Cells > want {
		t.Fatalf("Cells row is %d B for %d cells, %d bitmap words and %d word counts, want ≤ %d", rows.Cells, cells, words, tables, want)
	}
	r, _ := n.Rule(0)
	r.ID, r.Priority = 1<<20, 2
	if _, err := n.InsertRule(r); err != nil {
		t.Fatal(err)
	}
	oa := &n.owner[n.AtomOf(0)]
	if len(oa.slab) != 2 {
		t.Fatalf("a two-rule cell left a slab of %d entries", len(oa.slab))
	}
	if _, err := n.RemoveRule(r.ID); err != nil {
		t.Fatal(err)
	}
	if msg := n.CheckInvariants(); msg != "" || len(oa.slab) != 0 {
		t.Fatalf("after the removal the slab holds %d entries (%s)", len(oa.slab), msg)
	}
}

// TestOwnerGrowthByAnEighth inserts k rules one by one, all over one atom
// and spread over 200 sources: after every insert, the atom's slab and
// cell directory each hold at most an eighth of their length, plus 64, as
// spare capacity, and the paged rule arena at most one page. Then rules
// over disjoint matches add atoms, one by one and in batches: after each,
// the owner directory holds at most an eighth of its length, plus 64.
func TestOwnerGrowthByAnEighth(t *testing.T) {
	const k, sources = 5000, 200
	g := netgraph.New()
	nodes := make([]netgraph.NodeID, sources)
	for i := range nodes {
		nodes[i] = g.AddNode(fmt.Sprint("s", i))
	}
	n := NewNetwork(g, Options{})
	var d Delta
	spare := func(what string, i, len, cap int) {
		t.Helper()
		if cap > len+len/8+64 {
			t.Fatalf("after %d inserts the %s holds %d of capacity %d", i+1, what, len, cap)
		}
	}
	for i := 0; i < k; i++ {
		src := nodes[i%sources]
		r := Rule{ID: RuleID(i), Source: src, Link: netgraph.NoLink,
			Match: ipnet.Interval{Lo: 0, Hi: 256}, Priority: Priority(i)}
		if err := n.InsertRuleInto(r, &d); err != nil {
			t.Fatal(err)
		}
		oa := &n.owner[n.AtomOf(0)]
		spare("slab", i, len(oa.slab), cap(oa.slab))
		spare("cell directory", i, len(oa.cells), cap(oa.cells))
		if arena := len(n.store.pages) * pageSize; arena > int(n.store.n)+pageSize {
			t.Fatalf("after %d inserts the rule arena holds %d of capacity %d", i+1, n.store.n, arena)
		}
	}
	for i := k; i < 2*k; i += 8 {
		var ops []BatchOp
		for j := i; j < i+8; j++ {
			lo := uint64(j) << 8
			ops = append(ops, InsertOp(Rule{ID: RuleID(j), Source: nodes[j%sources], Link: netgraph.NoLink,
				Match: ipnet.Interval{Lo: lo, Hi: lo + 128}, Priority: 1}))
		}
		if i%16 == 0 {
			for j, op := range ops {
				if err := n.InsertRuleInto(op.Rule, &d); err != nil {
					t.Fatal(err)
				}
				spare("owner directory", i+j, len(n.owner), cap(n.owner))
			}
		} else if err := n.ApplyBatch(ops, &d, 1); err != nil {
			t.Fatal(err)
		}
		spare("owner directory", i+7, len(n.owner), cap(n.owner))
	}
}
