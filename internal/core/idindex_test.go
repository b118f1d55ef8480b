package core

// Differential tests for the rule store's open-addressed id → slot table:
// streams of inserts, removals and batches driven against a map oracle,
// checking every id of the pool — live and dead — after every operation.

import (
	"cmp"
	"errors"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"deltanet/internal/intervalmap"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
)

// idDriver drives a Network through the id table's operation alphabet and
// holds a map[RuleID]Rule oracle of what must be live.
type idDriver struct {
	t      testing.TB
	n      *Network
	links  []netgraph.LinkID
	ids    []RuleID
	oracle map[RuleID]Rule
	d      Delta
}

func newIDDriver(t testing.TB, ids []RuleID) *idDriver {
	g := netgraph.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	links := []netgraph.LinkID{g.AddLink(a, b), g.AddLink(b, c), g.AddLink(c, a), g.AddLink(a, c)}
	return &idDriver{t: t, n: NewNetwork(g, Options{GC: true}), links: links, ids: ids, oracle: map[RuleID]Rule{}}
}

// rule returns a rule for id whose shape (link, interval, priority) x
// picks. Its match comes from a pool of 32 overlapping intervals, so rules
// share interval entries and an entry's refcount often crosses zero.
func (dr *idDriver) rule(id RuleID, x byte) Rule {
	l := dr.links[int(x/32)%len(dr.links)]
	lo := uint64(x%32) * 64
	return Rule{ID: id, Source: dr.n.graph.Link(l).Src, Link: l,
		Match: ipnet.Interval{Lo: lo, Hi: lo + 64 + uint64(x%32%7)*32}, Priority: Priority(x / 8 % 5)}
}

// storeImage is a deep copy of the rule store, for byte-identity checks.
type storeImage struct {
	ids, ivIdx   index
	free, ivFree []int32
	recs         []ruleRec
	his          []*[pageSize]uint32
	ivs          []ivRec
}

func imageOf(s *ruleStore) storeImage {
	clone := func(x index) index { x.table = slices.Clone(x.table); return x }
	img := storeImage{ids: clone(s.ids), ivIdx: clone(s.ivIdx), free: slices.Clone(s.free),
		ivFree: slices.Clone(s.ivFree), ivs: slices.Clone(s.ivs)}
	for slot := int32(0); slot < s.n; slot++ {
		img.recs = append(img.recs, *s.rec(slot))
	}
	for _, h := range s.his {
		if h != nil {
			c := *h
			h = &c
		}
		img.his = append(img.his, h)
	}
	return img
}

func (a storeImage) equal(b storeImage) bool {
	same := func(x, y index) bool { return slices.Equal(x.table, y.table) && x.shift == y.shift && x.live == y.live }
	column := func(x, y *[pageSize]uint32) bool { return x == y || x != nil && y != nil && *x == *y }
	return same(a.ids, b.ids) && same(a.ivIdx, b.ivIdx) && slices.Equal(a.free, b.free) &&
		slices.Equal(a.ivFree, b.ivFree) && slices.Equal(a.recs, b.recs) &&
		slices.EqualFunc(a.his, b.his, column) && slices.Equal(a.ivs, b.ivs)
}

// batch applies ops and, on success, folds them into the oracle.
func (dr *idDriver) batch(ops ...BatchOp) {
	if err := dr.n.ApplyBatch(ops, &dr.d, 1); err != nil {
		dr.t.Fatalf("batch %v: %v", ops, err)
	}
	for _, op := range ops {
		if op.Insert {
			dr.oracle[op.Rule.ID] = op.Rule
		} else {
			delete(dr.oracle, op.Rule.ID)
		}
	}
}

// step applies one operation: code picks the kind, k the id, x the shape.
func (dr *idDriver) step(code, k, x byte) {
	id := dr.ids[int(k)%len(dr.ids)]
	_, live := dr.oracle[id]
	r := dr.rule(id, x)
	switch code % 6 {
	case 0:
		err := dr.n.InsertRuleInto(r, &dr.d)
		if live != errors.Is(err, ErrDuplicateRule) || (!live && err != nil) {
			dr.t.Fatalf("insert %d (live %v): %v", id, live, err)
		}
		if !live {
			dr.oracle[id] = r
		}
	case 1:
		err := dr.n.RemoveRuleInto(id, &dr.d)
		if live != (err == nil) {
			dr.t.Fatalf("remove %d (live %v): %v", id, live, err)
		}
		delete(dr.oracle, id)
	case 2:
		// A live id is removed and re-inserted in one batch: the new slot is
		// allocated before the old one is released, so the entry must be
		// repointed, not duplicated or dropped. A dead id is inserted and
		// removed again, netting to nothing.
		if live {
			dr.batch(RemoveOp(id), InsertOp(r))
		} else {
			dr.batch(InsertOp(r), RemoveOp(id))
		}
	case 3:
		if live {
			dr.batch(RemoveOp(id))
		} else {
			dr.batch(InsertOp(r))
		}
	case 4:
		// A refused batch leaves the store byte-identical.
		ops := []BatchOp{InsertOp(r), InsertOp(r)}
		if live {
			ops = []BatchOp{RemoveOp(id), RemoveOp(id)}
		}
		before := imageOf(&dr.n.store)
		if err := dr.n.ApplyBatch(ops, &dr.d, 1); err == nil {
			dr.t.Fatalf("batch %v on id %d (live %v) was not refused", ops, id, live)
		}
		if !imageOf(&dr.n.store).equal(before) {
			dr.t.Fatalf("refused batch %v changed the rule store", ops)
		}
	case 5:
		// A live rule hands its match to a dead id in one batch, removal
		// first or insertion first. When it was the match's last holder,
		// the entry must survive the batch with one reference.
		b := dr.ids[(int(k)+1)%len(dr.ids)]
		if _, bLive := dr.oracle[b]; live && !bLive {
			rb := dr.rule(b, x)
			rb.Match = dr.oracle[id].Match
			if x&1 == 0 {
				dr.batch(RemoveOp(id), InsertOp(rb))
			} else {
				dr.batch(InsertOp(rb), RemoveOp(id))
			}
		}
	}
	dr.check()
	dr.finish()
}

// check compares the table against the oracle for every id of the pool.
func (dr *idDriver) check() {
	for _, id := range dr.ids {
		slot, ok := dr.n.store.slotOf(id)
		want, live := dr.oracle[id]
		if ok != live {
			dr.t.Fatalf("slotOf(%d) found=%v, oracle live=%v", id, ok, live)
		}
		if ok && dr.n.ruleAt(slot) != want {
			dr.t.Fatalf("slotOf(%d) = %d holding %v, want %v", id, slot, dr.n.ruleAt(slot), want)
		}
	}
	if got := dr.n.NumRules(); got != len(dr.oracle) {
		dr.t.Fatalf("NumRules %d, oracle %d", got, len(dr.oracle))
	}
}

func (dr *idDriver) finish() {
	if msg := dr.n.CheckInvariants(); msg != "" {
		dr.t.Fatal(msg)
	}
}

// phiInverse is 0x9E3779B97F4A7C15's inverse mod 2⁶⁴ (Newton's iteration;
// each step doubles the correct low bits).
func phiInverse() uint64 {
	const phi = 0x9E3779B97F4A7C15
	x := uint64(phi)
	for i := 0; i < 6; i++ {
		x *= 2 - phi*x
	}
	return x
}

// adversarialIDs is the id pool: the extremes, a sequential run, multiples
// of 2³² (equal modulo every table size a modular hash would use) and ids
// whose hash products differ only in their low 40 bits, so they share a
// home position at every table size up to 2²⁴ and pile into one probe run.
func adversarialIDs() []RuleID {
	ids := []RuleID{0, -1, 1, math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1}
	for i := RuleID(2); i < 40; i++ {
		ids = append(ids, i)
	}
	for k := int64(1); k <= 16; k++ {
		ids = append(ids, RuleID(k<<32), RuleID(-k<<32))
	}
	inv := phiInverse()
	for j := uint64(0); j < 32; j++ {
		ids = append(ids, RuleID((0xABCD<<40+j*977)*inv))
	}
	return ids
}

// TestIDIndexDifferential drives seeded random operation streams over the
// adversarial id pool.
func TestIDIndexDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dr := newIDDriver(t, adversarialIDs())
		for i := 0; i < 3000; i++ {
			dr.step(byte(rng.Intn(6)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		dr.finish()
	}
}

// TestIDIndexGrowthBoundaries inserts ids one by one across every growth
// boundary up to 1024 entries — sequential ids and ids sharing one home
// position — checking the table size after each insert, then removes them
// in random order: the table never shrinks and never rehashes.
func TestIDIndexGrowthBoundaries(t *testing.T) {
	inv := phiInverse()
	for _, pool := range []struct {
		name string
		id   func(i int) RuleID
	}{
		{"sequential", func(i int) RuleID { return RuleID(i) }},
		{"colliding", func(i int) RuleID { return RuleID((0x1234<<40 + uint64(i)) * inv) }},
	} {
		t.Run(pool.name, func(t *testing.T) {
			const count = 1000
			ids := make([]RuleID, count)
			for i := range ids {
				ids[i] = pool.id(i)
			}
			if pool.name == "colliding" {
				for _, id := range ids {
					if x := newIndex(); x.home(uint64(id)) != x.home(uint64(ids[0])) {
						t.Fatalf("id %d does not share id %d's home position", id, ids[0])
					}
				}
			}
			dr := newIDDriver(t, ids)
			for i := range ids {
				r := dr.rule(ids[i], byte(i))
				if err := dr.n.InsertRuleInto(r, &dr.d); err != nil {
					t.Fatal(err)
				}
				dr.oracle[ids[i]] = r
				dr.check()
				want := 16
				for len(dr.oracle)*8 > want*7 {
					want *= 2
				}
				if got := len(dr.n.store.ids.table); got != want {
					t.Fatalf("%d entries: table %d slots, want %d", len(dr.oracle), got, want)
				}
			}
			size := len(dr.n.store.ids.table)
			for _, i := range rand.New(rand.NewSource(7)).Perm(count) {
				if err := dr.n.RemoveRuleInto(ids[i], &dr.d); err != nil {
					t.Fatal(err)
				}
				delete(dr.oracle, ids[i])
				dr.check()
				if len(dr.n.store.ids.table) != size {
					t.Fatalf("table resized on removal: %d → %d", size, len(dr.n.store.ids.table))
				}
			}
			dr.finish()
		})
	}
}

// TestIDIndexRecycledTreeSlot kills bounds in a batch and recycles their
// boundary-tree slots for different keys while neighbouring rules live
// (the driver's engine runs with atom GC). Rule 3 alone uses 150 and 250;
// removing it frees both keys' tree slots, and rule 4's new bounds 120 and
// 220 take them over. Rules 1 and 2, whose bounds 100, 200 and 300 sit
// beside the recycled slots, must keep reading their own bounds back, and
// so must every rule after a batch that kills rule 4's bounds while it
// re-creates rule 3's.
func TestIDIndexRecycledTreeSlot(t *testing.T) {
	dr := newIDDriver(t, []RuleID{1, 2, 3, 4})
	l := dr.links[0]
	rule := func(id RuleID, lo, hi uint64) Rule {
		return Rule{ID: id, Source: dr.n.graph.Link(l).Src, Link: l,
			Match: ipnet.Interval{Lo: lo, Hi: hi}, Priority: Priority(id)}
	}
	dr.batch(InsertOp(rule(1, 100, 200)), InsertOp(rule(2, 200, 300)), InsertOp(rule(3, 150, 250)))
	dr.check()
	bounds := func(id RuleID) []intervalmap.Bound {
		slot, _ := dr.n.store.slotOf(id)
		iv := dr.n.store.ivs[dr.n.store.rec(slot).iv]
		return []intervalmap.Bound{iv.lo, iv.hi}
	}
	freed := bounds(3)

	dr.batch(RemoveOp(3))
	dr.check()
	dr.finish()
	dr.batch(InsertOp(rule(4, 120, 220)))
	dr.check()
	dr.finish()
	got := bounds(4)
	slices.Sort(freed)
	slices.Sort(got)
	if !slices.Equal(got, freed) {
		t.Fatalf("rule 4's bounds took tree slots %v, want the freed %v", got, freed)
	}

	dr.batch(RemoveOp(4), InsertOp(rule(3, 150, 250)))
	dr.check()
	dr.finish()
	for _, b := range []uint64{120, 220} {
		if dr.n.m.HasBound(b) {
			t.Fatalf("bound %d survived the batch that killed it", b)
		}
	}
}

// FuzzRuleStore runs the differential driver over fuzzer-chosen operation
// streams: each three bytes are one (kind, id, shape) step.
func FuzzRuleStore(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 2, 0, 2, 4, 0, 3, 1, 1, 0})
	f.Add([]byte{0, 80, 1, 0, 81, 2, 0, 82, 3, 1, 80, 0, 2, 81, 9, 4, 82, 0})
	f.Add([]byte{3, 3, 3, 2, 3, 4, 4, 3, 5, 1, 3, 0})
	// Two rules share a match and one leaves; a rule hands its match on,
	// removal first, then insertion first.
	f.Add([]byte{0, 0, 5, 0, 1, 37, 1, 0, 0, 0, 3, 7, 5, 3, 0, 5, 4, 1})
	// A wide id frees its slot and a narrow one takes it: math.MinInt64,
	// then math.MaxInt64 between two narrow ids, each freed by a removal.
	f.Add([]byte{0, 3, 9, 1, 3, 0, 0, 7, 9, 0, 9, 40, 0, 5, 41, 1, 5, 0, 0, 8, 41, 1, 7, 0, 0, 10, 9})
	// The same through batches: -1 hands its match to 1 (insertion
	// first, so 1 takes a fresh slot), a batch inserts 2 into -1's freed
	// slot, and 2<<32 is removed and re-inserted in one batch before 3
	// takes the slot its old copy left.
	f.Add([]byte{0, 1, 13, 5, 1, 13, 3, 7, 0, 0, 47, 20, 2, 47, 20, 0, 8, 21, 4, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		dr := newIDDriver(t, adversarialIDs())
		for i := 0; i+2 < len(data) && i < 3*512; i += 3 {
			dr.step(data[i], data[i+1], data[i+2])
		}
		dr.finish()
	})
}

// TestWideIDColumn loads more than two pages of narrow ids, then ids that
// need their high half — past 2³², negative and both extremes — which all
// land in the third page, so that page alone gets a column. The wide rules
// are then removed and narrow ids re-inserted into their freed slots. Each
// wide or re-inserted rule shares its match, source and priority with a
// narrow rule on another link, so the higher id must own the match's atom,
// and several wide ids' low halves alone would order them the other way.
// After every step Rule, Snapshot and RemoveRule of an absent id must
// agree with the oracle.
func TestWideIDColumn(t *testing.T) {
	const narrow = 2*pageSize + 100
	wide := []RuleID{1 << 32, 1<<32 | 5, -1, -6, -1 << 40, math.MinInt64, math.MaxInt64, 7<<32 | 9}
	var renarrow, pool []RuleID
	for i := range RuleID(narrow) {
		pool = append(pool, i)
	}
	for j := range wide {
		renarrow = append(renarrow, RuleID(narrow+j))
	}
	pool = append(append(pool, wide...), renarrow...)
	dr := newIDDriver(t, pool)
	own, rival := dr.links[0], dr.links[3] // both leave node a
	src := dr.n.graph.Link(own).Src
	match := func(i int) ipnet.Interval { return ipnet.Interval{Lo: uint64(i) * 64, Hi: uint64(i)*64 + 64} }
	rule := func(id RuleID, link netgraph.LinkID, i int) Rule {
		return Rule{ID: id, Source: src, Link: link, Match: match(i), Priority: 1}
	}
	insert := func(r Rule) int32 {
		t.Helper()
		if err := dr.n.InsertRuleInto(r, &dr.d); err != nil {
			t.Fatal(err)
		}
		dr.oracle[r.ID] = r
		slot, _ := dr.n.store.slotOf(r.ID)
		return slot
	}
	columns := func() (pages []int) {
		for p, h := range dr.n.store.his {
			if h != nil {
				pages = append(pages, p)
			}
		}
		return pages
	}
	verify := func(step string, wantColumns []int) {
		t.Helper()
		dr.check()
		dr.finish()
		for _, id := range pool {
			got, ok := dr.n.Rule(id)
			if want, live := dr.oracle[id]; ok != live || got != want {
				t.Fatalf("%s: Rule(%d) = %v, %v; want %v, %v", step, id, got, ok, want, live)
			}
			if _, live := dr.oracle[id]; !live && !errors.Is(dr.n.RemoveRuleInto(id, &dr.d), ErrUnknownRule) {
				t.Fatalf("%s: RemoveRule(%d) of an absent id was not refused", step, id)
			}
		}
		want := slices.Collect(maps.Values(dr.oracle))
		slices.SortFunc(want, func(a, b Rule) int { return cmp.Compare(a.ID, b.ID) })
		if got := dr.n.Snapshot(); !slices.Equal(got, want) {
			t.Fatalf("%s: Snapshot holds %d rules, differing from the oracle's %d", step, len(got), len(want))
		}
		// Narrow rule j+1 ties with wide[j] or renarrow[j]: the higher
		// live id owns the match's atom.
		for j := range wide {
			owner, link := RuleID(j+1), own
			for _, id := range []RuleID{wide[j], renarrow[j]} {
				if _, live := dr.oracle[id]; live && id > owner {
					owner, link = id, rival
				}
			}
			if got := dr.n.ForwardLink(src, dr.n.AtomOf(match(j+1).Lo)); got != link {
				t.Fatalf("%s: match %d forwards on link %d, want %d (rule %d's)", step, j+1, got, link, owner)
			}
		}
		if got := columns(); !slices.Equal(got, wantColumns) {
			t.Fatalf("%s: pages %v have id columns, want %v", step, got, wantColumns)
		}
	}

	for i := range narrow {
		insert(rule(RuleID(i), own, i))
	}
	verify("narrow ids", nil)
	var freed []int32
	for j, id := range wide {
		slot := insert(rule(id, rival, j+1))
		if slot/pageSize != 2 {
			t.Fatalf("wide id %d took slot %d, outside page 2", id, slot)
		}
		freed = append(freed, slot)
	}
	verify("wide ids", []int{2})
	for _, id := range wide {
		if err := dr.n.RemoveRuleInto(id, &dr.d); err != nil {
			t.Fatal(err)
		}
		delete(dr.oracle, id)
	}
	verify("wide ids removed", []int{2})
	var reused []int32
	for j, id := range renarrow {
		reused = append(reused, insert(rule(id, rival, j+1)))
	}
	slices.Sort(freed)
	slices.Sort(reused)
	if !slices.Equal(freed, reused) {
		t.Fatalf("narrow ids took slots %v, want the wide ids' freed %v", reused, freed)
	}
	verify("narrow ids in wide ids' slots", []int{2})
}
