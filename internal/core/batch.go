package core

// Batch updates: applying many rule insertions and removals as one atomic
// step. The paper observes (§6) that "the main loops over atoms in
// Algorithm 1 and 2 are highly parallelizable"; a batch makes that
// parallelism available on the update path itself. The batch is staged so
// that the only serial work is what must be serial:
//
//  1. validate every operation up front (all-or-nothing semantics);
//  2. take each insertion's interval entry, creating the atoms of a match
//     no live rule has (CREATE_ATOMS+, |Δ| ≤ 2) and cloning owner state
//     for split atoms — serial, since splits mutate the shared boundary
//     map M — then allocate the insertion's arena slot, whose record
//     names the entry;
//  3. expand each run of operations naming one interval entry to
//     ⟦interval(r)⟧ once over the final partition, and group the
//     incidences by atom, then source, in a linear radix pass;
//  4. replay each atom's operations on a worker pool (atoms are
//     independent, so no locking): in place for an atom one op touches,
//     else one merge of its cells; emit the net change per (source, atom);
//  5. apply the net label-bit changes and rule/GC bookkeeping serially.
//
// The resulting Delta is compacted: it records the net difference between
// the labels before and after the whole batch, so a bit that an early
// operation sets and a later operation clears does not appear at all, and
// one incremental loop/black-hole check over the merged delta replaces one
// check per rule. A batch is one atomic update; transient states between
// its operations are not observable and not checked.

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"deltanet/internal/intervalmap"
	"deltanet/internal/netgraph"
)

// BatchOp is one element of a batch: a rule insertion (Insert true, Rule
// fully populated) or a removal (Insert false, only Rule.ID consulted).
// It is the one operation type: traces, feeds, wire frames and journal
// records all carry it.
type BatchOp struct {
	Insert bool
	Rule   Rule
}

// InsertOp returns a BatchOp inserting r.
func InsertOp(r Rule) BatchOp { return BatchOp{Insert: true, Rule: r} }

// RemoveOp returns a BatchOp removing the rule with the given id.
func RemoveOp(id RuleID) BatchOp { return BatchOp{Rule: Rule{ID: id}} }

// batchItem is a validated operation: rule is fully resolved by value
// (for removals it is a copy of the rule being removed, so Match is
// authoritative even after the rule's arena slot is recycled). slot is
// the rule-store slot — assigned after validation for inserts, and for
// removals of rules inserted earlier in the same batch, resolved via ref
// (the index of that insert item) once its slot exists.
type batchItem struct {
	insert bool
	slot   int32
	ref    int32 // insert-item index a removal refers to, or -1
	rule   Rule
}

// ApplyBatch applies ops in order as one atomic update, writing the net
// delta-graph of the whole batch into d. Validation runs before any engine
// state changes: on error the engine and its graph are untouched (a drop
// link an insertion naming NoLink needs is created only once the whole
// batch has validated — a refused batch that grew the graph would leave
// a journaling server's link numbering ahead of its replicas') and d is
// reset but empty.
//
// The per-atom ownership work is deduplicated across the batch — k
// operations covering one atom become a single replay of that atom's owner
// BSTs — and fanned out over a worker pool (workers ≤ 0 selects
// GOMAXPROCS). The produced Delta has Op == OpBatch and compacted
// Added/Removed lists: only bits whose final value differs from their
// pre-batch value appear, atom by atom, so downstream incremental checks
// run once over the net change.
//
// With GC enabled, boundary collection is deferred to the end of the
// batch; the final forwarding behaviour matches the sequential execution,
// though atom identifiers may be assigned differently when a batch both
// removes and re-adds a boundary.
func (n *Network) ApplyBatch(ops []BatchOp, d *Delta, workers int) error {
	d.reset(0, OpBatch)
	if len(ops) == 0 {
		return nil
	}

	items, err := n.validateBatch(ops)
	if err != nil {
		return err
	}

	// Phase 2: take every insertion's interval entry, creating the atoms of
	// each new match (serial; splits mutate M) and cloning owner state for
	// split atoms exactly as Algorithm 1 does, then allocate its arena
	// slot. All allocations and references precede all releases (which
	// happen in phase 5), so no slot or entry is recycled mid-batch, and the
	// rule arena is read-only while phase 4's workers run. Removals of rules
	// inserted earlier in this batch pick up the slot their insert item
	// received.
	for i := range items {
		if it := &items[i]; it.insert {
			if it.rule.Link == netgraph.NoLink {
				it.rule.Link = n.graph.DropLink(it.rule.Source)
			}
			it.slot = n.store.alloc(&it.rule, n.record(&it.rule, d))
		}
	}
	for i := range items {
		if !items[i].insert && items[i].ref >= 0 {
			items[i].slot = items[items[i].ref].slot
		}
	}

	// Phase 3: expand every operation over the final partition from its
	// interval entry's bound handles, once per run of operations naming one
	// entry (a plane's rules for one prefix arrive together), and group the
	// incidences by (atom, source) into retained scratch.
	n.batchPairs = n.batchPairs[:0]
	maxAtom := intervalmap.AtomID(0)
	expanded := noSlot
	for i, it := range items {
		if e := n.store.rec(it.slot).iv; e != expanded {
			n.atomBuf, expanded = n.atomsOf(e), e
		}
		for _, alpha := range n.atomBuf {
			n.batchPairs = append(n.batchPairs, atomOp{atom: alpha, item: int32(i)})
			maxAtom = max(maxAtom, alpha)
		}
	}
	// Pre-grow the owner slice so workers only ever write their own
	// element and never resize shared state.
	for int(maxAtom) >= len(n.owner) {
		n.owner = appendGrow(n.owner, ownerAtom{})
	}
	if len(items) > 1 { // one op's incidences name distinct atoms and one source
		n.batchPairs, n.pairsTmp = groupPairs(n.batchPairs, n.pairsTmp, items)
	}
	pairs := n.batchPairs
	n.batchRuns = n.batchRuns[:0]
	for i := range pairs {
		if i == 0 || pairs[i].atom != pairs[i-1].atom {
			n.batchRuns = append(n.batchRuns, int32(i))
		}
	}
	n.batchRuns = append(n.batchRuns, int32(len(pairs)))
	numAtoms := len(n.batchRuns) - 1

	// Phase 4: replay each atom's operations in parallel. Jobs write only
	// owner[α] for their own α and emit net label changes into their own
	// result slot, so the pool needs no locks. Result slots are retained
	// across batches and reset by truncation.
	for len(n.batchResults) < numAtoms {
		n.batchResults = append(n.batchResults, atomResult{})
	}
	results := n.batchResults[:numAtoms]
	for i := range results {
		results[i].added = results[i].added[:0]
		results[i].removed = results[i].removed[:0]
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > numAtoms {
		workers = numAtoms
	}
	if workers <= 1 {
		for i := 0; i < numAtoms; i++ {
			run := pairs[n.batchRuns[i]:n.batchRuns[i+1]]
			n.replayAtom(run[0].atom, items, run, &results[i], &n.replayTmp)
		}
	} else {
		var wg sync.WaitGroup
		var cursor atomic.Int64
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				var rs replayScratch
				for {
					i := int(cursor.Add(1)) - 1
					if i >= numAtoms {
						return
					}
					run := pairs[n.batchRuns[i]:n.batchRuns[i+1]]
					n.replayAtom(run[0].atom, items, run, &results[i], &rs)
				}
			}()
		}
		wg.Wait()
	}

	// Phase 5: apply the net label-bit changes (serial, deterministic: in
	// phase 3's order) and per-rule bookkeeping in operation order.
	for i := range results {
		for _, la := range results[i].removed {
			n.labelOf(la.Link).Remove(int(la.Atom))
			d.Removed = append(d.Removed, la)
		}
		for _, la := range results[i].added {
			n.labelOf(la.Link).Add(int(la.Atom))
			d.Added = append(d.Added, la)
		}
	}
	// Removals release their slots and interval references in operation
	// order. Collection (deleting a bound from M and merging atoms) stays
	// deferred to this point: a removal may drop the last reference to a
	// match that a later insertion in the same batch re-uses, and
	// collecting before phase 2 took that insertion's reference would
	// merge away atoms its owner state was laid over. No reference is
	// taken from here on, so a bound no entry names stays dead, and
	// collecting it as it dies releases bounds in the order they died.
	for _, it := range items {
		if !it.insert {
			n.release(it.slot)
		}
	}
	return nil
}

// validateBatch checks every operation against the engine state plus the
// batch's own earlier operations, resolving removals to their live
// rules. It mutates nothing: insertions naming NoLink keep it until
// ApplyBatch, past the point of refusal, resolves their drop links.
func (n *Network) validateBatch(ops []BatchOp) ([]batchItem, error) {
	items := n.batchItems[:0]
	defer func() { n.batchItems = items[:0] }() // retain grown capacity
	// pending tracks ids touched by the batch: the item index of the
	// live pending insert, or -1 after an intra-batch removal.
	if n.batchPending == nil {
		n.batchPending = make(map[RuleID]int32, len(ops))
	}
	clear(n.batchPending)
	pending := n.batchPending
	for i, op := range ops {
		if op.Insert {
			r := op.Rule
			idx, touched := pending[r.ID]
			if touched && idx >= 0 {
				return nil, fmt.Errorf("%w: %d (op %d)", ErrDuplicateRule, r.ID, i)
			}
			if !touched {
				if _, dup := n.store.slotOf(r.ID); dup {
					return nil, fmt.Errorf("%w: %d (op %d)", ErrDuplicateRule, r.ID, i)
				}
			}
			if r.Match.Empty() {
				return nil, fmt.Errorf("%w (op %d)", ErrEmptyMatch, i)
			}
			if !n.space.Contains(r.Match) {
				return nil, fmt.Errorf("%w: %v (op %d)", ErrOutOfSpace, r.Match, i)
			}
			if err := n.checkTopology(&r); err != nil {
				return nil, fmt.Errorf("%w (op %d)", err, i)
			}
			pending[r.ID] = int32(len(items))
			items = append(items, batchItem{insert: true, ref: -1, rule: r})
		} else {
			id := op.Rule.ID
			idx, touched := pending[id]
			var it batchItem
			if touched {
				if idx < 0 {
					return nil, fmt.Errorf("%w: %d (op %d)", ErrUnknownRule, id, i)
				}
				it = batchItem{ref: idx, rule: items[idx].rule}
			} else {
				slot, ok := n.store.slotOf(id)
				if !ok {
					return nil, fmt.Errorf("%w: %d (op %d)", ErrUnknownRule, id, i)
				}
				it = batchItem{ref: -1, slot: slot, rule: n.ruleAt(slot)}
			}
			pending[id] = -1
			items = append(items, it)
		}
	}
	return items, nil
}

// atomResult is one per-atom job's net label changes.
type atomResult struct {
	added   []LinkAtom
	removed []LinkAtom
}

// atomOp is one (atom, operation) incidence from phase 3's interval
// expansion.
type atomOp struct {
	atom intervalmap.AtomID
	item int32
}

// groupPairs orders pairs by (atom, source), then operation order: a
// stable LSD radix sort through tmp over the key bytes that differ, linear
// in the pairs. It returns the sorted pairs and the other buffer.
func groupPairs(pairs, tmp []atomOp, items []batchItem) ([]atomOp, []atomOp) {
	key := func(p atomOp) uint64 { return uint64(p.atom)<<32 | uint64(uint32(items[p.item].rule.Source)) }
	var differ uint64
	for _, p := range pairs {
		differ |= key(p) ^ key(pairs[0])
	}
	tmp = slices.Grow(tmp[:0], len(pairs))[:len(pairs)]
	for shift := 0; differ>>shift != 0; shift += 8 {
		if differ>>shift&0xff == 0 {
			continue
		}
		var at [256]int32
		for _, p := range pairs {
			at[key(p)>>shift&0xff]++
		}
		sum := int32(0)
		for d, c := range at {
			at[d], sum = sum, sum+c
		}
		for _, p := range pairs {
			d := key(p) >> shift & 0xff
			tmp[at[d]] = p
			at[d]++
		}
		pairs, tmp = tmp, pairs
	}
	return pairs, tmp
}

// replayScratch holds one worker's buffers for rewriting an atom: the
// rebuilt owner table, and one cell's inserted and removed slots.
type replayScratch struct {
	out     ownerAtom
	ins, rm []int32
}

// replayAtom replays run, the batch operations covering atom alpha grouped
// by source, against its owner table and records the net forwarding
// change per touched source (emitChange). The rule arena is read-only
// during phase 4, so slot dereferences here race with nothing.
func (n *Network) replayAtom(alpha intervalmap.AtomID, items []batchItem, run []atomOp, res *atomResult, rs *replayScratch) {
	oa := &n.owner[alpha]
	if len(run) == 1 { // in place: moves only the entries after the edit
		it := &items[run[0].item]
		s := it.rule.Source
		prev := oa.top(s)
		if it.insert {
			oa.insert(&n.store, s, it.slot, it.rule.key())
		} else {
			oa.remove(&n.store, s, it.rule.key())
		}
		n.emitChange(res, alpha, prev, oa.top(s))
		return
	}
	// Rewrite the atom: merge its cells with the run's sources by node,
	// walking the set bits of its bitmap.
	out := &rs.out
	out.reset()
	out.widen(max(len(oa.words()), int(items[run[len(run)-1].item].rule.Source>>5)+1))
	ci, v := 0, oa.nodeFrom(0) // the next old cell and its node
	keepCells := func(below netgraph.NodeID) {
		for ; v >= 0 && v < below; ci, v = ci+1, oa.nodeFrom(v+1) {
			start := len(out.slab)
			out.slab = append(out.slab, oa.window(ci)...)
			out.closeCell(v, start)
		}
	}
	for g := 0; g < len(run); {
		s := items[run[g].item].rule.Source
		rs.ins, rs.rm = rs.ins[:0], rs.rm[:0]
		for ; g < len(run) && items[run[g].item].rule.Source == s; g++ {
			if it := &items[run[g].item]; it.insert {
				rs.ins = append(rs.ins, it.slot)
			} else {
				rs.rm = append(rs.rm, it.slot)
			}
		}
		keepCells(s)
		var old []int32
		prev, after := noSlot, noSlot
		if v == s {
			old, ci, v = oa.window(ci), ci+1, oa.nodeFrom(s+1)
			prev = old[len(old)-1]
		}
		start := len(out.slab)
		if out.slab = n.store.mergeWindow(out.slab, old, rs.ins, rs.rm); len(out.slab) > start {
			after = out.slab[len(out.slab)-1]
		}
		out.closeCell(s, start)
		n.emitChange(res, alpha, prev, after)
	}
	keepCells(netgraph.NodeID(1<<31 - 1))
	oa.cells, oa.slab = setGrow(oa.cells, out.cells), setGrow(oa.slab, out.slab)
}

// mergeWindow appends to dst a cell's window after a batch, old ∪ ins −
// rm in key order. Every slot of rm is in old or ins and none repeats, as
// a batch allocates every slot before it releases any; ordering by (key,
// slot) separates a removed rule from its id's re-insertion.
func (s *ruleStore) mergeWindow(dst, old, ins, rm []int32) []int32 {
	cmp := func(a, b int32) int {
		if c := cmpPrioKey(s.keyOf(a), s.keyOf(b)); c != 0 {
			return c
		}
		return int(a - b)
	}
	slices.SortFunc(ins, cmp)
	slices.SortFunc(rm, cmp)
	for i, j := 0, 0; i < len(old) || j < len(ins); {
		var x int32
		if j == len(ins) || i < len(old) && cmp(old[i], ins[j]) < 0 {
			x, i = old[i], i+1
		} else {
			x, j = ins[j], j+1
		}
		if len(rm) > 0 && rm[0] == x {
			rm = rm[1:]
		} else {
			dst = append(dst, x)
		}
	}
	return dst
}

// emitChange records the net forwarding change at a source of alpha whose
// owner went from slot prev to after: Removed for a lost out-link, Added
// for a gained one, nothing when only the owning rule changed.
func (n *Network) emitChange(res *atomResult, alpha intervalmap.AtomID, prev, after int32) {
	if pl, al := n.linkOf(prev), n.linkOf(after); pl != al {
		if pl != netgraph.NoLink {
			res.removed = append(res.removed, LinkAtom{Link: pl, Atom: alpha})
		}
		if al != netgraph.NoLink {
			res.added = append(res.added, LinkAtom{Link: al, Atom: alpha})
		}
	}
}
