// Package monitor is Delta-net's incremental invariant monitor: callers
// register standing invariants (reachability, waypointing, isolation,
// loop freedom, black-hole freedom) and the monitor keeps each one's
// verdict current as rule updates stream through the engine.
//
// The whole point of Delta-net (paper §3.3) is that forwarding behaviour
// is shared and every rule update yields a delta-graph, so invariants
// should share what they compute and be re-checked from that delta
// rather than recomputed from scratch. The monitor realizes both. The
// unit of evaluation is not the invariant but the subgoal — one
// single-source fixpoint per (source, avoided node) pair, refcounted by
// the reach/waypoint/isolated invariants that read their verdicts off
// its retained answer (subgoal.go) — so a 16 × 16 `reach` battery is 16
// fixpoints, not 256. Each subgoal evaluation records the set of links
// it examined, refined by per-link atom-range sketches of which atoms
// on each link actually mattered; the sharded dependency index maps
// every link to the bitmap of subgoals depending on it (with the
// sketches hanging off the same slots), and an update dirties exactly
// the subgoals whose sketches intersect the delta's touched atoms on
// some changed link — work proportional to the atoms the change
// actually affects (plus the structurally-global checks, LoopFree and
// BlackHoleFree, which re-evaluate incrementally from the delta
// itself). Atoms born after a subgoal's evaluation (split-minted or
// GC-recycled ids) conservatively dirty it, so the sketches stay sound
// under atom split/merge churn. Re-evaluations fan out
// over per-worker queues (check.RunSharded); afterwards every consumer
// of a re-evaluated subgoal re-reads its verdict, and transitions are
// emitted as Violation/Cleared events to subscribers in invariant-id
// order.
//
// The monitor does not merge updates: one ApplyWithLoops call is one
// update number and one evaluation pass. Callers that want several rule
// changes evaluated once merge them before the engine (core.ApplyBatch)
// and hand the monitor the batch's net delta.
//
// Concurrency: all exported methods are safe to call from multiple
// goroutines, but the monitor only reads the network — the caller must
// guarantee the network is not mutated during a call (the Checker's
// single-writer discipline and the server's RWMutex both do).
// Registration and unregistration take striped, per-invariant and
// per-subgoal locks only, so they do not stall a concurrent evaluation
// pass.
package monitor

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"deltanet/internal/bitset"
	"deltanet/internal/check"
	"deltanet/internal/core"
)

// ID identifies one registered invariant within a monitor. IDs are
// assigned in registration order and never reused.
type ID int64

// Status is an invariant's current verdict.
type Status uint8

const (
	// Holds means the invariant was satisfied at the last evaluation.
	Holds Status = iota
	// Violated means the invariant was falsified at the last evaluation.
	Violated
)

func (s Status) String() string {
	if s == Violated {
		return "violated"
	}
	return "holds"
}

// EventKind distinguishes the two verdict transitions.
type EventKind uint8

const (
	// Violation is the Holds -> Violated transition.
	Violation EventKind = iota
	// Cleared is the Violated -> Holds transition.
	Cleared
)

func (k EventKind) String() string {
	if k == Cleared {
		return "cleared"
	}
	return "violation"
}

// Event records one verdict transition. Seq increases monotonically
// across all events of a monitor, so subscribers can order and detect
// gaps. FirstUpdate and LastUpdate delimit the (inclusive) range of
// update sequence numbers whose delta produced the event; a pass consumes
// one update, so they are equal.
type Event struct {
	Seq         uint64
	ID          ID
	Spec        Spec
	Kind        EventKind
	Detail      string
	FirstUpdate uint64
	LastUpdate  uint64
}

func (e Event) String() string {
	return fmt.Sprintf("event %d %s %s", e.ID, e.Kind, e.Spec)
}

// invariant pairs a registered spec with its cached verdict.
type invariant struct {
	id   ID
	spec Spec
	key  string // canonical dedup key (specKey)

	// Exactly one of the two is in use: a derived invariant reads subs
	// (the live subgoals for spec.subgoals(), in that order; immutable
	// after Register), a global one evaluates itself into gst.
	derived derivedSpec
	subs    []*subgoal
	global  globalSpec

	// refs counts live registrations of this spec (guarded by m.regMu):
	// re-registering an identical spec returns the same invariant with
	// refs incremented, and only the final Unregister removes it.
	refs int

	// mu guards everything below. Held from before the invariant is
	// published until its first verdict is settled, and during every
	// global evaluation, so Status and the dedup path in Register observe
	// fully evaluated state.
	//
	//deltanet:lockrank 20
	mu     sync.Mutex
	dead   bool
	status Status
	detail string // never empty once settled
	answer answer // derived: what detail was rendered from
	gst    globalState
}

// settle brings the published verdict up to date with what the
// invariant's subgoals (or its own last global evaluation) now say, and
// reports whether the status moved. Caller holds inv.mu.
func (inv *invariant) settle() bool {
	was := inv.status
	violated := inv.gst.verdict.violated
	if inv.global != nil {
		inv.detail = inv.gst.verdict.detail
	} else {
		a := inv.derived.derive(inv.subs)
		if a != inv.answer || inv.detail == "" {
			inv.answer, inv.detail = a, inv.derived.describe(a)
		}
		violated = a.violated
	}
	inv.status = Holds
	if violated {
		inv.status = Violated
	}
	return inv.status != was
}

// Stats summarizes a monitor's work so far. Registered counts
// invariants; the work counters count fixpoints — one per subgoal or
// global invariant (LoopFree, BlackHoleFree) — because that is what the
// monitor evaluates, skips and indexes.
type Stats struct {
	// Registered is the current number of standing invariants (distinct;
	// refcounted re-registrations do not add).
	Registered int
	// Subgoals is the current number of live subgoals: the denominator
	// (with the registered global invariants) of Evaluations and Skips
	// per update, and the number of slots IndexShardBits() is spread over.
	Subgoals int
	// Updates counts deltas consumed by ApplyWithLoops.
	Updates uint64
	// Evaluations counts subgoal and global re-evaluations triggered by
	// deltas (registration-time and RecheckAll evaluations excluded).
	Evaluations uint64
	// Fixpoints counts every subgoal fixpoint ever run, registration-time
	// and RecheckAll ones included; a Register on a live subgoal adds none.
	Fixpoints uint64
	// Skips counts subgoals and globals left untouched by a delta because
	// their dependency set did not intersect the changed labels — the
	// incremental win.
	Skips uint64
	// RangeSkips counts the subset of skipped subgoals that WOULD have
	// been dirtied at link granularity: their dependency set intersected
	// the changed links, but on every shared link the recorded atom-range
	// sketch was disjoint from the delta's touched atoms — the
	// atom-granular refinement's win over link-level tracking.
	RangeSkips uint64
	// Events counts verdict transitions emitted.
	Events uint64
	// LoopRescanAtoms counts atoms re-walked by LoopFree's batch-aware
	// clearing path: while violated, only previously looping atoms (plus
	// the delta's added-label atoms and any atoms born since) are
	// re-scanned instead of every atom in the network. Comparing this
	// against Updates × NumAtoms shows the saved work.
	LoopRescanAtoms uint64
}

// regStripes is the number of registration stripes. ID lookups (Status,
// Unregister, Invariants) lock only their stripe, so queries from many
// connections do not serialize on one registration mutex.
const regStripes = 16

type regStripe struct {
	//deltanet:lockrank 40
	mu   sync.RWMutex
	invs map[ID]*invariant
}

// unit is one fixpoint an evaluation pass may run: a subgoal or a global
// invariant (exactly one is set).
type unit struct {
	sg  *subgoal
	inv *invariant
}

// Monitor maintains standing invariants over one network.
//
// Lock ordering (outer first): applyMu → inv.mu → subgoal.mu → regMu →
// stripe mutexes → index locks → eventMu. inv.mu and subgoal.mu are
// never acquired while holding regMu, a stripe mutex, or eventMu, and no
// two of either kind are held at once.
type Monitor struct {
	net     *core.Network
	workers int

	// applyMu serializes evaluation passes (ApplyWithLoops, RecheckAll)
	// and guards the update counter and the pass scratch below it.
	//
	//deltanet:lockrank 10
	applyMu sync.Mutex
	updSeq  uint64

	// Per-pass scratch, reused across evaluation passes under applyMu so
	// steady-state churn allocates nothing for dirty marking, the unit
	// list, or settling.
	scratchChanged *bitset.Set
	scratchDirty   *bitset.Set
	scratchCand    *bitset.Set
	scratchRanges  core.DeltaRanges
	scratchUnits   []unit
	scratchInvs    []*invariant

	// evalScratch holds one check.Scratch per evaluation worker, reused
	// across passes under applyMu: RunSharded gives each worker a stable
	// identity, so worker w always evaluates with evalScratch[w] and the
	// epoch-stamped arrays stay warm — and race-clean — across the
	// monitor's lifetime. (Registration-time evaluations run outside
	// applyMu and draw from the check package's pool instead.)
	evalScratch []*check.Scratch

	// regMu guards the structural registration state: the dedup maps, the
	// subgoal slot table and its classification bitmaps, every subgoal's
	// consumer list, and the global list. It is never held during an
	// evaluation.
	//
	//deltanet:lockrank 30
	regMu     sync.RWMutex
	byKey     map[string]*invariant
	bySub     map[subKey]*subgoal
	slots     []*subgoal // slot -> subgoal; nil = free or retiring
	freeSlots *bitset.Set
	depSlots  *bitset.Set  // slots of evaluated, live subgoals
	globals   []*invariant // LoopFree/BlackHoleFree invariants, by id

	stripes [regStripes]regStripe
	nextID  atomic.Int64
	regd    atomic.Int64 // current number of registered invariants
	units   atomic.Int64 // current number of live subgoals + globals

	index depIndex

	// eventMu guards the sequence counter, the subscriber set, and the
	// event backlog ring (backlog.go).
	//
	//deltanet:lockrank 70
	eventMu     sync.Mutex
	seq         uint64
	subs        map[*Subscription]struct{}
	backlog     []Event
	backlogCap  int
	backlogHead int
	backlogLen  int

	evals, fixpoints, skips, rangeSkips, events atomic.Uint64

	// loopRescans counts atoms re-walked by LoopFree's violated-state
	// candidate re-scan (spec.go) — the work the batch-aware clearing
	// path actually did, to compare against the full-scan alternative.
	loopRescans atomic.Uint64

	// traceSink, when non-nil, receives an ApplyTrace after each
	// delta-driven evaluation pass (trace.go). Guarded by applyMu.
	traceSink func(ApplyTrace)
}

// New returns a monitor over the network. workers bounds the evaluation
// fan-out; ≤ 0 selects GOMAXPROCS.
func New(net *core.Network, workers int) *Monitor {
	m := &Monitor{
		net:            net,
		workers:        workers,
		byKey:          map[string]*invariant{},
		bySub:          map[subKey]*subgoal{},
		freeSlots:      bitset.New(0),
		depSlots:       bitset.New(0),
		scratchChanged: bitset.New(0),
		scratchDirty:   bitset.New(0),
		scratchCand:    bitset.New(0),
		subs:           map[*Subscription]struct{}{},
		backlogCap:     DefaultBacklog,
	}
	for i := range m.stripes {
		m.stripes[i].invs = map[ID]*invariant{}
	}
	return m
}

func (m *Monitor) stripe(id ID) *regStripe { return &m.stripes[uint64(id)%regStripes] }

// Register adds a standing invariant, settles its verdict, and returns
// its id and initial status. Registration emits no event: events are
// transitions, and a fresh invariant has nothing to transition from.
//
// Registrations are refcounted by spec: registering a spec identical to a
// live one returns the existing id (and its current status) and adds a
// reference, so flapping clients re-registering the same watch cannot
// grow the monitor without bound. Each Register must be balanced by one
// Unregister.
//
// A derived spec runs a fixpoint only for those of its subgoals no live
// invariant already reads: the 256th `reach` of a 16 × 16 battery
// attaches to its source's subgoal and reads the retained answer.
func (m *Monitor) Register(s Spec) (ID, Status) {
	k := specKey(s)
	m.regMu.Lock()
	if inv := m.byKey[k]; inv != nil {
		inv.refs++
		m.regMu.Unlock()
		// Wait out a concurrent initial evaluation, then read the verdict.
		inv.mu.Lock()
		st := inv.status
		inv.mu.Unlock()
		return inv.id, st
	}
	inv := &invariant{id: ID(m.nextID.Add(1) - 1), spec: s, key: k, refs: 1}
	// Taking inv.mu under regMu inverts the documented order, but inv is
	// not yet published: no other goroutine can hold or wait on its mutex,
	// so the acquisition cannot contend, let alone deadlock.
	//deltanet:nolint lockorder inv is unpublished; the lock is uncontended by construction
	inv.mu.Lock()
	m.byKey[k] = inv
	if g, ok := s.(globalSpec); ok {
		inv.global = g
		m.globals = append(m.globals, inv) // ids ascend under regMu: stays sorted
		m.units.Add(1)
	} else {
		inv.derived = s.(derivedSpec)
		for _, key := range s.subgoals() {
			inv.subs = append(inv.subs, m.acquireLocked(key, inv))
		}
	}
	m.regMu.Unlock()
	m.regd.Add(1)

	str := m.stripe(inv.id)
	str.mu.Lock()
	str.invs[inv.id] = inv
	str.mu.Unlock()

	// The expensive part — a fixpoint per subgoal nobody evaluated yet, or
	// the global scan — runs under inv.mu and the subgoal's own mutex
	// only, so it stalls neither an evaluation pass nor registrations on
	// other subgoals. A subgoal another registrant is evaluating right now
	// is waited for, not recomputed.
	sc := check.GetScratch()
	if inv.global != nil {
		inv.gst.verdict = inv.global.eval(m.net, nil, &inv.gst, sc)
	}
	for _, sg := range inv.subs {
		sg.mu.Lock()
		if sg.deps == nil {
			m.evalSubgoalLocked(sg, sc)
		}
		sg.mu.Unlock()
	}
	check.PutScratch(sc)
	inv.settle()
	st := inv.status
	inv.mu.Unlock()
	return inv.id, st
}

// allocSlotLocked returns a free subgoal slot number. Caller holds regMu.
func (m *Monitor) allocSlotLocked() int {
	if s := m.freeSlots.NextSet(0); s >= 0 {
		m.freeSlots.Remove(s)
		return s
	}
	m.slots = append(m.slots, nil)
	return len(m.slots) - 1
}

// Unregister releases one reference to an invariant; the registration is
// removed when the last reference goes — and with it every subgoal it
// was the last consumer of, index bits included. It reports whether the
// id was registered.
func (m *Monitor) Unregister(id ID) bool {
	str := m.stripe(id)
	str.mu.RLock()
	inv := str.invs[id]
	str.mu.RUnlock()
	if inv == nil {
		return false
	}
	inv.mu.Lock()
	defer inv.mu.Unlock()
	m.regMu.Lock()
	if inv.dead {
		// Lost a race against the final Unregister of the same id.
		m.regMu.Unlock()
		return false
	}
	inv.refs--
	if inv.refs > 0 {
		m.regMu.Unlock()
		return true
	}
	inv.dead = true
	delete(m.byKey, inv.key)
	var orphans []*subgoal
	if inv.global != nil {
		i := slices.Index(m.globals, inv)
		m.globals = slices.Delete(m.globals, i, i+1)
		m.units.Add(-1)
	}
	for _, sg := range inv.subs {
		if m.releaseLocked(sg, inv) {
			orphans = append(orphans, sg)
		}
	}
	m.regMu.Unlock()
	for _, sg := range orphans {
		m.retire(sg)
	}
	m.regd.Add(-1)
	str.mu.Lock()
	delete(str.invs, id)
	str.mu.Unlock()
	return true
}

// Status returns an invariant's cached verdict and its human-readable
// detail, as of the last update applied.
func (m *Monitor) Status(id ID) (Status, string, bool) {
	str := m.stripe(id)
	str.mu.RLock()
	inv := str.invs[id]
	str.mu.RUnlock()
	if inv == nil {
		return 0, "", false
	}
	inv.mu.Lock()
	defer inv.mu.Unlock()
	if inv.dead {
		return 0, "", false
	}
	return inv.status, inv.detail, true
}

// InvariantInfo describes one registered invariant and its cached
// verdict.
type InvariantInfo struct {
	ID     ID
	Spec   Spec
	Status Status
	Detail string
}

// Invariants lists the registered invariants in registration order with
// their cached verdicts — the snapshot a fresh subscriber pairs with the
// event stream.
func (m *Monitor) Invariants() []InvariantInfo {
	invs := m.sortedByID()
	out := make([]InvariantInfo, 0, len(invs))
	for _, inv := range invs {
		inv.mu.Lock()
		if !inv.dead {
			out = append(out, InvariantInfo{ID: inv.id, Spec: inv.spec, Status: inv.status, Detail: inv.detail})
		}
		inv.mu.Unlock()
	}
	return out
}

// NumRegistered returns the current number of standing invariants.
func (m *Monitor) NumRegistered() int { return int(m.regd.Load()) }

// LinkDepsInto unions into dst the slots of subgoals whose last
// evaluation depended on link. It is the coarse "would this op dirty a
// fixpoint someone else already dirtied" signal the ingest coalescer's
// adaptive flush trigger keys on; links the index does not cover yet
// contribute nothing.
func (m *Monitor) LinkDepsInto(link int, dst *bitset.Set) { m.index.linkDeps(link, dst) }

func byID(a, b *invariant) int { return int(a.id - b.id) }

// sortedByID gathers every registered invariant from the stripes, sorted
// by id — which is registration order, since ids are assigned
// monotonically and never reused.
func (m *Monitor) sortedByID() []*invariant {
	var all []*invariant
	for i := range m.stripes {
		str := &m.stripes[i]
		str.mu.RLock()
		for _, inv := range str.invs {
			all = append(all, inv)
		}
		str.mu.RUnlock()
	}
	slices.SortFunc(all, byID)
	return all
}

// Stats returns the monitor's work counters. It reads atomics and takes
// two short locks; the dependency index's population, which costs a walk
// of every link bitmap, is IndexShardBits.
func (m *Monitor) Stats() Stats {
	m.applyMu.Lock()
	upd := m.updSeq
	m.applyMu.Unlock()
	m.regMu.RLock()
	subgoals := len(m.bySub)
	m.regMu.RUnlock()
	return Stats{
		Registered:      m.NumRegistered(),
		Subgoals:        subgoals,
		Updates:         upd,
		Evaluations:     m.evals.Load(),
		Fixpoints:       m.fixpoints.Load(),
		Skips:           m.skips.Load(),
		RangeSkips:      m.rangeSkips.Load(),
		Events:          m.events.Load(),
		LoopRescanAtoms: m.loopRescans.Load(),
	}
}

// IndexShardBits returns the dependency index's per-shard bit
// population: for each of the index's link shards, the total number of
// (link, subgoal-slot) dependency bits it holds. A shard whose population
// dwarfs the others means one hot link's bitmap dominates dirty-marking
// cost — the signal that the link is a candidate for splitting by atom
// range. It walks every link bitmap under the shard locks, so callers
// rendering several figures take it once.
func (m *Monitor) IndexShardBits() []int { return m.index.shardPops() }

// ApplyWithLoops consumes one update's delta-graph: subgoals whose
// dependency records intersect the changed labels (and global invariants
// the delta can affect) are re-evaluated, fanned out over the per-worker
// queues; every invariant reading one of them re-derives its verdict;
// and the transitions are returned in registration order and published
// to subscribers. Call it after every InsertRule, RemoveRule, or
// ApplyBatch, before the delta is reused.
//
// When loopsKnown is true, loops is taken as the per-update delta loop
// check's authoritative result for d (it may be empty) and a registered
// LoopFree invariant reuses it instead of re-walking the delta.
//
// With a trace sink installed the pass stamps its stage boundaries (each
// stage's start is stashed in its Ns field until the stage closes);
// without one it takes no timestamps.
func (m *Monitor) ApplyWithLoops(d *core.Delta, loops []check.Loop, loopsKnown bool) []Event {
	if d == nil || d.Empty() {
		return nil
	}
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	m.updSeq++
	if m.regd.Load() == 0 {
		return nil
	}
	changed := m.scratchChanged
	changed.Clear()
	for _, la := range d.Added {
		changed.Add(int(la.Link))
	}
	for _, la := range d.Removed {
		changed.Add(int(la.Link))
	}
	var tr *ApplyTrace
	if m.traceSink != nil {
		tr = &ApplyTrace{Update: m.updSeq,
			Links: changed.Len(), Added: len(d.Added), Removed: len(d.Removed),
			DirtyNs: time.Now().UnixNano()}
	}
	units, rangeSkipped := m.collectDirty(changed, d)
	if tr != nil {
		now := time.Now().UnixNano()
		tr.DirtyNs = now - tr.DirtyNs
		tr.Dirtied, tr.RangeSkipped = len(units), rangeSkipped
		tr.EvalNs = now
	}
	ctx := &applyCtx{d: d, loops: loops, loopsKnown: loopsKnown, rescans: &m.loopRescans}
	events := m.evaluatePass(units, ctx, tr)
	if tr != nil {
		m.traceSink(*tr)
	}
	return events
}

// collectDirty returns the fixpoints an update with the given changed
// links must re-run — the subgoals the dependency index marks plus the
// global invariants whose structural test fires — and the number of
// subgoals the atom-range refinement spared on this pass. The list is
// pass scratch. Caller holds applyMu.
func (m *Monitor) collectDirty(changed *bitset.Set, d *core.Delta) ([]unit, int) {
	numLinks := m.net.Graph().NumLinks()
	if int(m.index.upTo.Load()) < numLinks {
		m.regMu.RLock()
		seed := m.depSlots.Clone()
		m.regMu.RUnlock()
		m.index.growTo(numLinks, seed)
	}

	// A subgoal is dirtied only when the delta's touched atoms intersect
	// its recorded sketch on some shared link (index.collect documents the
	// conservative escapes). The candidate set is every subgoal depending
	// on a changed link; the difference is the refinement's skip count.
	// The index bitmaps are already slot-capacity words, so the first
	// union sizes the reused sets.
	m.scratchDirty.Clear()
	dirty := m.scratchDirty
	m.scratchRanges.Build(m.net, d)
	m.scratchCand.Clear()
	m.index.collect(changed, &m.scratchRanges, dirty, m.scratchCand)
	rangeSkipped := m.scratchCand.Len() - dirty.Len()
	m.rangeSkips.Add(uint64(rangeSkipped))

	units := m.scratchUnits[:0]
	m.regMu.RLock()
	for s := dirty.NextSet(0); s >= 0; s = dirty.NextSet(s + 1) {
		if sg := m.slots[s]; sg != nil {
			units = append(units, unit{sg: sg})
		}
	}
	nsub := len(units)
	for _, inv := range m.globals {
		units = append(units, unit{inv: inv})
	}
	m.regMu.RUnlock()

	// Global invariants decide dirtiness structurally from the delta.
	keep := units[:nsub]
	for _, u := range units[nsub:] {
		u.inv.mu.Lock()
		if !u.inv.dead && u.inv.global.dirty(&u.inv.gst, d) {
			keep = append(keep, u)
		}
		u.inv.mu.Unlock()
	}
	m.scratchUnits = units[:0]
	return keep, rangeSkipped
}

// RecheckAll re-runs every subgoal and global invariant from scratch,
// ignoring dependency records — the audit path, and the naive baseline
// the benchmarks compare ApplyWithLoops against. Transitions are
// returned and published exactly as for an update.
func (m *Monitor) RecheckAll() []Event {
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	var units []unit
	m.regMu.RLock()
	for _, sg := range m.slots {
		if sg != nil {
			units = append(units, unit{sg: sg})
		}
	}
	for _, inv := range m.globals {
		units = append(units, unit{inv: inv})
	}
	m.regMu.RUnlock()
	return m.evaluatePass(units, nil, nil)
}

// evaluatePass runs the given fixpoints over per-worker queues, lets
// every invariant that reads one of them settle its verdict, and emits
// the transitions — in invariant-id order, stamped with the current
// update number. ctx is nil for a full (non-delta) pass. tr, when
// non-nil, receives the pass's skip/eval/event counts and the
// eval/publish stage times. Caller holds applyMu.
func (m *Monitor) evaluatePass(units []unit, ctx *applyCtx, tr *ApplyTrace) []Event {
	if live := int(m.units.Load()); len(units) < live {
		m.skips.Add(uint64(live - len(units)))
		if tr != nil {
			tr.Skipped = live - len(units)
		}
	}
	if len(units) == 0 {
		if tr != nil {
			tr.EvalNs = 0
		}
		return nil
	}
	// Resolve the worker count the same way RunSharded will, so every
	// worker index maps to a dedicated, warmed scratch.
	nw := m.workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	nw = min(nw, len(units))
	for len(m.evalScratch) < nw {
		m.evalScratch = append(m.evalScratch, check.NewScratch())
	}
	var evaluated atomic.Int64
	check.RunSharded(nw, len(units), func(w, i int) {
		if sg := units[i].sg; sg != nil {
			sg.mu.Lock()
			if !sg.dead {
				m.evalSubgoalLocked(sg, m.evalScratch[w])
				evaluated.Add(1)
			}
			sg.mu.Unlock()
			return
		}
		inv := units[i].inv
		inv.mu.Lock()
		if !inv.dead {
			inv.gst.verdict = inv.global.eval(m.net, ctx, &inv.gst, m.evalScratch[w])
			evaluated.Add(1)
		}
		inv.mu.Unlock()
	})
	if ctx != nil {
		m.evals.Add(uint64(evaluated.Load()))
	}

	// Whoever reads a fixpoint that just ran may have a new verdict. The
	// consumer lists are read only now, after the evaluations: an
	// invariant attaching to a subgoal concurrently is either listed here
	// (and settled below) or reads the fresh answer itself. A subgoal
	// retired meanwhile has no consumers left.
	invs := m.scratchInvs[:0]
	m.regMu.RLock()
	for _, u := range units {
		if u.sg != nil {
			invs = append(invs, u.sg.consumers...)
		} else {
			invs = append(invs, u.inv)
		}
	}
	m.regMu.RUnlock()
	slices.SortFunc(invs, byID)
	invs = slices.Compact(invs) // multi-source specs read several subgoals
	var events []Event
	for _, inv := range invs {
		inv.mu.Lock()
		if !inv.dead && inv.settle() {
			kind := Cleared
			if inv.status == Violated {
				kind = Violation
			}
			events = append(events, Event{ID: inv.id, Spec: inv.spec, Kind: kind, Detail: inv.detail,
				FirstUpdate: m.updSeq, LastUpdate: m.updSeq})
		}
		inv.mu.Unlock()
	}
	// Drop the pass's pointers so what was retired since is collectable.
	clear(units)
	clear(invs)
	m.scratchInvs = invs[:0]
	if tr != nil {
		now := time.Now().UnixNano()
		tr.EvalNs = now - tr.EvalNs
		tr.Evaluated = int(evaluated.Load())
		tr.PublishNs = now
	}

	if len(events) > 0 {
		m.eventMu.Lock()
		for i := range events {
			m.seq++
			events[i].Seq = m.seq
		}
		m.publishLocked(events)
		m.eventMu.Unlock()
	}
	if tr != nil {
		tr.PublishNs = time.Now().UnixNano() - tr.PublishNs
		tr.Events = len(events)
	}
	return events
}

// Subscription delivers a monitor's events to one consumer. Receive from
// C; when the sender outpaces the consumer, events are dropped rather
// than blocking the update path, and Dropped counts them.
type Subscription struct {
	// C carries the events. It is closed by Cancel.
	C <-chan Event

	m       *Monitor
	ch      chan Event
	dropped atomic.Uint64
}

// Subscribe registers an event consumer with the given channel buffer
// (≤ 0 selects a default of 64).
func (m *Monitor) Subscribe(buf int) *Subscription {
	if buf <= 0 {
		buf = 64
	}
	s := &Subscription{m: m, ch: make(chan Event, buf)}
	s.C = s.ch
	m.eventMu.Lock()
	m.subs[s] = struct{}{}
	m.eventMu.Unlock()
	return s
}

// Cancel removes the subscription and closes C. It is idempotent.
func (s *Subscription) Cancel() {
	s.m.eventMu.Lock()
	defer s.m.eventMu.Unlock()
	if _, ok := s.m.subs[s]; ok {
		delete(s.m.subs, s)
		close(s.ch)
	}
}

// Dropped returns the number of events lost to a full buffer.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// publishLocked fans events out to subscribers without blocking — the
// update path must never wait on a slow consumer — and retains each
// event in the backlog ring so droppers and reconnectors can replay the
// suffix they missed (EventsSince). Caller holds eventMu, which also
// serializes against Cancel's close.
func (m *Monitor) publishLocked(events []Event) {
	m.events.Add(uint64(len(events)))
	for _, ev := range events {
		m.backlogAppendLocked(ev)
		for sub := range m.subs {
			select {
			case sub.ch <- ev:
			default:
				sub.dropped.Add(1)
			}
		}
	}
}
