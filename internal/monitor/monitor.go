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
// on each link actually mattered; the dependency index maps every link
// to the bitmap of subgoals depending on it (with the sketches hanging
// off the same slots), and an update dirties exactly
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
// single-writer discipline and the server's RWMutex both do). The
// monitor has one writer at a time: Register, Unregister and every
// evaluation pass hold Monitor.mu exclusively (a pass fans its
// fixpoints out over workers inside that hold), queries share it, and
// the event stream's own lock lets watchers subscribe and replay
// without waiting out a pass.
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

	// refs counts live registrations of this spec: re-registering an
	// identical spec returns the same invariant with refs incremented, and
	// only the final Unregister removes it.
	refs int

	// The cached verdict: settled before Register returns and after every
	// pass that re-ran a fixpoint the invariant reads.
	status Status
	detail string // never empty once settled
	answer answer // derived: what detail was rendered from
	gst    globalState
}

// settle brings the published verdict up to date with what the
// invariant's subgoals (or its own last global evaluation) now say, and
// reports whether the status moved.
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
	// per update, and the number of slots IndexBits() is spread over.
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

// unit is one fixpoint an evaluation pass may run: a subgoal or a global
// invariant (exactly one is set).
type unit struct {
	sg  *subgoal
	inv *invariant
}

// Monitor maintains standing invariants over one network.
//
// Lock ordering: mu, then eventMu. Nothing else in the package locks.
type Monitor struct {
	net     *core.Network
	workers int

	// mu is the monitor's one state lock. Register, Unregister, the
	// evaluation passes (ApplyWithLoops, RecheckAll), Reset, ResumeUpdates
	// and SetTraceSink hold it exclusively, so everything below down to
	// eventMu has a single writer; the queries (Status, Invariants,
	// SnapshotSpecs, Stats, LinkDepsInto, IndexBits) share it and so see
	// the state between two writes, never the middle of one.
	//
	//deltanet:lockrank 10
	mu sync.RWMutex

	// updSeq and regd change only under mu; they are atomics so that
	// UpdateSeq and NumRegistered take no lock.
	updSeq atomic.Uint64
	regd   atomic.Int64 // current number of registered invariants

	// Per-pass scratch, reused across evaluation passes so steady-state
	// churn allocates nothing for dirty marking, the unit list, or
	// settling.
	scratchChanged *bitset.Set
	scratchDirty   *bitset.Set
	scratchCand    *bitset.Set
	scratchRanges  core.DeltaRanges
	scratchUnits   []unit
	scratchInvs    []*invariant

	// evalScratch holds one check.Scratch per evaluation worker, reused
	// across passes: RunSharded gives each worker a stable identity, so
	// worker w always evaluates with evalScratch[w] and the epoch-stamped
	// arrays stay warm across the monitor's lifetime.
	evalScratch []*check.Scratch

	// The registration state: invariants by id and by canonical spec,
	// subgoals by key and by index slot, and the global list.
	invs      map[ID]*invariant
	byKey     map[string]*invariant
	bySub     map[subKey]*subgoal
	slots     []*subgoal // slot -> subgoal; nil = free
	freeSlots *bitset.Set
	depSlots  *bitset.Set  // slots of evaluated, live subgoals
	globals   []*invariant // LoopFree/BlackHoleFree invariants, by id
	nextID    ID

	index depIndex

	// eventMu guards the sequence counter, the subscriber set, and the
	// event backlog ring (backlog.go). It is a lock of its own so that
	// Subscribe, Cancel, EventsSince and LastSeq on watcher connections
	// never wait out a pass.
	//
	//deltanet:lockrank 20
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
	// delta-driven evaluation pass (trace.go).
	traceSink func(ApplyTrace)
}

// New returns a monitor over the network. workers bounds the evaluation
// fan-out; ≤ 0 selects GOMAXPROCS.
func New(net *core.Network, workers int) *Monitor {
	return &Monitor{
		net:            net,
		workers:        workers,
		invs:           map[ID]*invariant{},
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
}

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
	m.mu.Lock()
	defer m.mu.Unlock()
	if inv := m.byKey[k]; inv != nil {
		inv.refs++
		return inv.id, inv.status
	}
	inv := &invariant{id: m.nextID, spec: s, key: k, refs: 1}
	m.nextID++
	m.invs[inv.id] = inv
	m.byKey[k] = inv
	m.regd.Add(1)
	sc := check.GetScratch()
	if g, ok := s.(globalSpec); ok {
		inv.global = g
		m.globals = append(m.globals, inv) // ids ascend: stays sorted
		inv.gst.verdict = g.eval(m.net, nil, &inv.gst, sc)
	} else {
		inv.derived = s.(derivedSpec)
		for _, key := range s.subgoals() {
			inv.subs = append(inv.subs, m.acquireLocked(key, inv, sc))
		}
	}
	check.PutScratch(sc)
	inv.settle()
	return inv.id, inv.status
}

// Unregister releases one reference to an invariant; the registration is
// removed when the last reference goes — and with it every subgoal it
// was the last consumer of, index bits included. It reports whether the
// id was registered.
func (m *Monitor) Unregister(id ID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	inv := m.invs[id]
	if inv == nil {
		return false
	}
	if inv.refs--; inv.refs == 0 {
		m.removeLocked(inv)
	}
	return true
}

// removeLocked drops inv's registration whatever its refcount, releasing
// the subgoals it read. Caller holds mu.
func (m *Monitor) removeLocked(inv *invariant) {
	delete(m.invs, inv.id)
	delete(m.byKey, inv.key)
	m.regd.Add(-1)
	if inv.global != nil {
		i := slices.Index(m.globals, inv)
		m.globals = slices.Delete(m.globals, i, i+1)
	}
	for _, sg := range inv.subs {
		m.releaseLocked(sg, inv)
	}
}

// Status returns an invariant's cached verdict and its human-readable
// detail, as of the last update applied.
func (m *Monitor) Status(id ID) (Status, string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	inv := m.invs[id]
	if inv == nil {
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
// event stream. The snapshot is of one moment: it never mixes the
// verdicts of two passes.
func (m *Monitor) Invariants() []InvariantInfo {
	m.mu.RLock()
	defer m.mu.RUnlock()
	invs := m.sortedByIDLocked()
	out := make([]InvariantInfo, len(invs))
	for i, inv := range invs {
		out[i] = InvariantInfo{ID: inv.id, Spec: inv.spec, Status: inv.status, Detail: inv.detail}
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
func (m *Monitor) LinkDepsInto(link int, dst *bitset.Set) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	m.index.linkDeps(link, dst)
}

func byID(a, b *invariant) int { return int(a.id - b.id) }

// sortedByIDLocked returns every registered invariant sorted by id —
// which is registration order, since ids are assigned monotonically and
// never reused. Caller holds mu.
func (m *Monitor) sortedByIDLocked() []*invariant {
	all := make([]*invariant, 0, len(m.invs))
	for _, inv := range m.invs {
		all = append(all, inv)
	}
	slices.SortFunc(all, byID)
	return all
}

// Stats returns the monitor's work counters. It reads atomics and one
// map length; the dependency index's population, which costs a walk of
// every link bitmap, is IndexBits.
func (m *Monitor) Stats() Stats {
	m.mu.RLock()
	subgoals := len(m.bySub)
	m.mu.RUnlock()
	return Stats{
		Registered:      m.NumRegistered(),
		Subgoals:        subgoals,
		Updates:         m.updSeq.Load(),
		Evaluations:     m.evals.Load(),
		Fixpoints:       m.fixpoints.Load(),
		Skips:           m.skips.Load(),
		RangeSkips:      m.rangeSkips.Load(),
		Events:          m.events.Load(),
		LoopRescanAtoms: m.loopRescans.Load(),
	}
}

// IndexBits returns the dependency index's population: the total number
// of (link, subgoal-slot) dependency bits it holds — what dirty marking
// walks when every link changes, and the figure a subgoal's release must
// hand back. It walks every link bitmap, so callers rendering several
// figures take it once.
func (m *Monitor) IndexBits() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.index.population()
}

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
	m.mu.Lock()
	defer m.mu.Unlock()
	upd := m.updSeq.Add(1)
	if len(m.invs) == 0 {
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
		tr = &ApplyTrace{Update: upd,
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
// pass scratch. Caller holds mu.
func (m *Monitor) collectDirty(changed *bitset.Set, d *core.Delta) ([]unit, int) {
	m.index.growTo(m.net.Graph().NumLinks(), m.depSlots)

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

	// The index holds bits for live slots only (releaseLocked erases a
	// subgoal's with it), so every dirty slot names a subgoal.
	units := m.scratchUnits[:0]
	for s := dirty.NextSet(0); s >= 0; s = dirty.NextSet(s + 1) {
		units = append(units, unit{sg: m.slots[s]})
	}
	// Global invariants decide dirtiness structurally from the delta.
	for _, inv := range m.globals {
		if inv.global.dirty(&inv.gst, d) {
			units = append(units, unit{inv: inv})
		}
	}
	m.scratchUnits = units[:0]
	return units, rangeSkipped
}

// RecheckAll re-runs every subgoal and global invariant from scratch,
// ignoring dependency records — the audit path, and the naive baseline
// the benchmarks compare ApplyWithLoops against. Transitions are
// returned and published exactly as for an update.
func (m *Monitor) RecheckAll() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	var units []unit
	for _, sg := range m.slots {
		if sg != nil {
			units = append(units, unit{sg: sg})
		}
	}
	for _, inv := range m.globals {
		units = append(units, unit{inv: inv})
	}
	return m.evaluatePass(units, nil, nil)
}

// evaluatePass runs the given fixpoints over per-worker queues, lets
// every invariant that reads one of them settle its verdict, and emits
// the transitions — in invariant-id order, stamped with the current
// update number. ctx is nil for a full (non-delta) pass. tr, when
// non-nil, receives the pass's skip/eval/event counts and the
// eval/publish stage times. Caller holds mu.
func (m *Monitor) evaluatePass(units []unit, ctx *applyCtx, tr *ApplyTrace) []Event {
	if live := len(m.bySub) + len(m.globals); len(units) < live {
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
	// This is the one fan-out left on the commit path, and it pays: on a
	// 2-vCPU host, a serial pass raised watch_churn's update_us_p50 from
	// 2.53–2.70 ms to 3.40–3.64 ms (+35 %) and cut its updates_per_s by
	// ≈ 30 %, where a serial ApplyBatch and delta loop check cost nothing.
	// The fan-out takes no lock: a worker writes only its own unit's
	// fields (a subgoal's dependency record and answer, a global's state)
	// and the atomic counters, and reads nothing another worker writes.
	check.RunSharded(nw, len(units), func(w, i int) {
		if sg := units[i].sg; sg != nil {
			m.evalSubgoal(sg, m.evalScratch[w])
			return
		}
		inv := units[i].inv
		inv.gst.verdict = inv.global.eval(m.net, ctx, &inv.gst, m.evalScratch[w])
	})
	if ctx != nil {
		m.evals.Add(uint64(len(units)))
	}

	// The index is shared between the units, so re-indexing follows the
	// join; whoever reads a fixpoint that just ran may have a new verdict.
	invs := m.scratchInvs[:0]
	for _, u := range units {
		if u.sg != nil {
			m.reindexLocked(u.sg)
			invs = append(invs, u.sg.consumers...)
		} else {
			invs = append(invs, u.inv)
		}
	}
	slices.SortFunc(invs, byID)
	invs = slices.Compact(invs) // multi-source specs read several subgoals
	upd := m.updSeq.Load()
	var events []Event
	for _, inv := range invs {
		if inv.settle() {
			kind := Cleared
			if inv.status == Violated {
				kind = Violation
			}
			events = append(events, Event{ID: inv.id, Spec: inv.spec, Kind: kind, Detail: inv.detail,
				FirstUpdate: upd, LastUpdate: upd})
		}
	}
	// Drop the pass's pointers so what is unregistered later is collectable.
	clear(units)
	clear(invs)
	m.scratchInvs = invs[:0]
	if tr != nil {
		now := time.Now().UnixNano()
		tr.EvalNs = now - tr.EvalNs
		tr.Evaluated = len(units)
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
