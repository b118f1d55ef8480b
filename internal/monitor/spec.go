package monitor

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"deltanet/internal/bitset"
	"deltanet/internal/check"
	"deltanet/internal/core"
	"deltanet/internal/intervalmap"
	"deltanet/internal/netgraph"
)

// Spec is a standing invariant the monitor keeps continuously checked.
// A Spec is pure description — all cached verdict and dependency state
// lives in the monitor — so the same Spec value may be registered with
// several monitors.
//
// The String form doubles as the server wire syntax for the W command
// ("reach 0 2", "waypoint 0 3 1", "isolated 0,1 4,5", "loopfree",
// "blackholefree").
//
// Every Spec is one of two kinds. A derived spec (Reachable, Waypoint,
// Isolated) names the single-source fixpoints — subgoals — it reads and
// derives its verdict from their retained answers; it never runs a
// fixpoint of its own, so any number of specs over one (source, avoided
// node) pair cost one evaluation. A global spec (LoopFree,
// BlackHoleFree) depends on the whole data plane and re-evaluates
// incrementally from the delta itself.
type Spec interface {
	fmt.Stringer

	// subgoals lists the fixpoints the spec reads, in the order derive
	// consumes them; nil for a global spec.
	subgoals() []subKey
}

// derivedSpec is the verdict half of a spec that reads subgoal answers.
type derivedSpec interface {
	// derive reads the verdict off subs, the live subgoals for the keys
	// subgoals() named, in that order.
	derive(subs []*subgoal) answer
	// describe renders an answer as the human-readable detail string.
	describe(a answer) string
}

// globalSpec is the evaluation half of a structurally-dirtied spec.
type globalSpec interface {
	// dirty reports whether the delta could change the verdict, given
	// the bookkeeping from the last evaluation.
	dirty(st *globalState, d *core.Delta) bool

	// eval (re-)evaluates the invariant against the live network and
	// refreshes st. ctx carries the triggering delta plus any results
	// the caller already computed from it; nil means a full evaluation
	// (registration, RecheckAll). eval runs concurrently with other
	// evaluations, so it must only read the network and write its own
	// st. sc is the caller's query scratch — one per evaluation worker —
	// and anything read off it must be consumed before eval returns.
	eval(n *core.Network, ctx *applyCtx, st *globalState, sc *check.Scratch) verdict
}

// specKey is the canonical identity registrations are refcounted by:
// the FormatSpec serialization, which is the wire String form plus
// BlackHoleFree's sink set — sinks are not part of the wire syntax but
// do change the invariant's meaning, so two registrations with
// different sinks must not be conflated.
func specKey(s Spec) string { return FormatSpec(s) }

// applyCtx is one delta pass's context: the delta and, optionally, the
// per-update loop check's result so a LoopFree invariant need not repeat
// it (the Checker and server both run that check anyway).
type applyCtx struct {
	d          *core.Delta
	loops      []check.Loop
	loopsKnown bool // loops is authoritative for d (it may be empty)

	// rescans, when non-nil, accumulates the atoms re-walked by
	// LoopFree's violated-state candidate re-scan (the monitor's
	// loopRescans counter, exported as Stats.LoopRescanAtoms).
	rescans *atomic.Uint64
}

// verdict is one global evaluation's outcome.
type verdict struct {
	violated bool
	detail   string
}

// answer is a derived spec's verdict in comparable form: the detail
// string is a function of it (describe), so an invariant re-renders its
// detail only when the answer moved — a pass that re-reads 256
// unchanged verdicts formats nothing.
type answer struct {
	violated bool
	n        int32           // the atom count the detail quotes
	a, b     netgraph.NodeID // Isolated's witness pair
}

// globalState is the monitor's bookkeeping for one global invariant:
// the last evaluation's verdict plus whatever the next one needs to
// stay incremental.
type globalState struct {
	verdict verdict

	// bhNodes caches BlackHoleFree's currently violating nodes so a delta
	// only re-examines nodes incident to changed links plus these; bhCand
	// and bhAtoms are its per-evaluation scratch.
	bhNodes, bhCand, bhAtoms *bitset.Set

	// loopAtoms caches LoopFree's looping atoms while violated, and
	// loopAtomSeq the atom allocation stamp when they were recorded. A
	// violated-state re-evaluation walks only these atoms, the delta's
	// added-label atoms, and atoms born since the stamp — the batch-aware
	// clearing path — instead of the whole atom space. nil while the
	// invariant holds (or before its first violated evaluation).
	loopAtoms   *bitset.Set
	loopAtomSeq int64
}

// Reachable asserts that at least one packet can flow from From to To.
type Reachable struct {
	From, To netgraph.NodeID
}

func (r Reachable) String() string { return fmt.Sprintf("reach %d %d", r.From, r.To) }

func (r Reachable) subgoals() []subKey { return []subKey{{r.From, netgraph.NoNode}} }

func (r Reachable) derive(subs []*subgoal) answer {
	n := subs[0].count(r.To)
	return answer{violated: n == 0, n: n}
}

func (Reachable) describe(a answer) string {
	if a.violated {
		return "no packets can flow"
	}
	return fmt.Sprintf("%d atom(s) can flow", a.n)
}

// Waypoint asserts that every packet flowing from From to To traverses
// Via: on the fixpoint that does not continue past Via, nothing arrives
// at To.
type Waypoint struct {
	From, To, Via netgraph.NodeID
}

func (w Waypoint) String() string { return fmt.Sprintf("waypoint %d %d %d", w.From, w.To, w.Via) }

func (w Waypoint) subgoals() []subKey { return []subKey{{w.From, w.Via}} }

func (w Waypoint) derive(subs []*subgoal) answer {
	n := subs[0].count(w.To)
	return answer{violated: n > 0, n: n}
}

func (Waypoint) describe(a answer) string {
	if a.violated {
		return fmt.Sprintf("%d atom(s) bypass the waypoint", a.n)
	}
	return "all flows traverse the waypoint"
}

// Isolated asserts that no packet can flow from any node in GroupA to any
// node in GroupB.
type Isolated struct {
	GroupA, GroupB []netgraph.NodeID
}

func (i Isolated) String() string {
	return "isolated " + joinNodes(i.GroupA) + " " + joinNodes(i.GroupB)
}

func joinNodes(nodes []netgraph.NodeID) string {
	parts := make([]string, len(nodes))
	for i, v := range nodes {
		parts[i] = strconv.Itoa(int(v))
	}
	return strings.Join(parts, ",")
}

// subgoals: one plain single-source fixpoint per GroupA node, shared
// with every reach invariant from that node.
func (i Isolated) subgoals() []subKey {
	keys := make([]subKey, len(i.GroupA))
	for k, a := range i.GroupA {
		keys[k] = subKey{a, netgraph.NoNode}
	}
	return keys
}

// derive reports the first leaking pair in GroupA × GroupB order.
func (i Isolated) derive(subs []*subgoal) answer {
	for k, a := range i.GroupA {
		for _, b := range i.GroupB {
			if n := subs[k].count(b); n > 0 {
				return answer{violated: true, n: n, a: a, b: b}
			}
		}
	}
	return answer{}
}

func (Isolated) describe(a answer) string {
	if a.violated {
		return fmt.Sprintf("%d atom(s) leak %d -> %d", a.n, a.a, a.b)
	}
	return "groups are isolated"
}

// LoopFree asserts that the data plane contains no forwarding loops.
type LoopFree struct{}

func (LoopFree) String() string { return "loopfree" }

func (LoopFree) subgoals() []subKey { return nil }

// dirty: while loop-free, only label additions can close a cycle
// (removals only break paths), so removal-only deltas are skipped. While
// violated, any change may clear or keep the loop.
func (LoopFree) dirty(st *globalState, d *core.Delta) bool {
	return st.verdict.violated || len(d.Added) > 0
}

// eval: from a loop-free state any new loop must involve a net-added
// (link, atom) label — the §4.3.1 argument, applied to the merged delta —
// so walking forward from the delta's additions is a complete check (and
// when the caller already ran it, its result is reused rather than
// recomputed).
//
// From a violated state the candidate-set trick mirrors BlackHoleFree:
// a loop after the delta either survived from the previous evaluation
// (its atom is in the recorded loopAtoms), was newly closed by an added
// label (its atom is touched by d.Added), or lives on an atom id that
// did not exist when loopAtoms was recorded (split-minted or
// GC-recycled — caught by the allocation stamp, the same anchor the
// dependency sketches use). Only that candidate set is re-walked.
// Evaluations with no delta context (registration, RecheckAll, restored
// state) run the full scan, which also (re)establishes the base case of
// the induction.
func (LoopFree) eval(n *core.Network, ctx *applyCtx, st *globalState, sc *check.Scratch) verdict {
	var loops []check.Loop
	switch {
	case ctx != nil && !st.verdict.violated && ctx.loopsKnown:
		loops = ctx.loops
	case ctx != nil && !st.verdict.violated:
		loops = check.FindLoopsDeltaAutoScratch(n, ctx.d, 0, sc)
	case ctx != nil && ctx.d != nil && st.loopAtoms != nil:
		cand := loopFreeCandidates(n, ctx.d, st)
		if ctx.rescans != nil {
			ctx.rescans.Add(uint64(cand.Len()))
		}
		loops = check.FindLoopsAtomsScratch(n, cand, sc)
	default:
		loops = check.FindLoopsAllScratch(n, sc)
	}
	if len(loops) > 0 {
		if st.loopAtoms == nil {
			st.loopAtoms = bitset.New(n.MaxAtomID())
		} else {
			st.loopAtoms.Clear()
		}
		for _, l := range loops {
			st.loopAtoms.Add(int(l.Atom))
		}
		st.loopAtomSeq = n.AtomAllocSeq()
		iv, _ := n.AtomInterval(loops[0].Atom)
		return verdict{
			violated: true,
			detail:   fmt.Sprintf("%d looping atom(s), e.g. %v through %d node(s)", len(loops), iv, len(loops[0].Nodes)-1),
		}
	}
	st.loopAtoms = nil
	return verdict{detail: "no forwarding loops"}
}

// loopFreeCandidates builds the violated-state re-scan set: previously
// looping atoms, atoms with added labels in the delta, and atoms born
// after the recorded allocation stamp.
func loopFreeCandidates(n *core.Network, d *core.Delta, st *globalState) *bitset.Set {
	cand := st.loopAtoms.Clone()
	for _, la := range d.Added {
		cand.Add(int(la.Atom))
	}
	if n.AtomAllocSeq() > st.loopAtomSeq {
		for id := 0; id < n.MaxAtomID(); id++ {
			if n.AtomBornSeq(intervalmap.AtomID(id)) > st.loopAtomSeq {
				cand.Add(id)
			}
		}
	}
	return cand
}

// BlackHoleFree asserts that no node silently discards traffic it
// receives: every delivered atom is forwarded or explicitly dropped.
// Sinks lists nodes that legitimately terminate flows (nil = none).
type BlackHoleFree struct {
	Sinks map[netgraph.NodeID]bool
}

func (BlackHoleFree) String() string { return "blackholefree" }

func (BlackHoleFree) subgoals() []subKey { return nil }

// dirty: any label change can create or clear a hole at the changed
// link's endpoints, so every delta re-evaluates — but eval only touches
// those endpoints plus previously violating nodes.
func (BlackHoleFree) dirty(*globalState, *core.Delta) bool { return true }

func (b BlackHoleFree) eval(n *core.Network, ctx *applyCtx, st *globalState, _ *check.Scratch) verdict {
	g := n.Graph()
	if ctx == nil || st.bhNodes == nil {
		// Full scan; cache the violating node set for incremental mode.
		st.bhNodes = bitset.New(g.NumNodes())
		st.bhCand, st.bhAtoms = bitset.New(g.NumNodes()), bitset.New(0)
		for _, h := range check.FindBlackHoles(n, b.Sinks) {
			st.bhNodes.Add(int(h.Node))
		}
		return b.verdictFrom(st)
	}
	// A node's black-hole set reads only its in- and out-link labels, so
	// only nodes incident to a changed link can change status; previously
	// violating nodes are rechecked so clears are seen.
	st.bhCand.Copy(st.bhNodes)
	for _, las := range [2][]core.LinkAtom{ctx.d.Added, ctx.d.Removed} {
		for _, la := range las {
			l := g.Link(la.Link)
			st.bhCand.Add(int(l.Src))
			st.bhCand.Add(int(l.Dst))
		}
	}
	st.bhCand.ForEach(func(v int) bool {
		node := netgraph.NodeID(v)
		if b.Sinks[node] || (g.DropNode() != netgraph.NoNode && node == g.DropNode()) {
			return true
		}
		if check.BlackHoleAtomsInto(n, node, st.bhAtoms).Empty() {
			st.bhNodes.Remove(v)
		} else {
			st.bhNodes.Add(v)
		}
		return true
	})
	return b.verdictFrom(st)
}

func (BlackHoleFree) verdictFrom(st *globalState) verdict {
	if n := st.bhNodes.Len(); n > 0 {
		return verdict{violated: true, detail: fmt.Sprintf("%d node(s) black-hole traffic, first node %d", n, st.bhNodes.Min())}
	}
	return verdict{detail: "no black holes"}
}
