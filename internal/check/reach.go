package check

import (
	"slices"

	"deltanet/internal/bitset"
	"deltanet/internal/core"
	"deltanet/internal/intervalmap"
	"deltanet/internal/netgraph"
)

// fixpoint configures one run of the monotone reachability worklist that
// underlies Reachable, Waypoint and the monitor's summaries. The queries
// differ only in which node's out-links they skip and in what they read
// off the resulting reach vector, so they share one implementation.
type fixpoint struct {
	// avoid is a node whose out-links are not traversed (flows may arrive
	// at it but not continue); NoNode disables it. Waypoint checks use it.
	avoid netgraph.NodeID
	// deps, when non-nil, records every link the fixpoint examined. This
	// is the dependency set incremental monitors key dirtiness on: a label
	// change on any link NOT recorded here cannot alter the result,
	// because that link's source node was unreachable and nothing else
	// changed. (Any new path out of the reached region must begin with an
	// edge out of a reached node, and all such edges are recorded —
	// including currently empty-labelled ones.)
	deps *bitset.Set
	// visited, when non-nil, collects the nodes something arrived at
	// (the injection node first) — exactly the nodes whose reach sets
	// the dependency summaries read, collected here so summary builders
	// need not scan the whole node space for non-nil reach entries.
	visited *[]netgraph.NodeID
}

// run executes the fixpoint from node from and returns the full reach
// vector: reach[v] is the set of atoms that can arrive at v starting from
// from (nil where nothing arrives). Injection at from is unrestricted (all
// atoms), so reach[from] is conceptually the full space.
//
// The vector and its sets alias sc and stay valid only until sc's next
// use; callers that outlive the scratch must clone what they keep. The
// worklist is a head-index ring over sc's retained backing array — the
// former `queue = queue[1:]` idiom allocated a fresh worklist per run
// and bled capacity at the front on every pop, re-copying on append
// once it ran out (O(n²)-prone on long relaxation chains; see
// BenchmarkReachSummaryScratch for the regression guard).
func (o fixpoint) run(n *core.Network, from netgraph.NodeID, sc *Scratch) []*bitset.Set {
	g := n.Graph()
	reach := sc.beginFix(g.NumNodes())
	sc.queue = append(sc.queue, from)
	sc.inq[from] = sc.fixGen
	if o.visited != nil {
		*o.visited = append(*o.visited, from)
	}
	scratch := sc.hop // reused per hop; UnionWith below copies out of it

	for sc.head < len(sc.queue) {
		v := sc.queue[sc.head]
		sc.head++
		sc.inq[v] = 0
		if v == o.avoid {
			continue // flows must not pass through
		}
		for _, lid := range g.Out(v) {
			if o.deps != nil {
				o.deps.Add(int(lid))
			}
			label := n.Label(lid)
			if label.Empty() {
				continue
			}
			var contribution *bitset.Set
			if v == from {
				// Everything the first hop admits.
				contribution = label
			} else {
				scratch.AndOf(reach[v], label)
				if scratch.Empty() {
					continue
				}
				contribution = scratch
			}
			w := g.Link(lid).Dst
			if reach[w] == nil {
				reach[w] = sc.reachSet(w, n.MaxAtomID())
				if o.visited != nil && w != from {
					*o.visited = append(*o.visited, w)
				}
			}
			before := reach[w].Len()
			reach[w].UnionWith(contribution)
			if reach[w].Len() != before && sc.inq[w] != sc.fixGen && w != from {
				sc.queue = append(sc.queue, w)
				sc.inq[w] = sc.fixGen
			}
		}
	}
	return reach
}

// cloneAt extracts one entry of a scratch-aliased reach vector as an
// independent set, never returning nil — what the one-shot entry points
// hand out after releasing their pooled scratch.
func cloneAt(reach []*bitset.Set, to netgraph.NodeID) *bitset.Set {
	if reach[to] == nil {
		return bitset.New(0)
	}
	return reach[to].Clone()
}

// Reachable computes the set of atoms (packets) that can flow from node
// from to node to along some forwarding path — the paper's design goal 1:
// "efficiently find all packets that can reach a node B from A" in one
// query rather than one SAT call per witness.
func Reachable(n *core.Network, from, to netgraph.NodeID) *bitset.Set {
	sc := GetScratch()
	defer PutScratch(sc)
	return cloneAt(fixpoint{avoid: netgraph.NoNode}.run(n, from, sc), to)
}

// ReachFrom computes the full single-source reach vector (reach[v] may be
// nil where nothing arrives), recording examined links into deps when it
// is non-nil. Group queries such as isolation evaluate one fixpoint per
// source instead of one per pair. The vector is backed by a scratch
// private to this call, so the caller owns it outright.
func ReachFrom(n *core.Network, from netgraph.NodeID, deps *bitset.Set) []*bitset.Set {
	return fixpoint{avoid: netgraph.NoNode, deps: deps}.run(n, from, NewScratch())
}

// LinkSketch pairs a dep link with the coarse sketch of atom ids whose
// label changes there could alter the query's result.
type LinkSketch struct {
	Link   netgraph.LinkID
	Sketch intervalmap.Sketch
}

// DepRanges refines a link-level dependency set to atom granularity: for
// each sketched dep link, the atoms that matter on it, ascending by link
// id. A dep link absent from the list has no usable sketch — every atom
// on it must be treated as relevant. Entries are inlined pointer-free
// values in one backing array, so the hundreds of thousands of sketches
// a loaded monitor derives cost one allocation per evaluation and
// nothing at garbage collection time.
type DepRanges []LinkSketch

// ReachSummary is the monitor-facing fixpoint: one single-source run
// (avoiding avoid's out-links; netgraph.NoNode disables that) that
// records the link-level dependency set into deps and returns the reach
// vector together with the per-link atom-range sketches refining deps.
//
// The sound per-link summary is the set of atoms that can arrive at the
// link's source (everything, for the injection node): any delta that
// changes the query's result must add or remove some atom a on a dep
// link l with a ∈ reach[src(l)] — a new derivation's first new edge
// leaves an already-reached node, and a lost derivation loses an edge
// its flow actually used. Atoms outside the sketch therefore cannot
// flip the verdict, no matter which dep links they move on.
//
// Links whose sketch would cover every current atom are omitted (the
// injection node's out-links always are): a summary as wide as
// "everything" is dead weight, and consumers already treat missing
// sketches as all-atoms-relevant. The sketches are only valid for atoms
// that existed at evaluation time — consumers must pair them with
// core.Network.AtomAllocSeq and conservatively treat younger atoms as
// hits.
//
// The reach vector aliases sc and is valid only until sc's next use —
// read the verdict off it before reusing the scratch. The DepRanges is
// independently allocated and may be retained.
func ReachSummary(n *core.Network, from, avoid netgraph.NodeID, deps *bitset.Set, sc *Scratch) ([]*bitset.Set, DepRanges) {
	reach := fixpoint{avoid: avoid, deps: deps, visited: &sc.visited}.run(n, from, sc)
	visited := sc.visited

	g := n.Graph()
	maxAtoms := n.MaxAtomID()
	out := make(DepRanges, 0, deps.Len())
	scratch := &sc.rs
	var sk intervalmap.Sketch
	for _, v := range visited {
		if v == from || v == avoid {
			continue // from: all atoms admitted; avoid: out-links not deps
		}
		scratch.Reset()
		if int(v) < len(reach) && reach[v] != nil {
			reach[v].ForEach(func(a int) bool {
				scratch.AppendID(intervalmap.AtomID(a))
				return true
			})
		}
		if scratch.CoversAll(maxAtoms) {
			continue // no more selective than link-level tracking
		}
		sk.SetFrom(scratch)
		for _, l := range g.Out(v) {
			if deps.Contains(int(l)) {
				out = append(out, LinkSketch{Link: l, Sketch: sk})
			}
		}
	}
	// Visited order is discovery order; consumers merge against the
	// ascending deps bitset, so order by link id. (slices.SortFunc, not
	// sort.Slice: the reflection-based sort costs three allocations per
	// call, which would dominate a warmed-scratch evaluation.)
	slices.SortFunc(out, func(a, b LinkSketch) int { return int(a.Link) - int(b.Link) })
	return reach, out
}

// AffectedByLinkFailure answers the paper's exemplar "what if" query
// (§4.3.2): what is the fate of packets that are using a link that fails?
// For Delta-net the affected packets are available in constant time as
// label[link]; the subgraph of all flows involving those packets is the
// restriction of the edge-labelled graph to edges whose label intersects
// it. The returned Subgraph represents, via one labelled graph, all
// forwarding graphs Veriflow would have to construct per affected
// equivalence class.
func AffectedByLinkFailure(n *core.Network, link netgraph.LinkID) *Subgraph {
	affected := n.Label(link)
	sub := &Subgraph{Affected: affected.Clone()}
	if affected.Empty() {
		return sub
	}
	g := n.Graph()
	for _, l := range g.Links() {
		lbl := n.Label(l.ID)
		if lbl.Intersects(affected) {
			sub.Links = append(sub.Links, l.ID)
			sub.Labels = append(sub.Labels, bitset.Intersect(lbl, affected))
		}
	}
	return sub
}

// LinkFailureCounts returns the two sizes of AffectedByLinkFailure's
// subgraph, its affected atoms and its labelled edges, without building
// it: no label clone and no intersection set per edge, so it allocates
// nothing.
func LinkFailureCounts(n *core.Network, link netgraph.LinkID) (atoms, edges int) {
	affected := n.Label(link)
	if affected.Empty() {
		return 0, 0
	}
	for _, l := range n.Graph().Links() {
		if n.Label(l.ID).Intersects(affected) {
			edges++
		}
	}
	return affected.Len(), edges
}

// Subgraph is the restriction of the edge-labelled graph to a set of
// atoms: the compact representation of "all flows of packets through the
// network that would be affected" by an event (§4.3.2).
type Subgraph struct {
	Affected *bitset.Set // the atoms of interest
	Links    []netgraph.LinkID
	Labels   []*bitset.Set // parallel to Links: label ∩ Affected
}

// NumEdges returns the number of labelled edges in the subgraph.
func (s *Subgraph) NumEdges() int { return len(s.Links) }

// LoopsInSubgraph runs per-atom loop detection restricted to the affected
// atoms of a subgraph (the "+Loops" column of Table 4).
func LoopsInSubgraph(n *core.Network, sub *Subgraph) []Loop {
	var loops []Loop
	g := n.Graph()
	sc := GetScratch()
	defer PutScratch(sc)
	sub.Affected.ForEach(func(atom int) bool {
		a := intervalmap.AtomID(atom)
		// Walk from the source of each subgraph edge carrying the atom.
		for i, lid := range sub.Links {
			if !sub.Labels[i].Contains(atom) {
				continue
			}
			if loop, ok := traceLoop(n, g.Link(lid).Src, a, sc); ok {
				loops = append(loops, loop)
				return true // one loop per atom suffices
			}
		}
		return true
	})
	return loops
}

// BlackHole describes packets that arrive at a node with no matching rule:
// the node receives atoms on some in-link whose forwarding function is
// undefined there (distinct from an explicit drop, which is intentional).
type BlackHole struct {
	Node  netgraph.NodeID
	Atoms *bitset.Set
}

// BlackHoleAtoms returns the atoms some in-link delivers to v that v
// neither forwards nor drops — v's black-hole traffic. The result is never
// nil; an empty set means v handles everything it receives.
func BlackHoleAtoms(n *core.Network, v netgraph.NodeID) *bitset.Set {
	return BlackHoleAtomsInto(n, v, bitset.New(0))
}

// BlackHoleAtomsInto is BlackHoleAtoms computed into dst (overwritten and
// returned), so incremental monitors re-checking a handful of candidate
// nodes per delta reuse one set instead of allocating one per node.
func BlackHoleAtomsInto(n *core.Network, v netgraph.NodeID, dst *bitset.Set) *bitset.Set {
	g := n.Graph()
	dst.Clear()
	for _, lid := range g.In(v) {
		dst.UnionWith(n.Label(lid))
	}
	if dst.Empty() {
		return dst
	}
	// Subtract everything v forwards or drops.
	for _, lid := range g.Out(v) {
		dst.DifferenceWith(n.Label(lid))
	}
	return dst
}

// FindBlackHoles reports, for every node, the atoms that some in-link
// delivers but that no rule at the node matches. Edge nodes that are
// legitimate traffic sinks can be excluded via the sinks set (nil means no
// exclusions).
func FindBlackHoles(n *core.Network, sinks map[netgraph.NodeID]bool) []BlackHole {
	g := n.Graph()
	var out []BlackHole
	for v := netgraph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if sinks[v] || (g.DropNode() != netgraph.NoNode && v == g.DropNode()) {
			continue
		}
		if atoms := BlackHoleAtoms(n, v); !atoms.Empty() {
			out = append(out, BlackHole{Node: v, Atoms: atoms})
		}
	}
	return out
}

// Isolated verifies a traffic-isolation property (§3.3: "traffic isolation
// properties"): no packet in the given atom set can flow from any node in
// groupA to any node in groupB. It returns the first violating atom set
// found (nil when isolated).
func Isolated(n *core.Network, groupA, groupB []netgraph.NodeID, atoms *bitset.Set) *bitset.Set {
	inB := map[netgraph.NodeID]bool{}
	for _, b := range groupB {
		inB[b] = true
	}
	for _, a := range groupA {
		for _, b := range groupB {
			r := Reachable(n, a, b)
			if atoms != nil {
				r.IntersectWith(atoms)
			}
			if !r.Empty() {
				return r
			}
		}
	}
	return nil
}

// Waypoint verifies that every packet flowing from from to to traverses
// the waypoint node: removing the waypoint's out-links from consideration,
// nothing must remain reachable. It returns the atoms that bypass the
// waypoint (empty when the property holds).
func Waypoint(n *core.Network, from, to, waypoint netgraph.NodeID) *bitset.Set {
	sc := GetScratch()
	defer PutScratch(sc)
	return cloneAt(fixpoint{avoid: waypoint}.run(n, from, sc), to)
}
