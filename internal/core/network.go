package core

import (
	"errors"
	"fmt"
	"unsafe"

	"deltanet/internal/bitset"
	"deltanet/internal/intervalmap"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
)

// Options configure a Network.
type Options struct {
	// Space is the match-field space; the zero value selects 32-bit IPv4.
	Space ipnet.Space

	// GC enables the atom garbage-collection extension sketched in
	// §3.2.2: when a rule removal leaves an interval boundary unused by
	// any live rule, the boundary is deleted from M, the two adjacent
	// atoms merge, and the freed atom id is recycled. This bounds atom
	// growth under long insert/remove churn at a small bookkeeping cost.
	GC bool
}

// Network is the Delta-net engine for one data plane. It is not safe for
// concurrent mutation; concurrent read-only queries are safe between
// mutations.
type Network struct {
	graph *netgraph.Graph
	space ipnet.Space
	gc    bool

	m      *intervalmap.Map
	labels []*bitset.Set  // indexed by LinkID
	owner  []ownerAtom    // indexed by AtomID; flat SoA tables, see owner.go
	store  ruleStore      // dense slot-indexed rule arena and interval entries
	bounds map[uint64]int // live interval entries per bound, only populated when gc

	atomBuf  []intervalmap.AtomID    // scratch for ⟦interval(r)⟧ expansions
	splitBuf []intervalmap.SplitPair // scratch for CREATE_ATOMS+ split pairs

	// Batch-pipeline scratch, retained across ApplyBatch calls (the
	// engine is single-writer, so one set per network suffices). See
	// batch.go for the phase each buffer serves.
	batchItems   []batchItem
	batchPending map[RuleID]int32
	batchPairs   []atomOp
	pairsTmp     []atomOp
	batchRuns    []int32
	batchResults []atomResult
	replayTmp    replayScratch

	// statistics
	splits int64 // total atom splits performed
	merges int64 // total atom merges performed (GC)
}

// NewNetwork returns an engine over the given topology graph. The graph may
// keep growing (new nodes/links) while the engine is in use; rules must
// reference nodes and links that exist at insertion time.
func NewNetwork(g *netgraph.Graph, opts Options) *Network {
	space := opts.Space
	if space.Bits == 0 {
		space = ipnet.IPv4
	}
	n := &Network{
		graph: g,
		space: space,
		gc:    opts.GC,
		m:     intervalmap.New(space),
		store: newRuleStore(),
	}
	if n.gc {
		n.bounds = map[uint64]int{}
	}
	// Atom 0 (the full space) exists from the start.
	n.owner = append(n.owner, ownerAtom{})
	return n
}

// Graph returns the topology graph the engine labels.
func (n *Network) Graph() *netgraph.Graph { return n.graph }

// Space returns the match-field space.
func (n *Network) Space() ipnet.Space { return n.space }

// NumRules returns the number of live rules.
func (n *Network) NumRules() int { return n.store.len() }

// NumAtoms returns the current number of atoms.
func (n *Network) NumAtoms() int { return n.m.NumAtoms() }

// MaxAtomID returns one past the largest atom id in use; bitsets returned
// by Label are meaningful for ids below this.
func (n *Network) MaxAtomID() int { return n.m.MaxID() }

// Splits returns the cumulative number of atom splits performed.
func (n *Network) Splits() int64 { return n.splits }

// AtomAllocSeq returns the engine's atom allocation counter: the number
// of atom allocations performed so far, recycled ids included. Callers
// caching per-atom conclusions (the monitor's dependency range sketches)
// record it at evaluation time and treat any atom with a newer BornSeq
// as unknown to the cache.
func (n *Network) AtomAllocSeq() int64 { return n.m.AllocSeq() }

// AtomBornSeq returns the allocation stamp of an atom id's most recent
// allocation (0 for ids never allocated); see AtomAllocSeq.
func (n *Network) AtomBornSeq(id intervalmap.AtomID) int64 { return n.m.BornSeq(id) }

// Merges returns the cumulative number of atom merges performed by GC.
func (n *Network) Merges() int64 { return n.merges }

// Rule returns the live rule with the given id.
func (n *Network) Rule(id RuleID) (Rule, bool) {
	slot, ok := n.store.slotOf(id)
	if !ok {
		return Rule{}, false
	}
	return n.ruleAt(slot), true
}

// Rules calls fn for every live rule until fn returns false. Iteration
// order is unspecified. It walks the arena, not the id table: a released
// slot names no interval entry.
func (n *Network) Rules(fn func(r Rule) bool) {
	for slot := int32(0); slot < n.store.n; slot++ {
		if n.store.rec(slot).iv != noSlot && !fn(n.ruleAt(slot)) {
			return
		}
	}
}

// ruleAt expands the arena record in slot back into a Rule.
func (n *Network) ruleAt(slot int32) Rule {
	rec := n.store.rec(slot)
	iv := &n.store.ivs[rec.iv]
	return Rule{ID: n.store.id(slot), Source: n.graph.Link(rec.link).Src, Link: rec.link,
		Match: ipnet.Interval{Lo: n.m.Key(iv.lo), Hi: n.m.Key(iv.hi)}, Priority: rec.prio}
}

// Label returns the atom set of a link: the packets (as atoms) that the
// data plane currently forwards along it. This is the constant-time,
// network-wide flow API of §3.3. The returned set is live and owned by the
// engine; callers must treat it as read-only and must not retain it across
// mutations. Links with no rules yet return an empty set.
func (n *Network) Label(link netgraph.LinkID) *bitset.Set {
	if int(link) < len(n.labels) && n.labels[link] != nil {
		return n.labels[link]
	}
	return emptySet
}

var emptySet = bitset.New(0)

func (n *Network) labelOf(link netgraph.LinkID) *bitset.Set {
	for int(link) >= len(n.labels) {
		n.labels = append(n.labels, nil)
	}
	if n.labels[link] == nil {
		n.labels[link] = bitset.New(64)
	}
	return n.labels[link]
}

// ownerAt returns the atom's owner table, growing the table directory as
// needed. The returned pointer is invalidated by a later ownerAt call
// that grows the directory — derive it fresh after any growth point.
func (n *Network) ownerAt(atom intervalmap.AtomID) *ownerAtom {
	for int(atom) >= len(n.owner) {
		n.owner = appendGrow(n.owner, ownerAtom{})
	}
	return &n.owner[atom]
}

// AtomInterval returns the half-closed interval currently denoted by an
// atom (linear in the number of atoms; for reporting and tests).
func (n *Network) AtomInterval(id intervalmap.AtomID) (ipnet.Interval, bool) {
	return n.m.IntervalOf(id)
}

// AtomOf returns the atom containing the given address.
func (n *Network) AtomOf(addr uint64) intervalmap.AtomID { return n.m.AtomOf(addr) }

// AtomsOverlapping returns the atoms intersecting iv without mutating the
// partition; for read-only queries.
func (n *Network) AtomsOverlapping(iv ipnet.Interval) []intervalmap.AtomID {
	return n.m.AtomsOverlapping(iv, nil)
}

// ForEachAtom iterates the current atom partition in address order.
func (n *Network) ForEachAtom(fn func(id intervalmap.AtomID, iv ipnet.Interval) bool) {
	n.m.ForEachAtom(fn)
}

// ForwardLink returns the link along which a packet in atom α is forwarded
// from node v — the link of the highest-priority rule owning α at v — or
// netgraph.NoLink if no rule at v matches. Forwarding is deterministic:
// there is at most one such link per (node, atom).
func (n *Network) ForwardLink(v netgraph.NodeID, atom intervalmap.AtomID) netgraph.LinkID {
	if int(atom) >= len(n.owner) {
		return netgraph.NoLink
	}
	return n.linkOf(n.owner[atom].top(v))
}

// linkOf returns the link of the rule in slot, or NoLink for noSlot.
func (n *Network) linkOf(slot int32) netgraph.LinkID {
	if slot == noSlot {
		return netgraph.NoLink
	}
	return n.store.rec(slot).link
}

// Errors returned by the mutation API.
var (
	ErrDuplicateRule = errors.New("core: rule id already present")
	ErrUnknownRule   = errors.New("core: no rule with that id")
	ErrEmptyMatch    = errors.New("core: rule match interval is empty")
	ErrOutOfSpace    = errors.New("core: rule match interval outside address space")
	ErrBadLink       = errors.New("core: rule link does not originate at rule source")
	ErrBadNode       = errors.New("core: rule source is not a node of the graph")
)

// checkTopology holds a rule's topology references to the graph: the link
// must exist and leave the rule's source (which a link's endpoints already
// are, so a real link needs no node check); a drop rule names no link, so
// its source is checked directly, before any drop link is hung off it.
func (n *Network) checkTopology(r *Rule) error {
	if r.Link == netgraph.NoLink {
		if uint(r.Source) >= uint(n.graph.NumNodes()) {
			return fmt.Errorf("%w: rule %d source %d", ErrBadNode, r.ID, r.Source)
		}
	} else if uint(r.Link) >= uint(n.graph.NumLinks()) || n.graph.Link(r.Link).Src != r.Source {
		return fmt.Errorf("%w: rule %d source %d link %d", ErrBadLink, r.ID, r.Source, r.Link)
	}
	return nil
}

// InsertRule applies Algorithm 1: it creates any needed atoms (splitting at
// most two existing ones), copies owner state for split atoms, then
// reassigns ownership of every atom in ⟦interval(r)⟧ by priority, updating
// edge labels. It returns the delta-graph of the update.
//
// The amortized cost is O(A log M) where A = |⟦interval(r)⟧| and M is the
// maximum number of overlapping rules at the source node (Theorem 1).
func (n *Network) InsertRule(r Rule) (*Delta, error) {
	d := &Delta{}
	if err := n.insertRule(r, d); err != nil {
		return nil, err
	}
	return d, nil
}

// InsertRuleInto is InsertRule reusing a caller-provided Delta to avoid
// allocation on hot replay paths.
func (n *Network) InsertRuleInto(r Rule, d *Delta) error {
	return n.insertRule(r, d)
}

func (n *Network) insertRule(r Rule, d *Delta) error {
	d.reset(r.ID, OpInsert)
	if _, dup := n.store.slotOf(r.ID); dup {
		return fmt.Errorf("%w: %d", ErrDuplicateRule, r.ID)
	}
	if r.Match.Empty() {
		return ErrEmptyMatch
	}
	if !n.space.Contains(r.Match) {
		return fmt.Errorf("%w: %v", ErrOutOfSpace, r.Match)
	}
	if err := n.checkTopology(&r); err != nil {
		return err
	}
	if r.Link == netgraph.NoLink {
		r.Link = n.graph.DropLink(r.Source)
	}

	// Steps 1–2: CREATE_ATOMS+ and atom splitting (Algorithm 1, lines 2–9),
	// for a match no live rule has.
	slot := n.store.alloc(&r, n.record(&r, d))
	k := r.key()

	// Step 3: ownership reassignment over ⟦interval(r)⟧ (lines 10–23).
	n.atomBuf = n.atomsOf(n.store.rec(slot).iv)
	newLabel := n.labelOf(r.Link)
	for _, alpha := range n.atomBuf {
		prev := n.ownerAt(alpha).insert(&n.store, r.Source, slot, k)
		if prev == noSlot || cmpPrioKey(n.store.keyOf(prev), k) < 0 {
			newLabel.Add(int(alpha))
			d.Added = append(d.Added, LinkAtom{Link: r.Link, Atom: alpha})
			if prevLink := n.linkOf(prev); prevLink != netgraph.NoLink && prevLink != r.Link {
				n.labelOf(prevLink).Remove(int(alpha))
				d.Removed = append(d.Removed, LinkAtom{Link: prevLink, Atom: alpha})
			}
		}
	}
	return nil
}

// ivKey is the interval index's key for a match.
func ivKey(lo, hi uint64) uint64 { return lo*0xBF58476D1CE4E5B9 ^ hi }

// ivKeyOf reads interval entry e's key back from its bounds in M.
func (n *Network) ivKeyOf(e int32) uint64 {
	iv := &n.store.ivs[e]
	return ivKey(n.m.Key(iv.lo), n.m.Key(iv.hi))
}

// findIV returns the interval index position holding match, or the
// empty position that ends its probe run.
func (n *Network) findIV(match ipnet.Interval) (int, bool) {
	return n.store.ivIdx.find(ivKey(match.Lo, match.Hi), func(e int32) bool {
		iv := &n.store.ivs[e]
		return n.m.Key(iv.lo) == match.Lo && n.m.Key(iv.hi) == match.Hi
	})
}

// record returns the interval entry for r's match, with one more
// reference for r's arena record. A match no live entry has gets a new
// entry: CREATE_ATOMS+ finds or makes its bounds (|Δ| ≤ 2), and owner state
// splits as Algorithm 1's lines 3–9 do — each new atom α′ inherits α's
// owner table, and every link that carried α also carries α′.
func (n *Network) record(r *Rule, d *Delta) int32 {
	s := &n.store
	i, ok := n.findIV(r.Match)
	if ok {
		e := s.ivIdx.table[i] - 1
		s.ivs[e].refs++
		return e
	}
	var lo, hi intervalmap.Bound
	n.splitBuf, lo, hi = n.m.CreateBounds(r.Match, n.splitBuf[:0])
	d.NewAtoms = append(d.NewAtoms, n.splitBuf...)
	n.splits += int64(len(n.splitBuf))
	for _, sp := range n.splitBuf {
		newOwner := n.ownerAt(sp.New) // may grow the directory: take first
		oldOwner := &n.owner[sp.Old]
		newOwner.cloneFrom(oldOwner)
		oldOwner.eachTop(func(slot int32) { n.labelOf(s.rec(slot).link).Add(int(sp.New)) })
	}
	e := int32(len(s.ivs))
	if k := len(s.ivFree); k > 0 {
		e, s.ivFree = s.ivFree[k-1], s.ivFree[:k-1]
	} else {
		s.ivs = appendGrow(s.ivs, ivRec{})
	}
	s.ivs[e] = ivRec{lo: lo, hi: hi, refs: 1}
	if s.ivIdx.add(i, e) {
		for _, v := range s.ivIdx.grow() {
			if v != 0 {
				s.ivIdx.put(n.ivKeyOf(v-1), v)
			}
		}
	}
	if n.gc {
		n.bounds[r.Match.Lo]++
		n.bounds[r.Match.Hi]++
	}
	return e
}

// release frees slot and drops its interval entry's reference. The last
// reference frees the entry and, under GC, collects each of its bounds no
// other entry names.
func (n *Network) release(slot int32) {
	s := &n.store
	e := s.rec(slot).iv
	s.releaseSlot(slot)
	if s.ivs[e].refs--; s.ivs[e].refs > 0 {
		return
	}
	lo, hi := n.m.Key(s.ivs[e].lo), n.m.Key(s.ivs[e].hi)
	x := &s.ivIdx
	for i, j := x.cut(ivKey(lo, hi), e); j >= 0; j = x.next(j) {
		i = x.fill(i, j, n.ivKeyOf(x.table[j]-1))
	}
	s.ivs[e] = ivRec{}
	s.ivFree = append(s.ivFree, e)
	if n.gc {
		n.collectBound(lo)
		n.collectBound(hi)
	}
}

// atomsOf expands interval entry e to its atoms into atomBuf, walking the
// boundary tree from the entry's lower-bound handle.
func (n *Network) atomsOf(e int32) []intervalmap.AtomID {
	iv := &n.store.ivs[e]
	return n.m.AtomsBetween(iv.lo, iv.hi, n.atomBuf[:0])
}

// RemoveRule applies Algorithm 2: for every atom of the rule's interval it
// removes the rule from the owner BST and, if the rule owned the atom,
// transfers ownership (and the edge label) to the next-highest-priority
// rule. It returns the delta-graph of the update.
func (n *Network) RemoveRule(id RuleID) (*Delta, error) {
	d := &Delta{}
	if err := n.removeRule(id, d); err != nil {
		return nil, err
	}
	return d, nil
}

// RemoveRuleInto is RemoveRule reusing a caller-provided Delta.
func (n *Network) RemoveRuleInto(id RuleID, d *Delta) error {
	return n.removeRule(id, d)
}

func (n *Network) removeRule(id RuleID, d *Delta) error {
	d.reset(id, OpRemove)
	slot, ok := n.store.slotOf(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownRule, id)
	}
	r := n.ruleAt(slot) // value copy: survives the release below
	k := r.key()

	n.atomBuf = n.atomsOf(n.store.rec(slot).iv)
	ownLabel := n.labelOf(r.Link)
	for _, alpha := range n.atomBuf {
		if wasTop, next := n.owner[alpha].remove(&n.store, r.Source, k); wasTop {
			ownLabel.Remove(int(alpha))
			d.Removed = append(d.Removed, LinkAtom{Link: r.Link, Atom: alpha})
			if nextLink := n.linkOf(next); nextLink != netgraph.NoLink {
				n.labelOf(nextLink).Add(int(alpha))
				d.Added = append(d.Added, LinkAtom{Link: nextLink, Atom: alpha})
			}
		}
	}

	n.release(slot)
	return nil
}

// CheckInvariants validates the engine's internal invariants (§3.2): the
// owner invariant, label consistency with owners, and atom-partition
// integrity. It is O(atoms × nodes) and intended for tests. It returns ""
// when all invariants hold, else a description of the first violation.
func (n *Network) CheckInvariants() string {
	// Owner tables are structurally sound and hold only rules at their
	// own source node.
	for i := range n.owner {
		oa := &n.owner[i]
		if msg := oa.checkInvariants(&n.store, n.graph); msg != "" {
			return fmt.Sprintf("atom %d: %s", i, msg)
		}
	}
	// The id table indexes exactly the live arena records under the ids
	// their records and columns rebuild, a released slot is zero in its
	// page's column, each live record names a live interval entry whose
	// bound handles name keys of M in order, and every live rule is in the
	// owner table of every atom of its interval.
	s := &n.store
	if len(s.his) != len(s.pages) {
		return fmt.Sprintf("rule store has %d id columns for %d pages", len(s.his), len(s.pages))
	}
	live, refs := 0, make([]int32, len(s.ivs))
	for slot := int32(0); slot < s.n; slot++ {
		rec := s.rec(slot)
		if rec.iv == noSlot {
			if hi := s.hi(slot); hi != 0 {
				return fmt.Sprintf("released rule store slot %d holds high id half %#x in its column", slot, hi)
			}
			continue
		}
		live++
		if rec.iv < 0 || int(rec.iv) >= len(s.ivs) || s.ivs[rec.iv].refs <= 0 {
			return fmt.Sprintf("rule store slot %d (id %d) names interval entry %d, which is not live", slot, s.id(slot), rec.iv)
		}
		refs[rec.iv]++
		if iv := s.ivs[rec.iv]; !n.m.Live(iv.lo) || !n.m.Live(iv.hi) || n.m.Key(iv.lo) >= n.m.Key(iv.hi) {
			return fmt.Sprintf("rule store slot %d (id %d): bound handles %d, %d do not name keys lo < hi",
				slot, s.id(slot), iv.lo, iv.hi)
		}
		if got, _ := s.slotOf(s.id(slot)); got != slot {
			return fmt.Sprintf("rule store slot %d holds id %d, index says slot %d", slot, s.id(slot), got)
		}
		r := n.ruleAt(slot)
		for _, alpha := range n.m.Atoms(r.Match, nil) {
			if int(alpha) >= len(n.owner) {
				return fmt.Sprintf("atom %d of %v has no owner table", alpha, r)
			}
			if got := n.owner[alpha].get(&n.store, r.Source, r.key()); got != slot {
				return fmt.Sprintf("owner invariant broken for %v atom %d", r, alpha)
			}
		}
	}
	if got := countEntries(s.ids.table); got != live || s.ids.live != live {
		return fmt.Sprintf("id table holds %d entries (counted %d) for %d live rules", got, s.ids.live, live)
	}
	// Each entry's refs count the records naming it, and the interval index
	// finds every live entry and holds nothing else.
	liveIVs := 0
	for e, iv := range s.ivs {
		if iv.refs != refs[e] {
			return fmt.Sprintf("interval entry %d has refs %d, but %d records name it", e, iv.refs, refs[e])
		}
		if iv.refs == 0 {
			continue
		}
		liveIVs++
		if i, ok := n.findIV(ipnet.Interval{Lo: n.m.Key(iv.lo), Hi: n.m.Key(iv.hi)}); !ok || s.ivIdx.table[i] != int32(e)+1 {
			return fmt.Sprintf("interval index does not find entry %d", e)
		}
	}
	if got := countEntries(s.ivIdx.table); got != liveIVs || s.ivIdx.live != liveIVs || len(s.ivFree) != len(s.ivs)-liveIVs {
		return fmt.Sprintf("interval index holds %d entries (counted %d) for %d live entries; %d of %d listed free",
			got, s.ivIdx.live, liveIVs, len(s.ivFree), len(s.ivs))
	}
	// Labels match owners exactly: bit (link, α) is set iff the owner of
	// α at src(link) forwards along link.
	want := map[LinkAtom]bool{}
	total := 0
	n.m.ForEachAtom(func(alpha intervalmap.AtomID, _ ipnet.Interval) bool {
		if int(alpha) >= len(n.owner) {
			return true
		}
		n.owner[alpha].eachTop(func(slot int32) {
			want[LinkAtom{Link: n.store.rec(slot).link, Atom: alpha}] = true
			total++
		})
		return true
	})
	got := 0
	for link := range n.labels {
		if n.labels[link] == nil {
			continue
		}
		ok := true
		n.labels[link].ForEach(func(a int) bool {
			if !want[LinkAtom{Link: netgraph.LinkID(link), Atom: intervalmap.AtomID(a)}] {
				ok = false
				return false
			}
			got++
			return true
		})
		if !ok {
			return fmt.Sprintf("label bit set on link %d without matching owner", link)
		}
	}
	if got != total {
		return fmt.Sprintf("label bits %d != owner-derived bits %d", got, total)
	}
	// Dead atoms (when GC enabled) hold no owner state.
	if n.gc {
		live := map[intervalmap.AtomID]bool{}
		n.m.ForEachAtom(func(id intervalmap.AtomID, _ ipnet.Interval) bool {
			live[id] = true
			return true
		})
		for id := range n.owner {
			if !n.owner[id].empty() && !live[intervalmap.AtomID(id)] {
				return fmt.Sprintf("dead atom %d still owns rules", id)
			}
		}
	}
	return ""
}

func countEntries(table []int32) int {
	c := 0
	for _, e := range table {
		if e != 0 {
			c++
		}
	}
	return c
}

// MemoryBytes estimates the engine's heap footprint in bytes, the total
// of MemoryRows. Element sizes come from unsafe.Sizeof, so the estimate
// follows the types; TestMemoryBytesTracksHeap pins it to the measured
// heap. It is the self-accounting used by the Appendix D memory
// experiment; the harness additionally reports runtime.MemStats deltas.
func (n *Network) MemoryBytes() int64 { return n.MemoryRows().Total() }

// MemoryRows attributes the engine's heap to its structures, one row
// (bytes, capacity included) each.
type MemoryRows struct {
	Records   int64 // rule arena pages, their id-high columns, both directories and the free list
	Intervals int64 // interval entries, their free list and index
	Index     int64 // id → slot table
	OwnerDir  int64 // one ownerAtom header per atom id
	Cells     int64 // owner cell directories: source bitmaps, cells, one-rule cells' rules inline
	Slabs     int64 // owner rule-slot slabs: cells of two or more rules
	Labels    int64 // per-link atom bitsets
	Tree      int64 // boundary tree nodes and, with GC, boundary refcounts
	Stamps    int64 // the interval map's born stamp per atom id and free ids
}

// Total is the sum of the rows.
func (r MemoryRows) Total() int64 {
	return r.Records + r.Intervals + r.Index + r.OwnerDir + r.Cells + r.Slabs + r.Labels + r.Tree + r.Stamps
}

// MemoryRows returns the engine's heap footprint by structure.
func (n *Network) MemoryRows() MemoryRows {
	r := MemoryRows{
		Records: int64(len(n.store.pages))*int64(unsafe.Sizeof([pageSize]ruleRec{})) + int64(cap(n.store.pages)+cap(n.store.his))*8 + int64(cap(n.store.free))*4,
		Intervals: int64(cap(n.store.ivs))*int64(unsafe.Sizeof(ivRec{})) + int64(cap(n.store.ivFree))*4 +
			int64(cap(n.store.ivIdx.table))*4,
		Index:    int64(cap(n.store.ids.table)) * 4,
		OwnerDir: int64(cap(n.owner)) * int64(unsafe.Sizeof(ownerAtom{})),
		Labels:   int64(cap(n.labels)) * int64(unsafe.Sizeof((*bitset.Set)(nil))),
		Tree:     int64(n.m.NumAtoms()+1) * 32, // arena boundary-tree nodes
		Stamps:   int64(n.m.MaxID())*8 + int64(n.m.MaxID()-n.m.NumAtoms())*4,
	}
	for _, l := range n.labels {
		if l != nil {
			r.Labels += int64(l.WordBytes()) + int64(unsafe.Sizeof(*l))
		}
	}
	for _, h := range n.store.his {
		if h != nil {
			r.Records += int64(unsafe.Sizeof(*h))
		}
	}
	for i := range n.owner {
		r.Cells += int64(cap(n.owner[i].cells)) * 4
		r.Slabs += int64(cap(n.owner[i].slab)) * 4
	}
	if n.bounds != nil {
		r.Tree += mapBytes(len(n.bounds), unsafe.Sizeof(uint64(0))+unsafe.Sizeof(int(0)))
	}
	return r
}

// mapBytes estimates a Go map's heap footprint at n entries of the given
// key+value size. The runtime's swiss tables keep slots in groups of
// eight (one control byte per slot, the slot padded to the key's
// alignment), double when 7/8 full and never shrink, so a map grown to n
// entries holds the next power of two of slots at or above 8n/7.
func mapBytes(n int, kv uintptr) int64 {
	slots := 8
	for slots*7/8 < n {
		slots *= 2
	}
	return int64(slots) * int64((kv+7)&^7+1)
}
