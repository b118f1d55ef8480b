// Package core implements the Delta-net engine: the atom representation
// (paper §3.1) and the incremental edge-labelling algorithms for rule
// insertion and removal (paper §3.2, Algorithms 1 and 2).
//
// The engine maintains three global structures, exactly as the paper
// describes:
//
//   - M, the ordered boundary map from interval bounds to atom identifiers
//     (internal/intervalmap);
//   - label[link], a dynamic bitset of atoms per directed link: the atoms a
//     packet's designated header field may fall in for the packet to be
//     forwarded along the link (internal/bitset);
//   - owner[α][source], the rules at source whose interval contains atom
//     α, ordered by priority; the maximum is the rule that "owns" α at
//     that node. The paper prescribes a balanced BST per (atom, source);
//     this engine stores the same ordered sets flat — per atom, one cell
//     directory, a source bitmap and then a 4-byte cell per source in
//     node order (found by the rank of the source's bit), over one packed
//     rule-slot slab (owner.go): a cell holding one rule, the common
//     case, holds its slot inline, and
//     a larger one names its window of the slab — which preserves the
//     logarithmic search bound and removes the per-node heap allocations. Rules themselves live in a 12-byte record arena
//     indexed by an open-addressed id table (an id's high 32 bits and a
//     link's or priority's high 16 sit in a per-page column that only pages
//     holding such a rule have); rules with one match share one refcounted
//     interval entry holding the match's bound handles.
//
// Each rule insertion or removal yields a Delta — the delta-graph of §3.3 —
// from which property checkers (internal/check) verify invariants such as
// loop freedom incrementally.
package core

import (
	"fmt"

	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
)

// RuleID identifies a rule. Callers choose ids; they must be unique among
// live rules.
type RuleID int64

// Priority orders rules within one forwarding table: higher wins. Rules
// with overlapping intervals in the same table should have distinct
// priorities (paper footnote 2, OpenFlow semantics); the engine breaks
// remaining ties deterministically by RuleID, larger id winning, and this
// tie-break is part of the engine's documented behaviour rather than an
// error.
type Priority int32

// Rule is an IP-prefix forwarding rule: at node Source, packets whose
// designated field falls in Match are forwarded along Link, unless a
// higher-priority rule at Source also matches. A rule with Link ==
// netgraph.NoLink drops matching packets (the engine routes it to the
// per-node drop link so Algorithms 1 and 2 stay uniform).
type Rule struct {
	ID       RuleID
	Source   netgraph.NodeID
	Link     netgraph.LinkID
	Match    ipnet.Interval
	Priority Priority
}

func (r Rule) String() string {
	return fmt.Sprintf("rule %d @node %d prio %d %v -> link %d", r.ID, r.Source, r.Priority, r.Match, r.Link)
}

// prioKey orders the owner BSTs: by priority, then by rule id so that
// overlapping equal-priority rules still have a deterministic winner.
type prioKey struct {
	prio Priority
	id   RuleID
}

func cmpPrioKey(a, b prioKey) int {
	switch {
	case a.prio < b.prio:
		return -1
	case a.prio > b.prio:
		return 1
	case a.id < b.id:
		return -1
	case a.id > b.id:
		return 1
	default:
		return 0
	}
}

func (r *Rule) key() prioKey { return prioKey{prio: r.Priority, id: r.ID} }
