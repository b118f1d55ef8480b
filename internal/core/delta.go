package core

import (
	"deltanet/internal/intervalmap"
	"deltanet/internal/netgraph"
)

// Op distinguishes rule insertions from removals in a Delta.
type Op uint8

const (
	// OpInsert records a rule insertion (Algorithm 1).
	OpInsert Op = iota
	// OpRemove records a rule removal (Algorithm 2).
	OpRemove
	// OpBatch records an atomic batch of insertions and removals applied
	// by Network.ApplyBatch; the Delta holds the batch's net label change
	// and Rule is meaningless (zero).
	OpBatch
)

func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpRemove:
		return "remove"
	default:
		return "batch"
	}
}

// LinkAtom is one edge-label change: atom Atom was added to or removed from
// label[Link].
type LinkAtom struct {
	Link netgraph.LinkID
	Atom intervalmap.AtomID
}

// Delta is the delta-graph of §3.3: the by-product of Algorithm 1 or 2
// restricted to the atoms whose owner changed. Added lists label bits that
// were set because the new owner forwards along that link; Removed lists
// bits cleared because a previous owner lost the atom.
//
// Property checkers consume Deltas to verify invariants incrementally: a
// new forwarding loop can only appear through an Added entry, and a new
// black hole only through a Removed entry. Multiple rule updates are
// aggregated into one delta-graph by ApplyBatch.
type Delta struct {
	Rule RuleID
	Op   Op

	// NewAtoms records atom splits performed by CREATE_ATOMS+ during an
	// insertion (at most two). Splits alone change no forwarding
	// behaviour — the new atom inherits the old atom's flows — so they
	// appear here for observability, not as label changes.
	NewAtoms []intervalmap.SplitPair

	// Added and Removed are the ownership-driven label changes, in the
	// order the algorithm applied them.
	Added   []LinkAtom
	Removed []LinkAtom
}

// Empty reports whether the update changed no forwarding behaviour.
func (d *Delta) Empty() bool { return len(d.Added) == 0 && len(d.Removed) == 0 }

// reset clears the delta for reuse, retaining capacity.
func (d *Delta) reset(rule RuleID, op Op) {
	d.Rule = rule
	d.Op = op
	d.NewAtoms = d.NewAtoms[:0]
	d.Added = d.Added[:0]
	d.Removed = d.Removed[:0]
}
