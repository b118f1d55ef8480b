package core

// Atom garbage collection: the optional extension the paper sketches in
// §3.2.2 ("akin to garbage collection, we could reclaim the unused atom
// identifier(s). This 'garbage collection' mechanism is omitted from
// Algorithm 2."). We implement it behind Options.GC.
//
// The engine refcounts every interval boundary by the number of live
// interval entries (owner.go) using it as a lower or upper bound, so the
// count changes only when a match gains its first rule or loses its last.
// When a removal drops a boundary's count to zero, the boundary key is
// deleted from M and the atom that started at it merges into its
// predecessor atom.
//
// Correctness of the merge: once no rule has a bound at b, every live rule
// whose interval intersects the atom [b:c) fully covers both [a:b) and
// [b:c) (rule bounds are always keys of M), so the owner state of the two
// atoms is identical as a set of rules. Dropping the upper atom therefore
// loses no information: the predecessor atom's labels already describe the
// merged interval. We only need to clear the dropped atom's label bits and
// owner trees, and recycle its id.

// collectBound decrements the refcount of bound and, when it hits zero,
// deletes the bound from M and merges the atom that started at it into its
// predecessor. MIN and MAX are permanent (intervalmap refuses to release
// them).
func (n *Network) collectBound(bound uint64) {
	if n.bounds[bound]--; n.bounds[bound] > 0 {
		return
	}
	delete(n.bounds, bound)
	id, ok := n.m.ReleaseBound(bound)
	if !ok {
		return // MIN or MAX
	}
	n.merges++
	// Clear the dead atom's label bits: for each source with rules
	// containing the atom, the owner's link carried the bit. The owner
	// table keeps its backing arrays for the id's next incarnation.
	if int(id) < len(n.owner) {
		oa := &n.owner[id]
		oa.eachTop(func(slot int32) { n.labelOf(n.store.rec(slot).link).Remove(int(id)) })
		oa.reset()
	}
}
