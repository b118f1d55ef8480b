package monitor

import (
	"slices"

	"deltanet/internal/bitset"
	"deltanet/internal/core"
	"deltanet/internal/intervalmap"
	"deltanet/internal/netgraph"
)

// depIndex is the monitor's dependency index: for every link, the set of
// subgoal slots whose last evaluation depended on it, refined — where
// the evaluation recorded one — by a per-slot atom-range sketch of
// which atoms on that link actually mattered. Dirty marking on an update
// is then a per-slot sketch intersection against the delta's touched
// atom ranges on each changed link: a subgoal whose recorded ranges are
// disjoint from the delta's atoms on every shared link is skipped, which
// is the paper's work-proportional-to-affected-atoms property carried
// through to standing invariants. Bitmaps keep dirty marking cheap at
// 10⁵ slots (the invariants themselves share far fewer — one per
// source).
//
// Links born after a subgoal's last evaluation must conservatively
// dirty it (a new out-link can extend reachability the old evaluation
// never saw). The index realizes that rule structurally: when it grows to
// cover new links, each new link's bitmap is seeded with every currently
// dep-tracked slot ("born dirty") and no sketch, and a subgoal's next
// evaluation clears the seeds its fresh dependency set does not confirm.
// Symmetrically, atoms born after a subgoal's evaluation (split-minted
// or GC-recycled ids) are conservative hits: every sketch carries the
// atom allocation stamp of its evaluation, and a delta whose newest
// touched atom is younger bypasses the sketch intersection.
//
// The index has no lock of its own: Monitor.mu guards it.
type depIndex struct {
	// byLink[link] is the slot bitmap of link; the index covers links
	// [0, len(byLink)).
	byLink []*bitset.Set
	// sums[link] refines the bitmap with per-slot atom-range sketches; a
	// slot present in the bitmap but absent here depends on every atom of
	// the link. The maps are lazily allocated: links nobody sketches
	// (born-dirty seeds, whole-label dependencies) pay one nil entry.
	sums []map[int32]slotSketch
}

// slotSketch is one (link, slot) dependency refinement: the atoms on the
// link the slot's last evaluation depended on, plus that evaluation's
// atom allocation stamp (atoms born after it are conservative hits).
// Both fields are inlined pointer-free values: the sums maps are
// invisible to the garbage collector no matter how many sketches a
// loaded monitor retains.
//
//deltanet:pointerfree
type slotSketch struct {
	atomSeq int64
	sk      intervalmap.Sketch
}

// growTo extends the index to cover links [0, numLinks), seeding each new
// link's bitmap with seed (the monitor's depSlots — see the born-dirty
// rule above).
func (ix *depIndex) growTo(numLinks int, seed *bitset.Set) {
	for len(ix.byLink) < numLinks {
		ix.byLink = append(ix.byLink, seed.Clone())
		ix.sums = append(ix.sums, nil)
	}
}

// collect marks the slots an update dirties: a slot in a changed link's
// bitmap is dirtied only when its sketch intersects the delta's touched
// atoms on that link (dr), when it has no sketch there, or when the
// delta touches an atom born after the sketch was recorded
// (dr.NewestBorn vs the sketch's stamp). Every slot considered — dirtied
// or not — is also accumulated into cand, so the caller can count
// range-based skips as cand minus dirty. Links the index does not cover
// are ignored; callers growTo first, so none exist by the time a delta
// naming them is applied.
func (ix *depIndex) collect(changed *bitset.Set, dr *core.DeltaRanges, dirty, cand *bitset.Set) {
	changed.ForEach(func(l int) bool {
		if l >= len(ix.byLink) {
			return true
		}
		bm, sums := ix.byLink[l], ix.sums[l]
		cand.UnionWith(bm)
		touched := dr.Ranges(netgraph.LinkID(l))
		if len(sums) == 0 || touched == nil {
			// No sketches on this link (or no range data for it): every
			// depending slot is dirty.
			dirty.UnionWith(bm)
			return true
		}
		bm.ForEach(func(slot int) bool {
			if dirty.Contains(slot) {
				return true
			}
			sk, ok := sums[int32(slot)]
			if !ok || dr.NewestBorn > sk.atomSeq || sk.sk.Intersects(touched) {
				dirty.Add(slot)
			}
			return true
		})
		return true
	})
}

// set and clear take links the index covers: a subgoal's dependency
// record names only links that existed at its evaluation, and
// reindexLocked grows the index to that count first.
func (ix *depIndex) set(link, slot int, sketch slotSketch, sketched bool) {
	ix.byLink[link].Add(slot)
	if !sketched {
		delete(ix.sums[link], int32(slot))
		return
	}
	if ix.sums[link] == nil {
		ix.sums[link] = map[int32]slotSketch{}
	}
	ix.sums[link][int32(slot)] = sketch
}

func (ix *depIndex) clear(link, slot int) {
	ix.byLink[link].Remove(slot)
	delete(ix.sums[link], int32(slot))
}

// insert indexes a slot's freshly recorded dependency set: one bit per
// dep link, refined by the evaluation's atom-range sketches where it
// recorded one (ranges may be nil or partial; missing links get bits
// without sketches, i.e. every atom relevant). Both deps iteration and
// ranges are ascending by link, so the refinement is a merge walk.
func (ix *depIndex) insert(slot int, rec depRecord) {
	i := 0
	rec.deps.ForEach(func(l int) bool {
		for i < len(rec.ranges) && int(rec.ranges[i].Link) < l {
			i++
		}
		if i < len(rec.ranges) && int(rec.ranges[i].Link) == l {
			ix.set(l, slot, slotSketch{atomSeq: rec.atomSeq, sk: rec.ranges[i].Sketch}, true)
			i++
		} else {
			ix.set(l, slot, slotSketch{}, false)
		}
		return true
	})
}

// update re-indexes a slot after a re-evaluation: old is the previous
// evaluation's record (the slot's bits live in old.deps plus the
// born-dirty range [old.links, len(byLink))), rec the fresh one.
//
// The steady-state fast path: when the link set, the sketches, and the
// atom allocation counter are all unchanged since the previous
// evaluation, the index already holds exactly this state and nothing is
// touched. (With the allocation counter unchanged the stored stamps are
// equivalent; when it HAS advanced, sketches are rewritten even if
// value-equal, so their stamps move forward and atoms born before this
// evaluation stop tripping the conservative newest-born escape forever.)
func (ix *depIndex) update(slot int, old, rec depRecord) {
	if old.links >= len(ix.byLink) && old.atomSeq == rec.atomSeq &&
		old.deps.Equal(rec.deps) && slices.Equal(old.ranges, rec.ranges) {
		return
	}
	// Clear stale bits: previous deps and born-dirty seeds the new
	// evaluation did not confirm.
	old.deps.ForEach(func(l int) bool {
		if !rec.deps.Contains(l) {
			ix.clear(l, slot)
		}
		return true
	})
	for l := old.links; l < len(ix.byLink); l++ {
		if !rec.deps.Contains(l) {
			ix.clear(l, slot)
		}
	}
	ix.insert(slot, rec)
}

// population returns the index's total bit count (the sum over the link
// bitmaps of their set-bit counts) — what Monitor.IndexBits exposes.
func (ix *depIndex) population() int {
	n := 0
	for _, bm := range ix.byLink {
		n += bm.Len()
	}
	return n
}

// removeSlot erases every bit (and sketch) a slot owns: its recorded
// deps plus the born-dirty range.
func (ix *depIndex) removeSlot(slot int, rec depRecord) {
	rec.deps.ForEach(func(l int) bool {
		ix.clear(l, slot)
		return true
	})
	for l := rec.links; l < len(ix.byLink); l++ {
		ix.clear(l, slot)
	}
}

// linkDeps unions into dst the slot bitmap of one link (no sketch
// refinement — the caller wants "could any subgoal care about this
// link", the coarse signal the ingest coalescer's adaptive flush
// trigger keys on). Links the index does not cover yet contribute
// nothing.
func (ix *depIndex) linkDeps(link int, dst *bitset.Set) {
	if link >= 0 && link < len(ix.byLink) {
		dst.UnionWith(ix.byLink[link])
	}
}
