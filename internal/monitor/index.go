package monitor

import (
	"slices"
	"sync"
	"sync/atomic"

	"deltanet/internal/bitset"
	"deltanet/internal/check"
	"deltanet/internal/core"
	"deltanet/internal/intervalmap"
	"deltanet/internal/netgraph"
)

// indexShards is the number of link shards in the dependency index. Links
// are dense integers, so link % indexShards spreads a topology's links
// evenly; 16 shards keep lock contention negligible up to hundreds of
// concurrent registrations without bloating the per-monitor footprint.
const indexShards = 16

// depIndex is the monitor's sharded dependency index: for every link, the
// set of subgoal slots whose last evaluation depended on it, refined —
// where the evaluation recorded one — by a per-slot atom-range sketch of
// which atoms on that link actually mattered. Dirty marking on an update
// is then a per-slot sketch intersection against the delta's touched
// atom ranges on each changed link: a subgoal whose recorded ranges are
// disjoint from the delta's atoms on every shared link is skipped, which
// is the paper's work-proportional-to-affected-atoms property carried
// through to standing invariants. The sharded, partitioned-state layout
// (NFork's lesson applied to the monitor) keeps dirty marking cheap at
// 10⁵ slots (the invariants themselves share far fewer — one per
// source); the sketches stay shard-local, so the
// refinement adds no new cross-shard contention.
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
// Locking: each shard has its own RWMutex; growth is serialized by growMu.
// Shard mutexes are leaves — nothing else is acquired under them — so
// callers may hold any of the monitor's other locks.
type depIndex struct {
	// growMu serializes growth.
	//
	//deltanet:lockrank 50
	growMu sync.Mutex
	upTo   atomic.Int64 // links [0, upTo) have bitmaps

	shards [indexShards]indexShard
}

type indexShard struct {
	//deltanet:lockrank 60
	mu sync.RWMutex
	// byLink[link/indexShards] is the slot bitmap of link; the shard owns
	// links ≡ its index (mod indexShards).
	byLink []*bitset.Set
	// sums[link/indexShards] refines the bitmap with per-slot atom-range
	// sketches; a slot present in the bitmap but absent here depends on
	// every atom of the link. Lazily allocated: links nobody sketches
	// (born-dirty seeds, whole-label dependencies) pay nothing.
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
// link's bitmap with seed (the dep-tracked slots at the time of growth —
// see the born-dirty rule above). Callers pass a snapshot of the
// monitor's depSlots taken under regMu.
func (ix *depIndex) growTo(numLinks int, seed *bitset.Set) {
	if int(ix.upTo.Load()) >= numLinks {
		return
	}
	ix.growMu.Lock()
	defer ix.growMu.Unlock()
	from := int(ix.upTo.Load())
	if from >= numLinks {
		return
	}
	for l := from; l < numLinks; l++ {
		sh := &ix.shards[l%indexShards]
		sh.mu.Lock()
		for len(sh.byLink) <= l/indexShards {
			sh.byLink = append(sh.byLink, nil)
		}
		sh.byLink[l/indexShards] = seed.Clone()
		sh.mu.Unlock()
	}
	ix.upTo.Store(int64(numLinks))
}

// collect marks the slots an update dirties: a slot in a changed link's
// bitmap is dirtied only when its sketch intersects the delta's touched
// atoms on that link (dr), when it has no sketch there, or when the
// delta touches an atom born after the sketch was recorded
// (dr.NewestBorn vs the sketch's stamp). Every slot considered — dirtied
// or not — is also accumulated into cand, so the caller can count
// range-based skips as cand minus dirty. Links ≥ upTo are ignored;
// callers growTo first, so none exist by the time a delta naming them is
// applied.
func (ix *depIndex) collect(changed *bitset.Set, dr *core.DeltaRanges, dirty, cand *bitset.Set) {
	changed.ForEach(func(l int) bool {
		sh := &ix.shards[l%indexShards]
		sh.mu.RLock()
		i := l / indexShards
		if i >= len(sh.byLink) || sh.byLink[i] == nil {
			sh.mu.RUnlock()
			return true
		}
		bm := sh.byLink[i]
		cand.UnionWith(bm)
		var sums map[int32]slotSketch
		if i < len(sh.sums) {
			sums = sh.sums[i]
		}
		touched := dr.Ranges(netgraph.LinkID(l))
		if len(sums) == 0 || touched == nil {
			// No sketches on this link (or no range data for it): every
			// depending slot is dirty.
			dirty.UnionWith(bm)
			sh.mu.RUnlock()
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
		sh.mu.RUnlock()
		return true
	})
}

func (ix *depIndex) set(link, slot int, sketch slotSketch, sketched bool) {
	sh := &ix.shards[link%indexShards]
	sh.mu.Lock()
	i := link / indexShards
	if i < len(sh.byLink) && sh.byLink[i] != nil {
		sh.byLink[i].Add(slot)
		if sketched {
			for len(sh.sums) <= i {
				sh.sums = append(sh.sums, nil)
			}
			if sh.sums[i] == nil {
				sh.sums[i] = map[int32]slotSketch{}
			}
			sh.sums[i][int32(slot)] = sketch
		} else if i < len(sh.sums) && sh.sums[i] != nil {
			delete(sh.sums[i], int32(slot))
		}
	}
	sh.mu.Unlock()
}

func (ix *depIndex) clear(link, slot int) {
	sh := &ix.shards[link%indexShards]
	sh.mu.Lock()
	i := link / indexShards
	if i < len(sh.byLink) && sh.byLink[i] != nil {
		sh.byLink[i].Remove(slot)
	}
	if i < len(sh.sums) && sh.sums[i] != nil {
		delete(sh.sums[i], int32(slot))
	}
	sh.mu.Unlock()
}

// insert indexes a slot's freshly recorded dependency set:
// one bit per dep link, refined by the evaluation's atom-range sketches
// where it recorded one (ranges may be nil or partial; missing links get
// bits without sketches, i.e. every atom relevant). Both deps iteration
// and ranges are ascending by link, so the refinement is a merge walk.
// atomSeq is the evaluation's atom allocation stamp.
func (ix *depIndex) insert(slot int, deps *bitset.Set, ranges check.DepRanges, atomSeq int64) {
	i := 0
	deps.ForEach(func(l int) bool {
		for i < len(ranges) && int(ranges[i].Link) < l {
			i++
		}
		if i < len(ranges) && int(ranges[i].Link) == l {
			ix.set(l, slot, slotSketch{atomSeq: atomSeq, sk: ranges[i].Sketch}, true)
			i++
		} else {
			ix.set(l, slot, slotSketch{}, false)
		}
		return true
	})
}

// update re-indexes a slot after a re-evaluation: oldDeps/oldUpTo/
// oldRanges/oldAtomSeq are the dependency set, link count, sketches, and
// atom stamp of the previous evaluation (the slot's bits live in oldDeps
// plus the born-dirty range [oldUpTo, upTo)); newDeps/newRanges/atomSeq
// describe the fresh one.
//
// The steady-state fast path: when the link set, the sketches, and the
// atom allocation counter are all unchanged since the previous
// evaluation, the index already holds exactly this state and no shard
// lock is touched. (With the allocation counter unchanged the stored
// stamps are equivalent; when it HAS advanced, sketches are rewritten
// even if value-equal, so their stamps move forward and atoms born
// before this evaluation stop tripping the conservative newest-born
// escape forever.)
func (ix *depIndex) update(slot int, oldDeps *bitset.Set, oldUpTo int, oldRanges check.DepRanges, oldAtomSeq int64,
	newDeps *bitset.Set, newRanges check.DepRanges, atomSeq int64) {
	upTo := int(ix.upTo.Load())
	if oldUpTo >= upTo && oldAtomSeq == atomSeq && oldDeps.Equal(newDeps) && slices.Equal(oldRanges, newRanges) {
		return
	}
	// Clear stale bits: previous deps and born-dirty seeds the new
	// evaluation did not confirm.
	oldDeps.ForEach(func(l int) bool {
		if !newDeps.Contains(l) {
			ix.clear(l, slot)
		}
		return true
	})
	for l := oldUpTo; l < upTo; l++ {
		if !newDeps.Contains(l) {
			ix.clear(l, slot)
		}
	}
	ix.insert(slot, newDeps, newRanges, atomSeq)
}

// shardPops returns each shard's total bit population (the sum over the
// shard's link bitmaps of their set-bit counts) — the operator-facing
// load signal Monitor.IndexShardBits exposes: a shard far above the rest
// points at a hot link whose bitmap dominates dirty-marking cost.
func (ix *depIndex) shardPops() []int {
	pops := make([]int, indexShards)
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.RLock()
		n := 0
		for _, bm := range sh.byLink {
			if bm != nil {
				n += bm.Len()
			}
		}
		sh.mu.RUnlock()
		pops[i] = n
	}
	return pops
}

// removeSlot erases every bit (and sketch) a slot may own: its recorded
// deps plus the born-dirty range. Must run before the slot number is
// reused.
func (ix *depIndex) removeSlot(slot int, deps *bitset.Set, depsUpTo int) {
	if deps != nil {
		deps.ForEach(func(l int) bool {
			ix.clear(l, slot)
			return true
		})
	}
	for l, upTo := depsUpTo, int(ix.upTo.Load()); l < upTo; l++ {
		ix.clear(l, slot)
	}
}

// linkDeps unions into dst the slot bitmap of one link (no sketch
// refinement — the caller wants "could any subgoal care about this
// link", the coarse signal the ingest coalescer's adaptive flush
// trigger keys on). Links the index does not cover yet contribute
// nothing.
func (ix *depIndex) linkDeps(link int, dst *bitset.Set) {
	if link < 0 || int64(link) >= ix.upTo.Load() {
		return
	}
	sh := &ix.shards[link%indexShards]
	sh.mu.RLock()
	if i := link / indexShards; i < len(sh.byLink) && sh.byLink[i] != nil {
		dst.UnionWith(sh.byLink[i])
	}
	sh.mu.RUnlock()
}
