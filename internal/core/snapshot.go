package core

import (
	"cmp"
	"hash/fnv"
	"slices"

	"deltanet/internal/bitset"
	"deltanet/internal/intervalmap"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
)

// Snapshot captures the live rules of a data plane in a deterministic
// order (by rule id). Replaying a snapshot into a fresh engine over the
// same graph reproduces identical forwarding behaviour (though atom ids
// may differ, since they depend on insertion history — §3.1).
func (n *Network) Snapshot() []Rule {
	out := make([]Rule, 0, n.store.len())
	n.Rules(func(r Rule) bool { out = append(out, r); return true })
	slices.SortFunc(out, func(a, b Rule) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Restore loads a snapshot into the engine, which must be empty.
func (n *Network) Restore(rules []Rule) error {
	var d Delta
	for _, r := range rules {
		if err := n.insertRule(r, &d); err != nil {
			return err
		}
	}
	return nil
}

// LinkFlows returns the link's current flows as a minimal sorted list of
// address intervals (adjacent atoms merged) — the canonical,
// atom-id-independent description of the link's behaviour.
func (n *Network) LinkFlows(link netgraph.LinkID) []ipnet.Interval {
	return n.flows(link, link+1)[0]
}

// flows returns the flows of links first..end-1, indexed from first, from
// one walk of the atoms in address order. Each label's atom ids are
// re-read in address order through a scratch bitset over the atoms' ranks
// in that walk, so adjacent atoms merge as they are read.
func (n *Network) flows(first, end netgraph.LinkID) [][]ipnet.Interval {
	var ivs []ipnet.Interval
	rank := make([]int32, n.m.MaxID()) // address rank + 1; 0 for dead ids
	n.m.ForEachAtom(func(id intervalmap.AtomID, iv ipnet.Interval) bool {
		ivs = append(ivs, iv)
		rank[id] = int32(len(ivs))
		return true
	})
	out := make([][]ipnet.Interval, end-first)
	byAddr := bitset.New(len(ivs))
	for i := range out {
		byAddr.Clear()
		n.Label(first + netgraph.LinkID(i)).ForEach(func(id int) bool {
			if r := rank[id]; r > 0 {
				byAddr.Add(int(r - 1))
			}
			return true
		})
		byAddr.ForEach(func(r int) bool {
			if f := out[i]; len(f) > 0 && f[len(f)-1].Hi == ivs[r].Lo {
				f[len(f)-1].Hi = ivs[r].Hi
			} else {
				out[i] = append(f, ivs[r])
			}
			return true
		})
	}
	return out
}

// BehaviourDigest hashes the network's complete forwarding behaviour in
// canonical form: per link, the merged interval list of its flows. Two
// networks over the same graph have equal digests iff every link carries
// the same addresses, regardless of atom-id assignment or insertion
// order. Useful for order-independence testing and change detection.
func (n *Network) BehaviourDigest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeU64 := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for link, flows := range n.flows(0, netgraph.LinkID(n.graph.NumLinks())) {
		if len(flows) == 0 {
			continue
		}
		writeU64(uint64(link) | 1<<63) // link marker
		for _, iv := range flows {
			writeU64(iv.Lo)
			writeU64(iv.Hi)
		}
	}
	return h.Sum64()
}

// BehaviourEqual reports whether two networks over graphs with identical
// link numbering forward exactly the same addresses on every link.
func BehaviourEqual(a, b *Network) bool {
	links := netgraph.LinkID(max(a.graph.NumLinks(), b.graph.NumLinks()))
	fa, fb := a.flows(0, links), b.flows(0, links)
	for l := range fa {
		if !slices.Equal(fa[l], fb[l]) {
			return false
		}
	}
	return true
}
