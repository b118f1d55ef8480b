package core

import (
	"cmp"
	"hash/fnv"
	"slices"

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
	label := n.Label(link)
	var out []ipnet.Interval
	n.m.ForEachAtom(func(id intervalmap.AtomID, iv ipnet.Interval) bool {
		if !label.Contains(int(id)) {
			return true
		}
		if k := len(out); k > 0 && out[k-1].Hi == iv.Lo {
			out[k-1].Hi = iv.Hi
		} else {
			out = append(out, iv)
		}
		return true
	})
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
	for link := 0; link < n.graph.NumLinks(); link++ {
		flows := n.LinkFlows(netgraph.LinkID(link))
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
	links := a.graph.NumLinks()
	if b.graph.NumLinks() > links {
		links = b.graph.NumLinks()
	}
	for link := 0; link < links; link++ {
		fa := a.LinkFlows(netgraph.LinkID(link))
		fb := b.LinkFlows(netgraph.LinkID(link))
		if len(fa) != len(fb) {
			return false
		}
		for i := range fa {
			if fa[i] != fb[i] {
				return false
			}
		}
	}
	return true
}
