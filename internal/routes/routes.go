// Package routes compiles IP prefixes into forwarding rules over a
// topology, following the dataset-generation mechanism of the paper
// (§4.2.1, "the same mechanism as in [59] (Libra)"): for each prefix an
// egress node is chosen and shortest paths are computed toward it; every
// other node gets a rule forwarding the prefix to its next hop on the
// shortest-path tree.
package routes

import (
	"math/rand"

	"deltanet/internal/core"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
)

// ShortestPathTree returns, for every node, the out-link taken toward the
// root on some shortest path (BFS over reversed links), or
// netgraph.NoLink for the root and for nodes that cannot reach it. blocked
// links are treated as absent (used for failure rerouting).
func ShortestPathTree(g *netgraph.Graph, root netgraph.NodeID, blocked map[netgraph.LinkID]bool) []netgraph.LinkID {
	next := make([]netgraph.LinkID, g.NumNodes())
	for i := range next {
		next[i] = netgraph.NoLink
	}
	visited := make([]bool, g.NumNodes())
	visited[root] = true
	queue := []netgraph.NodeID{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		// Expand backwards: any link u→v lets u reach the root via v.
		for _, lid := range g.In(v) {
			if blocked[lid] {
				continue
			}
			u := g.Link(lid).Src
			if visited[u] {
				continue
			}
			visited[u] = true
			next[u] = lid
			queue = append(queue, u)
		}
	}
	return next
}

// Compiler turns prefixes into rules.
type Compiler struct {
	g      *netgraph.Graph
	rng    *rand.Rand
	nextID core.RuleID

	// RandomPriority assigns each rule an independent random priority
	// (the paper's synthetic datasets: "rules are inserted with a random
	// priority"). When false, priority equals the prefix length
	// (longest-prefix match, as SDN-IP sets it).
	RandomPriority bool
}

// NewCompiler returns a deterministic compiler over the topology.
func NewCompiler(g *netgraph.Graph, seed int64) *Compiler {
	return &Compiler{g: g, rng: rand.New(rand.NewSource(seed)), nextID: 1}
}

// RulesForPrefix compiles one prefix: an egress is chosen (uniformly, from
// switches), and every node that can reach it contributes one rule along
// its shortest-path next hop. The returned rules have fresh ids.
func (c *Compiler) RulesForPrefix(p ipnet.Prefix, switches []netgraph.NodeID) []core.Rule {
	egress := switches[c.rng.Intn(len(switches))]
	return c.RulesForPrefixAt(p, egress, nil)
}

// RulesForPrefixAt compiles one prefix toward the given egress, skipping
// blocked links.
func (c *Compiler) RulesForPrefixAt(p ipnet.Prefix, egress netgraph.NodeID, blocked map[netgraph.LinkID]bool) []core.Rule {
	next := ShortestPathTree(c.g, egress, blocked)
	var out []core.Rule
	for v := netgraph.NodeID(0); int(v) < len(next); v++ {
		if next[v] == netgraph.NoLink {
			continue
		}
		prio := core.Priority(p.Len)
		if c.RandomPriority {
			prio = core.Priority(c.rng.Intn(1 << 16))
		}
		out = append(out, core.Rule{
			ID:       c.nextID,
			Source:   v,
			Link:     next[v],
			Match:    p.Interval(),
			Priority: prio,
		})
		c.nextID++
	}
	return out
}
