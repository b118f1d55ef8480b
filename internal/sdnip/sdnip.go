// Package sdnip simulates the SDN-IP / ONOS experimental setup of the
// paper (§4.2.2, Figure 7). The real setup — an ONOS controller running the
// SDN-IP application over Mininet-emulated Open vSwitches peered with
// Quagga BGP routers — is an external software stack, so per the
// reproduction's substitution rule we model the part the data-plane checker
// observes: a controller that, for every externally advertised prefix,
// installs longest-prefix-priority forwarding rules along shortest paths
// toward the egress border switch, and that reacts to link failures by
// rerouting (removing the rules of broken paths and installing rules for
// new ones). An event injector drives the Airtel 1 (all single-link
// failures with recovery) and Airtel 2 (all 2-link failure pairs)
// scenarios.
//
// The controller's output is an operation trace, exactly what Delta-net
// checks in the paper's experiments.
package sdnip

import (
	"math/rand"
	"sort"

	"deltanet/internal/bgp"
	"deltanet/internal/core"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
	"deltanet/internal/routes"
	"deltanet/internal/trace"
)

// Advertisement is one external BGP route: a prefix reachable through a
// border switch (the switch the external AS peers with).
type Advertisement struct {
	Prefix ipnet.Prefix
	Egress netgraph.NodeID
}

// Controller is the miniature SDN-IP control plane.
type Controller struct {
	g      *netgraph.Graph
	ads    []Advertisement
	failed map[netgraph.LinkID]bool
	nextID core.RuleID

	// installed[adIndex][node] is the live rule id at node for that
	// advertisement, or 0 when none.
	installed []map[netgraph.NodeID]core.RuleID

	// ruleLinks tracks each installed rule's link so reroute can detect
	// path changes without retaining whole rules.
	ruleLinks map[core.RuleID]netgraph.LinkID

	// extLinks[sw] is the link from border switch sw to its external
	// peer node, created lazily. At an advertisement's egress, SDN-IP
	// hands traffic off to the external AS through this link (the eBGP
	// peering of Figure 7); without it, packets would wrongly fall
	// through to other prefixes' rules at the border.
	extLinks map[netgraph.NodeID]netgraph.LinkID

	ops []core.BatchOp
}

// NewController creates a controller over the topology with the given
// advertisements. Rules are not installed until Announce is called.
func NewController(g *netgraph.Graph, ads []Advertisement) *Controller {
	return &Controller{
		g:         g,
		ads:       ads,
		failed:    map[netgraph.LinkID]bool{},
		nextID:    1,
		installed: make([]map[netgraph.NodeID]core.RuleID, len(ads)),
		extLinks:  map[netgraph.NodeID]netgraph.LinkID{},
	}
}

// extLink returns the egress hand-off link for a border switch, creating
// the external peer node on first use.
func (c *Controller) extLink(sw netgraph.NodeID) netgraph.LinkID {
	if l, ok := c.extLinks[sw]; ok {
		return l
	}
	ext := c.g.AddNode("ext:" + c.g.NodeName(sw))
	l := c.g.AddLink(sw, ext)
	c.extLinks[sw] = l
	return l
}

// AdvertiseAll installs the rules for every advertisement, emitting insert
// operations — the initial convergence of SDN-IP after the BGP speakers
// exchange routes.
func (c *Controller) AdvertiseAll() {
	for i := range c.ads {
		c.reroute(i)
	}
}

// reroute recomputes advertisement i's shortest-path tree under the
// current failure set and diffs it against what is installed: removals
// first (as ONOS withdraws broken intents), then inserts.
//
// Update ordering follows the consistent-update discipline real intent
// frameworks use to avoid transient forwarding loops: stale rules are
// removed deepest-first (so the survivors always form a connected subtree
// containing the egress) and new rules are installed egress-outward (so a
// packet that reaches any node already carrying the new rule rides the new
// tree straight to the egress). With this ordering every intermediate data
// plane state is loop-free, which the sdnip tests assert per operation.
func (c *Controller) reroute(i int) {
	ad := c.ads[i]
	next := routes.ShortestPathTree(c.g, ad.Egress, c.failed)
	// The egress itself hands traffic to the external AS.
	next[ad.Egress] = c.extLink(ad.Egress)
	cur := c.installed[i]
	if cur == nil {
		cur = map[netgraph.NodeID]core.RuleID{}
		c.installed[i] = cur
	}

	// Pass 1: remove rules whose link changed or disappeared, deepest
	// (farthest from the egress along the OLD tree) first.
	var stale []netgraph.NodeID
	for v, id := range cur {
		if next[v] == netgraph.NoLink || c.linkChanged(id, v, next[v]) {
			stale = append(stale, v)
		}
	}
	oldDepth := c.treeDepths(func(v netgraph.NodeID) netgraph.LinkID {
		id, ok := cur[v]
		if !ok {
			return netgraph.NoLink
		}
		return c.ruleLinks[id]
	}, ad.Egress)
	sortByDepth(stale, oldDepth, false)
	for _, v := range stale {
		id := cur[v]
		c.ops = append(c.ops, core.RemoveOp(id))
		delete(cur, v)
		delete(c.ruleLinks, id)
	}

	// Pass 2: insert missing rules, egress-outward along the NEW tree.
	var missing []netgraph.NodeID
	for v := netgraph.NodeID(0); int(v) < len(next); v++ {
		if next[v] == netgraph.NoLink {
			continue
		}
		if _, ok := cur[v]; !ok {
			missing = append(missing, v)
		}
	}
	newDepth := c.treeDepths(func(v netgraph.NodeID) netgraph.LinkID {
		if int(v) < len(next) {
			return next[v]
		}
		return netgraph.NoLink
	}, ad.Egress)
	sortByDepth(missing, newDepth, true)
	for _, v := range missing {
		id := c.nextID
		c.nextID++
		r := core.Rule{
			ID:       id,
			Source:   v,
			Link:     next[v],
			Match:    ad.Prefix.Interval(),
			Priority: core.Priority(ad.Prefix.Len), // longest-prefix priority
		}
		cur[v] = id
		c.rememberLink(id, next[v])
		c.ops = append(c.ops, core.InsertOp(r))
	}
}

// treeDepths computes each node's hop distance to the egress following the
// given next-link function (a forest; unreachable nodes get a large
// depth).
func (c *Controller) treeDepths(nextLink func(netgraph.NodeID) netgraph.LinkID, egress netgraph.NodeID) map[netgraph.NodeID]int {
	const unreachable = 1 << 20
	depth := map[netgraph.NodeID]int{egress: 0}
	var resolve func(v netgraph.NodeID, hops int) int
	resolve = func(v netgraph.NodeID, hops int) int {
		if d, ok := depth[v]; ok {
			return d
		}
		if hops > c.g.NumNodes() {
			return unreachable
		}
		l := nextLink(v)
		if l == netgraph.NoLink {
			depth[v] = unreachable
			return unreachable
		}
		dst := c.g.Link(l).Dst
		if isExternal(c.g, dst) {
			// Hand-off link: terminates at the external peer.
			depth[v] = 1
			return 1
		}
		d := resolve(dst, hops+1)
		if d != unreachable {
			d++
		}
		depth[v] = d
		return d
	}
	for v := netgraph.NodeID(0); int(v) < c.g.NumNodes(); v++ {
		resolve(v, 0)
	}
	return depth
}

// sortByDepth orders nodes by tree depth, ascending (root-first) or
// descending (leaves-first), breaking ties by node id for determinism.
func sortByDepth(nodes []netgraph.NodeID, depth map[netgraph.NodeID]int, ascending bool) {
	sort.Slice(nodes, func(i, j int) bool {
		di, dj := depth[nodes[i]], depth[nodes[j]]
		if di != dj {
			if ascending {
				return di < dj
			}
			return di > dj
		}
		return nodes[i] < nodes[j]
	})
}

func (c *Controller) rememberLink(id core.RuleID, l netgraph.LinkID) {
	if c.ruleLinks == nil {
		c.ruleLinks = map[core.RuleID]netgraph.LinkID{}
	}
	c.ruleLinks[id] = l
}

func (c *Controller) linkChanged(id core.RuleID, v netgraph.NodeID, want netgraph.LinkID) bool {
	return c.ruleLinks[id] != want
}

// FailLink marks a link (and its reverse twin) failed and reroutes every
// advertisement, emitting the removal/insert churn ONOS would produce.
func (c *Controller) FailLink(l netgraph.LinkID) {
	c.failed[l] = true
	if rev := c.reverseOf(l); rev != netgraph.NoLink {
		c.failed[rev] = true
	}
	c.rerouteAll()
}

// RecoverLink clears a failure and re-optimizes paths.
func (c *Controller) RecoverLink(l netgraph.LinkID) {
	delete(c.failed, l)
	if rev := c.reverseOf(l); rev != netgraph.NoLink {
		delete(c.failed, rev)
	}
	c.rerouteAll()
}

func (c *Controller) rerouteAll() {
	for i := range c.ads {
		c.reroute(i)
	}
}

func (c *Controller) reverseOf(l netgraph.LinkID) netgraph.LinkID {
	lk := c.g.Link(l)
	return c.g.FindLink(lk.Dst, lk.Src)
}

// Ops returns the accumulated operation stream.
func (c *Controller) Ops() []core.BatchOp { return c.ops }

// RandomAdvertisements draws prefixesPerBorder advertisements for each
// border switch from a synthetic Route-Views feed, as in the paper's setup
// where each Quagga border router advertises a fixed number of prefixes
// randomly selected from real tables. Prefixes are distinct across ALL
// borders: SDN-IP's BGP best-path selection installs at most one intent
// per prefix, so two borders never compete for the same prefix.
func RandomAdvertisements(borders []netgraph.NodeID, prefixesPerBorder int, seed int64) []Advertisement {
	feed := bgp.NewFeed(seed, 0.3)
	rng := rand.New(rand.NewSource(seed + 1))
	seen := map[ipnet.Prefix]bool{}
	var ads []Advertisement
	for _, b := range borders {
		for got := 0; got < prefixesPerBorder; {
			p := feed.Next()
			if seen[p] {
				continue
			}
			seen[p] = true
			ads = append(ads, Advertisement{Prefix: p, Egress: b})
			got++
		}
	}
	rng.Shuffle(len(ads), func(i, j int) { ads[i], ads[j] = ads[j], ads[i] })
	return ads
}

// InterSwitchLinks returns one representative per bidirectional link pair
// (the failure candidates; the paper fails inter-switch links).
func InterSwitchLinks(g *netgraph.Graph) []netgraph.LinkID {
	var out []netgraph.LinkID
	seen := map[[2]netgraph.NodeID]bool{}
	for _, l := range g.Links() {
		if g.IsDropLink(l.ID) || isExternal(g, l.Src) || isExternal(g, l.Dst) {
			continue
		}
		key := [2]netgraph.NodeID{l.Src, l.Dst}
		rkey := [2]netgraph.NodeID{l.Dst, l.Src}
		if seen[key] || seen[rkey] {
			continue
		}
		seen[key] = true
		out = append(out, l.ID)
	}
	return out
}

// Airtel1Trace generates the Airtel 1 dataset: initial convergence, then
// every inter-switch link failed and recovered one at a time (§4.2.2).
func Airtel1Trace(g *netgraph.Graph, ads []Advertisement) *trace.Trace {
	c := NewController(g, ads)
	c.AdvertiseAll()
	for _, l := range InterSwitchLinks(g) {
		c.FailLink(l)
		c.RecoverLink(l)
	}
	return &trace.Trace{Name: "airtel1", Graph: g, Ops: c.Ops()}
}

// Airtel2Trace generates the Airtel 2 dataset: all 2-link failure pairs,
// separately failing the first link and then the second, including
// recovery (§4.2.2). maxPairs > 0 caps the number of pairs for scaled-down
// runs; 0 means all pairs.
func Airtel2Trace(g *netgraph.Graph, ads []Advertisement, maxPairs int) *trace.Trace {
	c := NewController(g, ads)
	c.AdvertiseAll()
	links := InterSwitchLinks(g)
	pairs := 0
	for i := 0; i < len(links) && (maxPairs == 0 || pairs < maxPairs); i++ {
		for j := i + 1; j < len(links) && (maxPairs == 0 || pairs < maxPairs); j++ {
			c.FailLink(links[i])
			c.FailLink(links[j])
			c.RecoverLink(links[j])
			c.RecoverLink(links[i])
			pairs++
		}
	}
	return &trace.Trace{Name: "airtel2", Graph: g, Ops: c.Ops()}
}

// FourSwitchTrace generates the 4Switch dataset: a 4-switch ring where
// each border router advertises many prefixes, repeated over several
// rounds with different prefixes, insertions only (§4.2.2).
func FourSwitchTrace(g *netgraph.Graph, prefixesPerBorder, rounds int, seed int64) *trace.Trace {
	var all []core.BatchOp
	var c *Controller
	nextBase := core.RuleID(1)
	borders := switchesOf(g)
	for round := 0; round < rounds; round++ {
		ads := RandomAdvertisements(borders, prefixesPerBorder, seed+int64(round)*977)
		c = NewController(g, ads)
		c.nextID = nextBase
		c.AdvertiseAll()
		all = append(all, c.Ops()...)
		nextBase = c.nextID
	}
	return &trace.Trace{Name: "4switch", Graph: g, Ops: all}
}

// Switches returns the SDN switches of a topology: every node except the
// drop sink and external AS peers.
func Switches(g *netgraph.Graph) []netgraph.NodeID { return switchesOf(g) }

func switchesOf(g *netgraph.Graph) []netgraph.NodeID {
	var out []netgraph.NodeID
	for v := netgraph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if v != g.DropNode() && !isExternal(g, v) {
			out = append(out, v)
		}
	}
	return out
}

// IsExternal reports whether the node models an external AS peer rather
// than a switch of the SDN network.
func IsExternal(g *netgraph.Graph, v netgraph.NodeID) bool { return isExternal(g, v) }

func isExternal(g *netgraph.Graph, v netgraph.NodeID) bool {
	name := g.NodeName(v)
	return len(name) > 4 && name[:4] == "ext:"
}
