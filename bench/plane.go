package main

// plane.go generates every input from the seed: the data plane a workload
// starts from, the update streams its phases replay, the standing-invariant
// battery and the query list. Nothing here touches the system under test.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"sort"

	"deltanet/internal/bgp"
	"deltanet/internal/core"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
	"deltanet/internal/routes"
	"deltanet/internal/sdnip"
	"deltanet/internal/topo"
)

// Seed offsets: each consumer of randomness gets its own stream so adding a
// draw to one does not shift the others.
const (
	seedFeed = iota * 7919
	seedCompile
	seedRemovalOrder
	seedFlapOrder
	seedQueries
	seedBattery
	seedVeriflowSample
)

// plane is a workload's starting data plane and the model the update
// generators keep of it.
type plane struct {
	g        *netgraph.Graph
	switches []netgraph.NodeID // rule-carrying nodes (no external peers, no probe)
	ext      []netgraph.NodeID // external peers (SDN-IP planes only)
	load     []core.BatchOp    // initial convergence: inserts only

	// The probe island: two nodes and one link no forwarding rule of the
	// plane touches. Toggling one rule on it flips "reach probe0 probe1",
	// the alarm the benchmark times.
	probeA, probeB netgraph.NodeID
	probeLink      netgraph.LinkID
}

// addProbe appends the probe island; call it after every rule of the plane
// has been compiled so no shortest-path tree ever includes it.
func (p *plane) addProbe() {
	p.probeA = p.g.AddNode("probe0")
	p.probeB = p.g.AddNode("probe1")
	p.probeLink = p.g.AddLink(p.probeA, p.probeB)
}

// libraPlane builds a Libra-style synthetic plane (paper §4.2.1): prefixes
// from the BGP feed, shortest paths toward a seeded random egress, random
// priorities.
func libraPlane(topology string, prefixes int, seed int64) (*plane, error) {
	g, err := topo.Build(topology)
	if err != nil {
		return nil, err
	}
	feed := bgp.NewFeed(seed+seedFeed, 0.3)
	comp := routes.NewCompiler(g, seed+seedCompile)
	comp.RandomPriority = true
	p := &plane{g: g, switches: topo.SwitchNodes(g)}
	for i := 0; i < prefixes; i++ {
		for _, r := range comp.RulesForPrefix(feed.Next(), p.switches) {
			p.load = append(p.load, core.InsertOp(r))
		}
	}
	p.addProbe()
	return p, nil
}

// sdnipPlane builds the Airtel SDN-IP plane (paper §4.2.2): every switch is
// a border advertising perBorder prefixes, converged by the miniature
// controller.
func sdnipPlane(perBorder int, seed int64) (*plane, error) {
	g, err := topo.Build("airtel")
	if err != nil {
		return nil, err
	}
	p := &plane{g: g, switches: sdnip.Switches(g)}
	ads := sdnip.RandomAdvertisements(p.switches, perBorder, seed+seedFeed)
	ctl := sdnip.NewController(g, ads)
	ctl.AdvertiseAll()
	for _, op := range ctl.Ops() {
		p.load = append(p.load, core.BatchOp{Insert: op.Insert, Rule: op.Rule})
	}
	for v := netgraph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if sdnip.IsExternal(g, v) {
			p.ext = append(p.ext, v)
		}
	}
	p.addProbe()
	return p, nil
}

// shadow is the generators' model of the live rule set, grouped by match
// interval (one group per advertised prefix). Prefix flaps are drawn from
// it, so a flap stream can follow any earlier stream.
type shadow struct {
	g      *netgraph.Graph
	groups map[ipnet.Interval][]core.Rule
	keys   []ipnet.Interval // group keys in first-seen order, for seeded picks
	byID   map[core.RuleID]ipnet.Interval
	nextID core.RuleID
}

func newShadow(g *netgraph.Graph) *shadow {
	return &shadow{g: g, groups: map[ipnet.Interval][]core.Rule{}, byID: map[core.RuleID]ipnet.Interval{}}
}

// apply folds ops into the model.
func (s *shadow) apply(ops []core.BatchOp) {
	for i := range ops {
		op := &ops[i]
		if op.Insert {
			if _, seen := s.groups[op.Rule.Match]; !seen {
				s.keys = append(s.keys, op.Rule.Match)
			}
			s.groups[op.Rule.Match] = append(s.groups[op.Rule.Match], op.Rule)
			s.byID[op.Rule.ID] = op.Rule.Match
			if op.Rule.ID >= s.nextID {
				s.nextID = op.Rule.ID + 1
			}
			continue
		}
		match, ok := s.byID[op.Rule.ID]
		if !ok {
			continue
		}
		delete(s.byID, op.Rule.ID)
		rs := s.groups[match]
		for j := range rs {
			if rs[j].ID == op.Rule.ID {
				s.groups[match] = append(rs[:j], rs[j+1:]...)
				break
			}
		}
	}
}

// byDepth orders a group's rules by hop distance to the point where the
// group's forwarding tree leaves the group (the egress), nearest first.
func (s *shadow) byDepth(rules []core.Rule) []core.Rule {
	at := make(map[netgraph.NodeID]int, len(rules))
	for i, r := range rules {
		if _, dup := at[r.Source]; !dup {
			at[r.Source] = i
		}
	}
	depth := make([]int, len(rules))
	var resolve func(i, hops int) int
	resolve = func(i, hops int) int {
		if depth[i] != 0 {
			return depth[i]
		}
		d := 1
		if l := rules[i].Link; l != netgraph.NoLink && hops < len(rules) {
			if j, ok := at[s.g.Link(l).Dst]; ok && j != i {
				d = resolve(j, hops+1) + 1
			}
		}
		depth[i] = d
		return d
	}
	idx := make([]int, len(rules))
	for i := range rules {
		idx[i] = i
		resolve(i, 0)
	}
	sort.SliceStable(idx, func(a, b int) bool { return depth[idx[a]] < depth[idx[b]] })
	out := make([]core.Rule, len(rules))
	for k, i := range idx {
		out[k] = rules[i]
	}
	return out
}

// egressOf returns the node a group's forwarding tree drains to: the source
// of the rule that hands off to an external peer, or else the switch that
// carries no rule of the group.
func (s *shadow) egressOf(rules []core.Rule, switches []netgraph.NodeID) netgraph.NodeID {
	has := make(map[netgraph.NodeID]bool, len(rules))
	for _, r := range rules {
		if r.Link != netgraph.NoLink && sdnip.IsExternal(s.g, s.g.Link(r.Link).Dst) {
			return r.Source
		}
		has[r.Source] = true
	}
	for _, v := range switches {
		if !has[v] {
			return v
		}
	}
	return netgraph.NoNode
}

// flaps returns seeded prefix flaps totalling at least n operations, one
// slice per flap: a live
// prefix is withdrawn (its rules removed deepest-first) and re-announced
// from another seeded border (shortest-path rules installed egress-outward
// under fresh ids) — the consistent-update order that keeps transient states
// loop-free. Moving the egress makes every flap a real change of labels, so
// a front end that coalesces a whole flap into one batch still hands the
// monitor work.
func (s *shadow) flaps(n int, switches []netgraph.NodeID, rng *rand.Rand) [][]core.BatchOp {
	var flaps [][]core.BatchOp
	for total := 0; total < n; {
		var out []core.BatchOp
		key := s.keys[rng.Intn(len(s.keys))]
		old := s.byDepth(s.groups[key])
		if len(old) == 0 {
			continue
		}
		egress := switches[rng.Intn(len(switches))]
		if egress == s.egressOf(old, switches) {
			continue
		}
		prio := make(map[netgraph.NodeID]core.Priority, len(old))
		for i := len(old) - 1; i >= 0; i-- {
			out = append(out, core.RemoveOp(old[i].ID))
			delete(s.byID, old[i].ID)
			prio[old[i].Source] = old[i].Priority
		}
		next := routes.ShortestPathTree(s.g, egress, nil)
		if ext := s.g.NodeByName("ext:" + s.g.NodeName(egress)); ext != netgraph.NoNode {
			next[egress] = s.g.FindLink(egress, ext)
		}
		var fresh []core.Rule
		for v, l := range next {
			if l == netgraph.NoLink {
				continue
			}
			p, ok := prio[netgraph.NodeID(v)]
			if !ok {
				p = old[0].Priority
			}
			fresh = append(fresh, core.Rule{Source: netgraph.NodeID(v), Link: l, Match: key, Priority: p})
		}
		fresh = s.byDepth(fresh)
		for i := range fresh {
			fresh[i].ID = s.nextID
			s.nextID++
			s.byID[fresh[i].ID] = key
			out = append(out, core.InsertOp(fresh[i]))
		}
		s.groups[key] = fresh
		flaps = append(flaps, out)
		total += len(out)
	}
	return flaps
}

// flatten concatenates chunks into one stream.
func flatten(chunks [][]core.BatchOp) []core.BatchOp {
	n := 0
	for _, c := range chunks {
		n += len(c)
	}
	out := make([]core.BatchOp, 0, n)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}

// probeRule is the rule whose presence makes probe1 reachable from probe0.
func (p *plane) probeRule(id core.RuleID) core.Rule {
	return core.Rule{ID: id, Source: p.probeA, Link: p.probeLink,
		Match: ipnet.MustParsePrefix("203.0.113.0/24").Interval(), Priority: 24}
}

// battery kinds: which standing invariants a workload registers beside the
// probe.
const (
	batteryNone     = iota // probe only
	batteryLoopFree        // + loopfree
	batteryOperator        // what an SDN-IP operator would register
)

// batterySpecs returns the workload's standing invariants in the server's W
// grammar (node names, so they survive renumbering). The probe is not
// included; the harness registers it separately to learn its id.
func (p *plane) batterySpecs(kind int, seed int64) []string {
	name := p.g.NodeName
	switch kind {
	case batteryLoopFree:
		return []string{"loopfree"}
	case batteryOperator:
		rng := rand.New(rand.NewSource(seed + seedBattery))
		var specs []string
		for _, sw := range p.switches {
			for _, peer := range p.ext {
				specs = append(specs, fmt.Sprintf("reach %s %s", name(sw), name(peer)))
			}
		}
		specs = append(specs, "loopfree")
		sinks := "blackholefree sinks="
		for i, e := range p.ext {
			if i > 0 {
				sinks += ","
			}
			sinks += name(e)
		}
		specs = append(specs, sinks)
		// The server shares a registration between equal specs, so draws are
		// repeated until distinct: every seed registers the same number.
		seen := map[string]bool{}
		draw := func(n int, spec func() string) {
			for got := 0; got < n; {
				if s := spec(); !seen[s] {
					seen[s] = true
					specs = append(specs, s)
					got++
				}
			}
		}
		pick := func(nodes []netgraph.NodeID) string { return name(nodes[rng.Intn(len(nodes))]) }
		draw(8, func() string {
			return fmt.Sprintf("waypoint %s %s %s", pick(p.switches), pick(p.ext), pick(p.switches))
		})
		// External peers only receive: nothing flows from one to another, so
		// these hold throughout and cost only their re-evaluation.
		draw(4, func() string {
			a, b := pick(p.ext), pick(p.ext)
			for b == a {
				b = pick(p.ext)
			}
			return fmt.Sprintf("isolated %s %s", a, b)
		})
		return specs
	}
	return nil
}

// query is one read request and what kind it is.
type query struct {
	whatif bool
	link   netgraph.LinkID // whatif
	a, b   netgraph.NodeID // reach
}

func (q query) line() string {
	if q.whatif {
		return fmt.Sprintf("whatif %d", q.link)
	}
	return fmt.Sprintf("reach %d %d", q.a, q.b)
}

// The read mix: readPairs reach pairs, and what-if over the inter-switch
// links (a seeded sample of maxQueryLinks where there are more, so the
// quiescent verification pass stays short on the large topologies). Many
// pairs, because a pair's cost depends on where it lies: with few, the tail
// percentile is the cost of the two or three dearest pairs a seed drew.
const (
	readPairs     = 256
	maxQueryLinks = 64
)

// queries returns the read mix, whatif and reach alternating.
func (p *plane) queries(seed int64) []query {
	rng := rand.New(rand.NewSource(seed + seedQueries))
	var links []netgraph.LinkID
	for _, l := range sdnip.InterSwitchLinks(p.g) {
		if l != p.probeLink {
			links = append(links, l)
		}
	}
	rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	links = links[:min(len(links), maxQueryLinks)]
	out := make([]query, 0, 2*readPairs)
	for i := 0; i < readPairs; i++ {
		a := p.switches[rng.Intn(len(p.switches))]
		b := p.switches[rng.Intn(len(p.switches)-1)]
		if b >= a {
			b++
		}
		out = append(out, query{whatif: true, link: links[i%len(links)]}, query{a: a, b: b})
	}
	return out
}

// inputHash accumulates the SHA-256 a workload prints over everything it
// generated, so two runs can be shown to have had the same inputs.
type inputHash struct{ h hash.Hash }

func newInputHash() *inputHash { return &inputHash{h: sha256.New()} }

func (ih *inputHash) ops(ops []core.BatchOp) {
	var buf [8 * 6]byte
	for i := range ops {
		r := &ops[i].Rule
		ins := uint64(0)
		if ops[i].Insert {
			ins = 1
		}
		for j, v := range [...]uint64{ins, uint64(r.ID), uint64(r.Source), uint64(int64(r.Link)), r.Match.Lo, r.Match.Hi} {
			binary.LittleEndian.PutUint64(buf[8*j:], v)
		}
		ih.h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:8], uint64(r.Priority))
		ih.h.Write(buf[:8])
	}
}

func (ih *inputHash) strings(ss []string) {
	for _, s := range ss {
		ih.h.Write([]byte(s))
		ih.h.Write([]byte{'\n'})
	}
}

func (ih *inputHash) sum() string { return fmt.Sprintf("%x", ih.h.Sum(nil)) }
