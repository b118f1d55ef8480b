// Package deltanet is a real-time data plane checker: an implementation of
// "Delta-net: Real-time Network Verification Using Atoms" (Horn,
// Kheradmand, Prasad; NSDI 2017).
//
// Delta-net incrementally maintains a single edge-labelled graph
// representing the flows of ALL packets in the entire network. Edge labels
// are sets of atoms — mutually disjoint address ranges induced by the IP
// prefixes of the installed rules — maintained so that every Boolean
// combination of rules is expressible and every forwarding table is
// checkable without false alarms. Rule insertions and removals are
// processed in amortized quasi-linear time (the paper's Theorem 1), tens
// of microseconds in practice, and each update yields a delta-graph from
// which invariants such as loop freedom are checked incrementally.
//
// # Batch updates
//
// Updates may also be applied in atomic batches via ApplyBatch: the whole
// slice of insertions and removals is validated up front (all-or-nothing),
// the per-atom ownership work is deduplicated across the batch (each atom's
// owner table is rewritten once, on the caller's goroutine), and one
// merged, compacted delta-graph is produced, so a single incremental loop
// check — and optionally an incremental black-hole check — replaces one
// check per rule:
//
//	ops := []deltanet.BatchOp{
//		deltanet.InsertOp(deltanet.Rule{...}),
//		deltanet.RemoveOp(17),
//	}
//	rep, err := c.ApplyBatch(ops)
//	if err != nil { ... }          // nothing was applied
//	if len(rep.Loops) > 0 { ... }  // loops in the post-batch state
//
// A batch is one atomic step: transient states between its operations are
// not observable and not checked, and its Delta records only the net label
// changes.
//
// # Quickstart
//
//	c := deltanet.New()
//	s1 := c.AddSwitch("s1")
//	s2 := c.AddSwitch("s2")
//	link := c.AddLink(s1, s2)
//
//	report, err := c.InsertPrefixRule(1, s1, link, "10.0.0.0/8", 100)
//	if err != nil { ... }
//	if len(report.Loops) > 0 { /* raise alarm */ }
//
//	// Network-wide flow queries, any time:
//	atoms := c.ReachableAtoms(s1, s2)
//
// The package re-exports the underlying engine types for advanced use;
// internal/core documents the algorithms themselves.
package deltanet

import (
	"fmt"

	"deltanet/internal/bitset"
	"deltanet/internal/check"
	"deltanet/internal/core"
	"deltanet/internal/intervalmap"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
)

// Re-exported core types, for callers that need the full engine API.
type (
	// Rule is an IP-prefix forwarding rule.
	Rule = core.Rule
	// RuleID identifies a rule; caller-chosen, unique among live rules.
	RuleID = core.RuleID
	// Priority orders rules in a table; higher wins.
	Priority = core.Priority
	// Delta is the delta-graph produced by one rule update.
	Delta = core.Delta
	// SwitchID identifies a switch (a node of the topology graph).
	SwitchID = netgraph.NodeID
	// LinkID identifies a directed link.
	LinkID = netgraph.LinkID
	// AtomID identifies one atom (a disjoint address range).
	AtomID = intervalmap.AtomID
	// Interval is a half-closed address interval [Lo:Hi).
	Interval = ipnet.Interval
	// Prefix is a CIDR prefix.
	Prefix = ipnet.Prefix
	// AtomSet is a set of atoms (a dynamic bitset).
	AtomSet = bitset.Set
	// Loop is a forwarding loop found by a check.
	Loop = check.Loop
	// BatchOp is one element of an atomic batch update (BlackHole is
	// re-exported in queries.go).
	BatchOp = core.BatchOp
)

// InsertOp returns a BatchOp inserting r.
func InsertOp(r Rule) BatchOp { return core.InsertOp(r) }

// RemoveOp returns a BatchOp removing the rule with the given id.
func RemoveOp(id RuleID) BatchOp { return core.RemoveOp(id) }

// NoLink marks a drop rule (packets matching it are discarded).
const NoLink = netgraph.NoLink

// ParsePrefix parses an IPv4 CIDR prefix such as "10.0.0.0/8".
func ParsePrefix(s string) (Prefix, error) { return ipnet.ParsePrefix(s) }

// Checker is the high-level API: a topology, the Delta-net engine over it,
// and per-update invariant checking. It is not safe for concurrent
// mutation.
type Checker struct {
	graph *netgraph.Graph
	net   *core.Network

	// CheckLoops controls whether updates are checked for forwarding
	// loops as they are applied (on by default in New).
	CheckLoops bool

	// CheckBlackHoles controls whether ApplyBatch additionally runs the
	// incremental black-hole check over the batch's merged delta (off by
	// default; see WithBlackHoleChecking). Sinks lists nodes exempt from
	// it — legitimate traffic sinks such as edge hosts.
	CheckBlackHoles bool
	Sinks           map[SwitchID]bool

	// monitor is the standing-invariant monitor, created lazily by
	// Monitor() (see monitor.go); nil until first use.
	monitor *Monitor

	delta core.Delta
}

// Option configures a Checker.
type Option func(*options)

type options struct {
	gc         bool
	checkLoops bool
	blackHoles bool
}

// WithAtomGC enables atom garbage collection: under insert/remove churn,
// boundaries no longer used by any rule are reclaimed and atom ids
// recycled (the extension sketched in the paper's §3.2.2).
func WithAtomGC() Option { return func(o *options) { o.gc = true } }

// WithoutLoopChecking disables the per-update forwarding-loop check;
// updates then only maintain flow state (and Report.Loops is always
// empty). Checks can still be run explicitly via FindLoops.
func WithoutLoopChecking() Option { return func(o *options) { o.checkLoops = false } }

// WithBlackHoleChecking enables the incremental black-hole check on batch
// updates: ApplyBatch reports in BatchReport.BlackHoles the atoms newly
// delivered to nodes that neither forward nor drop them.
func WithBlackHoleChecking() Option { return func(o *options) { o.blackHoles = true } }

// New returns an empty Checker with per-update loop checking enabled.
func New(opts ...Option) *Checker {
	o := options{checkLoops: true}
	for _, opt := range opts {
		opt(&o)
	}
	g := netgraph.New()
	return &Checker{
		graph:           g,
		net:             core.NewNetwork(g, core.Options{GC: o.gc}),
		CheckLoops:      o.checkLoops,
		CheckBlackHoles: o.blackHoles,
	}
}

// AddSwitch adds (or looks up) a switch by name.
func (c *Checker) AddSwitch(name string) SwitchID { return c.graph.AddNode(name) }

// AddPort adds (or looks up) the composite node "switch@port", the §4.1
// encoding for rules that additionally match an input port.
func (c *Checker) AddPort(sw string, port int) SwitchID { return c.graph.PortNode(sw, port) }

// AddLink adds (or looks up) a directed link between two switches.
func (c *Checker) AddLink(src, dst SwitchID) LinkID { return c.graph.AddLink(src, dst) }

// Switch returns the id of a named switch, or -1 if absent.
func (c *Checker) Switch(name string) SwitchID { return c.graph.NodeByName(name) }

// Report is the result of one checked rule update.
type Report struct {
	// Delta is the update's delta-graph (label changes by atom).
	Delta *Delta
	// Loops lists forwarding loops the update closed: an insertion can
	// complete a cycle, and so can a removal, when the removed rule
	// shadowed a lower-priority one that forwards into a cycle.
	Loops []Loop
	// Events lists the standing-invariant verdict transitions the update
	// caused (always empty until Monitor() has registrations).
	Events []MonitorEvent
}

// InsertRule applies a rule insertion (Algorithm 1) and checks it.
func (c *Checker) InsertRule(r Rule) (Report, error) {
	if err := c.net.InsertRuleInto(r, &c.delta); err != nil {
		return Report{}, err
	}
	return c.report(), nil
}

// InsertPrefixRule inserts a rule matching a CIDR prefix string. A
// negative link (NoLink) drops matching packets.
func (c *Checker) InsertPrefixRule(id RuleID, sw SwitchID, link LinkID, cidr string, prio Priority) (Report, error) {
	p, err := ipnet.ParsePrefix(cidr)
	if err != nil {
		return Report{}, fmt.Errorf("deltanet: %w", err)
	}
	return c.InsertRule(Rule{ID: id, Source: sw, Link: link, Match: p.Interval(), Priority: prio})
}

// RemoveRule applies a rule removal (Algorithm 2) and checks it.
func (c *Checker) RemoveRule(id RuleID) (Report, error) {
	if err := c.net.RemoveRuleInto(id, &c.delta); err != nil {
		return Report{}, err
	}
	return c.report(), nil
}

func (c *Checker) report() Report {
	rep := Report{Delta: &c.delta}
	if c.CheckLoops {
		rep.Loops = check.FindLoopsDelta(c.net, &c.delta)
	}
	if c.monitor != nil {
		// The loop check just ran (when enabled); a LoopFree invariant
		// reuses its result instead of re-walking the delta.
		rep.Events = c.monitor.ApplyWithLoops(&c.delta, rep.Loops, c.CheckLoops)
	}
	return rep
}

// BatchReport is the result of one atomic batch update.
type BatchReport struct {
	// Delta is the batch's merged, compacted delta-graph: the net label
	// changes between the pre- and post-batch states.
	Delta *Delta
	// Loops lists forwarding loops present after the batch that involve a
	// net-added label bit (empty when CheckLoops is off).
	Loops []Loop
	// BlackHoles lists nodes newly receiving atoms they neither forward
	// nor drop (populated only when CheckBlackHoles is on).
	BlackHoles []BlackHole
	// Events lists the standing-invariant verdict transitions the batch
	// caused (always empty until Monitor() has registrations).
	Events []MonitorEvent
}

// ApplyBatch applies ops in order as one atomic update and checks the
// merged delta-graph once. Validation happens before any state changes: on
// error nothing was applied. See the package documentation's "Batch
// updates" section for semantics.
func (c *Checker) ApplyBatch(ops []BatchOp) (BatchReport, error) {
	if err := c.net.ApplyBatch(ops, &c.delta, 0); err != nil {
		return BatchReport{}, err
	}
	rep := BatchReport{Delta: &c.delta}
	if c.CheckLoops {
		rep.Loops = check.FindLoopsDelta(c.net, &c.delta)
	}
	if c.CheckBlackHoles {
		rep.BlackHoles = check.FindBlackHolesDelta(c.net, &c.delta, c.Sinks)
	}
	if c.monitor != nil {
		rep.Events = c.monitor.ApplyWithLoops(&c.delta, rep.Loops, c.CheckLoops)
	}
	return rep, nil
}

// Network exposes the underlying engine for advanced queries.
func (c *Checker) Network() *core.Network { return c.net }

// NumRules returns the number of live rules.
func (c *Checker) NumRules() int { return c.net.NumRules() }

// NumAtoms returns the current number of atoms.
func (c *Checker) NumAtoms() int { return c.net.NumAtoms() }

// LinkLabel returns the atoms currently flowing on a link — the
// constant-time network-wide flow API of §3.3. Read-only.
func (c *Checker) LinkLabel(l LinkID) *AtomSet { return c.net.Label(l) }

// AtomRange returns the address interval an atom currently denotes.
func (c *Checker) AtomRange(a AtomID) (Interval, bool) { return c.net.AtomInterval(a) }

// AtomOf returns the atom containing an address.
func (c *Checker) AtomOf(addr uint64) AtomID { return c.net.AtomOf(addr) }

// FindLoops scans the whole data plane for forwarding loops.
func (c *Checker) FindLoops() []Loop { return check.FindLoopsAll(c.net) }

// ReachableAtoms returns the set of atoms that can flow from one switch to
// another along some forwarding path.
func (c *Checker) ReachableAtoms(from, to SwitchID) *AtomSet {
	return check.Reachable(c.net, from, to)
}

// ReachableRanges returns the address intervals (merged where adjacent)
// that can flow from one switch to another: the human-readable form of
// ReachableAtoms.
func (c *Checker) ReachableRanges(from, to SwitchID) []Interval {
	atoms := check.Reachable(c.net, from, to)
	var out []Interval
	c.net.ForEachAtom(func(id AtomID, iv Interval) bool {
		if !atoms.Contains(int(id)) {
			return true
		}
		if n := len(out); n > 0 && out[n-1].Hi == iv.Lo {
			out[n-1].Hi = iv.Hi // merge adjacent
		} else {
			out = append(out, iv)
		}
		return true
	})
	return out
}

// WhatIfLinkFails returns the flows affected by a hypothetical failure of
// the link: the affected atom set and the restriction of the edge-labelled
// graph to it (§4.3.2's exemplar query).
func (c *Checker) WhatIfLinkFails(l LinkID) *check.Subgraph {
	return check.AffectedByLinkFailure(c.net, l)
}

// AllPairsReachability computes, for every ordered pair of switches, the
// atoms that can flow between them (Algorithm 3). parallel fans the
// computation out over CPUs.
func (c *Checker) AllPairsReachability(parallel bool) [][]*AtomSet {
	if parallel {
		return check.AllPairsParallel(c.net, 0)
	}
	return check.AllPairs(c.net)
}
