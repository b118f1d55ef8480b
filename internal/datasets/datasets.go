// Package datasets assembles the eight evaluation datasets of the paper's
// Table 2 from the substrate generators: synthetic wide-area datasets in
// the style of Zeng et al.'s Libra generation mechanism (Berkeley, INET,
// RF 1755/3257/6461 — §4.2.1), and SDN-IP controller traces (Airtel 1,
// Airtel 2, 4Switch — §4.2.2).
//
// The paper's datasets hold up to 250 million operations, built from real
// Route Views dumps on a 94 GB server; a Scale parameter shrinks every
// dataset proportionally so the whole suite runs on a laptop while
// preserving each dataset's structure (topology, prefix statistics,
// insert/remove mix). Scale 1.0 corresponds to the laptop-default sizes
// below, not to the paper's full sizes; the --scale flag of the harness
// multiplies them.
package datasets

import (
	"fmt"
	"math/rand"

	"deltanet/internal/bgp"
	"deltanet/internal/core"
	"deltanet/internal/netgraph"
	"deltanet/internal/routes"
	"deltanet/internal/sdnip"
	"deltanet/internal/topo"
	"deltanet/internal/trace"
)

// Names lists the dataset names in Table 2's order.
func Names() []string {
	return []string{"berkeley", "inet", "rf1755", "rf3257", "rf6461", "airtel1", "airtel2", "4switch"}
}

// spec holds a synthetic dataset's generation parameters at scale 1.0.
type spec struct {
	topology string
	prefixes int // prefixes drawn from the BGP feed
	seed     int64
}

var synthetic = map[string]spec{
	"berkeley": {topology: "berkeley", prefixes: 600, seed: 2301},
	"inet":     {topology: "inet", prefixes: 1500, seed: 3316},
	"rf1755":   {topology: "rf1755", prefixes: 900, seed: 1755},
	"rf3257":   {topology: "rf3257", prefixes: 1000, seed: 3257},
	"rf6461":   {topology: "rf6461", prefixes: 1000, seed: 6461},
}

// Build generates the named dataset at the given scale (1.0 = laptop
// default; the paper's sizes are roughly scale 1000 for the synthetic
// sets). The result is deterministic per (name, scale).
func Build(name string, scale float64) (*trace.Trace, error) {
	if scale <= 0 {
		scale = 1
	}
	if s, ok := synthetic[name]; ok {
		return buildSynthetic(name, s, scale)
	}
	switch name {
	case "airtel1":
		g, _ := topo.Build("airtel")
		ads := sdnip.RandomAdvertisements(borderSwitches(g), scaled(100, scale, 4), 9498)
		t := sdnip.Airtel1Trace(g, ads)
		return t, nil
	case "airtel2":
		g, _ := topo.Build("airtel")
		ads := sdnip.RandomAdvertisements(borderSwitches(g), scaled(100, scale, 4), 9499)
		// All pairs of ~27 bidirectional links is ~350 pairs; scale
		// caps the pair count.
		t := sdnip.Airtel2Trace(g, ads, scaled(36, scale, 1))
		return t, nil
	case "4switch":
		g, _ := topo.Build("4switch")
		t := sdnip.FourSwitchTrace(g, scaled(700, scale, 10), 14, 44)
		return t, nil
	default:
		return nil, fmt.Errorf("datasets: unknown dataset %q", name)
	}
}

func scaled(base int, scale float64, min int) int {
	n := int(float64(base) * scale)
	if n < min {
		n = min
	}
	return n
}

// buildSynthetic implements the §4.2.1 mechanism: prefixes from a BGP
// feed, shortest paths toward a random egress per prefix, rules inserted
// with random priorities, then removed in random order.
func buildSynthetic(name string, s spec, scale float64) (*trace.Trace, error) {
	g, err := topo.Build(s.topology)
	if err != nil {
		return nil, err
	}
	feed := bgp.NewFeed(s.seed, 0.3)
	comp := routes.NewCompiler(g, s.seed+1)
	comp.RandomPriority = true
	switches := topo.SwitchNodes(g)

	nPrefixes := scaled(s.prefixes, scale, 8)
	var rules []core.Rule
	for i := 0; i < nPrefixes; i++ {
		rules = append(rules, comp.RulesForPrefix(feed.Next(), switches)...)
	}

	ops := make([]core.BatchOp, 0, 2*len(rules))
	for _, r := range rules {
		ops = append(ops, core.InsertOp(r))
	}
	// Removal in random order (§4.2.1).
	rng := rand.New(rand.NewSource(s.seed + 2))
	perm := rng.Perm(len(rules))
	for _, i := range perm {
		ops = append(ops, core.RemoveOp(rules[i].ID))
	}
	return &trace.Trace{Name: name, Graph: g, Ops: ops}, nil
}

// borderSwitches returns the switches that peer with external ASes. In the
// paper's Airtel setup each of the emulated switches connects to one
// external border router; we model that as every switch being a border.
func borderSwitches(g *netgraph.Graph) []netgraph.NodeID {
	var out []netgraph.NodeID
	for v := netgraph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if v != g.DropNode() {
			out = append(out, v)
		}
	}
	return out
}

// Info summarizes a dataset for Table 2.
type Info struct {
	Name       string
	Nodes      int
	Links      int
	Operations int
	Inserts    int
}

// Describe computes the Table 2 row for a built dataset.
func Describe(t *trace.Trace) Info {
	return Info{
		Name:       t.Name,
		Nodes:      t.Graph.NumNodes(),
		Links:      t.Graph.NumLinks(),
		Operations: len(t.Ops),
		Inserts:    t.NumInserts(),
	}
}
