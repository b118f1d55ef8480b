package integration

import (
	"runtime"
	"testing"

	"deltanet/internal/bgp"
	"deltanet/internal/core"
	"deltanet/internal/routes"
	"deltanet/internal/topo"
)

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestMemoryBytesReplayScale pins the engine's bytes per rule on the plane
// the benchmark's replay workload holds: 6000 BGP prefixes compiled into
// shortest-path rules over the inet topology, seed 1 — what bench/plane.go's
// libraPlane("inet", 6000, 1) builds, ≈ 1.89M rules. It is the plane that
// exposed MemoryBytes' 8 % under-count, so the estimate must land within
// ±15 % of the live-heap growth the plane causes; and the growth itself
// must stay below 70 MB: ≈ 220 MB before the 32-byte rule record, the
// open-addressed id table and the 8-byte owner cell, 132.3 MB before the
// 24-byte record (bounds by boundary-tree handle) and growth by an eighth,
// 106.2 MB before the paged rule arena, 104.7 MB before the 20-byte record
// that names a shared interval entry (315 rules per match here), 97.2 MB
// before one-rule owner cells held their rule inline, 90.6 MB before
// owner cells dropped their node id for a per-atom source bitmap (cells at
// 315 of 318 nodes here), 81.3 MB before the 16-byte record whose id's
// high half lives in a per-page column only pages holding such an id have
// (none here), 73.8 MB before the 12-byte record whose link and priority
// keep only their low 16 bits there too (every link and priority here
// fits), 66.2 MB since (the bound is that plus 5 %). The
// per-structure rows are logged, so a verbose run shows where the bytes
// go.
func TestMemoryBytesReplayScale(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1.89M-rule plane")
	}
	const (
		seed        = 1
		seedCompile = 7919 // bench/plane.go's seed offset for the route compiler
	)
	g, err := topo.Build("inet")
	if err != nil {
		t.Fatal(err)
	}
	feed := bgp.NewFeed(seed, 0.3)
	comp := routes.NewCompiler(g, seed+seedCompile)
	comp.RandomPriority = true
	switches := topo.SwitchNodes(g)
	var rules []core.Rule
	for i := 0; i < 6000; i++ {
		rules = append(rules, comp.RulesForPrefix(feed.Next(), switches)...)
	}

	before := liveHeap()
	n := core.NewNetwork(g, core.Options{})
	var d core.Delta
	for _, r := range rules {
		if err := n.InsertRuleInto(r, &d); err != nil {
			t.Fatal(err)
		}
	}
	grown := float64(liveHeap() - before)
	est := float64(n.MemoryBytes())
	t.Logf("%d rules, %d atoms: heap grew %.1f MB (%.1f B/rule), MemoryBytes %.1f MB (%+.1f%%)",
		n.NumRules(), n.NumAtoms(), grown/1e6, grown/float64(n.NumRules()), est/1e6, 100*(est/grown-1))
	t.Logf("rows: %+v", n.MemoryRows())
	if est < 0.85*grown || est > 1.15*grown {
		t.Errorf("MemoryBytes %.0f is outside ±15%% of the measured heap growth %.0f", est, grown)
	}
	if grown >= 70e6 {
		t.Errorf("heap grew %.1f MB for %d rules, want < 70 MB", grown/1e6, n.NumRules())
	}
	runtime.KeepAlive(n)
	runtime.KeepAlive(rules)
}
