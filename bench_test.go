package deltanet

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§4), plus ablations for the design choices DESIGN.md
// calls out. Run everything with:
//
//	go test -bench=. -benchmem
//
// Benchmarks use the laptop-default dataset scale (internal/datasets);
// cmd/dnbench runs the same experiments with configurable scale and prints
// paper-style rows (recorded in EXPERIMENTS.md).

import (
	"fmt"
	"testing"
	"time"

	"deltanet/internal/check"
	"deltanet/internal/core"
	"deltanet/internal/datasets"
	"deltanet/internal/experiments"
	"deltanet/internal/intervalmap"
	"deltanet/internal/monitor"
	"deltanet/internal/trace"
)

// intervalmapAtom converts a bitset element to an atom id for ablation
// setup.
func intervalmapAtom(a int) intervalmap.AtomID { return intervalmap.AtomID(a) }

// benchScale keeps the full benchmark suite in the minutes range.
const benchScale = 0.25

// BenchmarkTable2_DatasetGeneration measures building all eight datasets
// (Table 2's rows) from their seeded generators.
func BenchmarkTable2_DatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable2(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatal("missing datasets")
		}
	}
}

// table3Datasets drives one benchmark per Table 3 column group.
var table3Datasets = datasets.Names()

// BenchmarkTable3 replays each dataset through Delta-net with per-update
// delta-graph loop checking — Table 3's protocol. The reported per-op
// metric is the paper's "combined time for processing a rule update and
// checking for forwarding loops".
func BenchmarkTable3(b *testing.B) {
	for _, name := range table3Datasets {
		name := name
		b.Run(name, func(b *testing.B) {
			tr, err := datasets.Build(name, benchScale)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			ops := 0
			for i := 0; i < b.N; i++ {
				n := core.NewNetwork(tr.Graph.Clone(), core.Options{})
				var d core.Delta
				for j := range tr.Ops {
					if err := trace.Apply(n, tr.Ops[j], &d); err != nil {
						b.Fatal(err)
					}
					check.FindLoopsDelta(n, &d)
				}
				ops += len(tr.Ops)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops)/1e3, "µs/update")
		})
	}
}

// BenchmarkFigure8_CDF measures the full Figure 8 pipeline: replaying every
// dataset while collecting the per-op latency distribution and bucketing
// it into the CDF series.
func BenchmarkFigure8_CDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.RunFigure8(benchScale * 0.3)
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 8 {
			b.Fatal("missing series")
		}
	}
}

// BenchmarkTable4_WhatIf measures the link-failure what-if query per
// engine, on the Airtel data plane (Table 4's protocol): Veriflow-RI
// builds a forwarding graph per affected EC; Delta-net restricts the
// edge-labelled graph to label[failedLink].
func BenchmarkTable4_WhatIf(b *testing.B) {
	for _, name := range []string{"airtel1", "4switch", "rf1755"} {
		row, err := experiments.RunTable4(name, benchScale, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/veriflow-ri", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := experiments.RunTable4(name, benchScale, 4)
				if err != nil {
					b.Fatal(err)
				}
				_ = r
			}
			b.ReportMetric(float64(row.VeriflowAvg.Microseconds()), "µs/query(full)")
		})
		b.Run(name+"/delta-net", func(b *testing.B) {
			n, tr, err := experiments.BuildConsistentDataPlane(name, benchScale)
			if err != nil {
				b.Fatal(err)
			}
			links := experiments.LinksOf(tr)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := links[i%len(links)]
				check.AffectedByLinkFailure(n, l)
			}
		})
		b.Run(name+"/delta-net+loops", func(b *testing.B) {
			n, tr, err := experiments.BuildConsistentDataPlane(name, benchScale)
			if err != nil {
				b.Fatal(err)
			}
			links := experiments.LinksOf(tr)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := links[i%len(links)]
				sub := check.AffectedByLinkFailure(n, l)
				check.LoopsInSubgraph(n, sub)
			}
		})
	}
}

// BenchmarkTable5_Memory measures data plane construction in both engines
// and reports their self-accounted footprints (Appendix D's comparison).
func BenchmarkTable5_Memory(b *testing.B) {
	var last experiments.Table5Row
	for i := 0; i < b.N; i++ {
		row, err := experiments.RunTable5("rf1755", benchScale)
		if err != nil {
			b.Fatal(err)
		}
		last = row
	}
	b.ReportMetric(float64(last.DeltanetBytes)/1e6, "deltanet-MB")
	b.ReportMetric(float64(last.VeriflowBytes)/1e6, "veriflow-MB")
	b.ReportMetric(last.Ratio, "ratio")
}

// BenchmarkAppendixC_MaxECs measures Veriflow-RI's EC fan-out tracking
// during a full insertion replay.
func BenchmarkAppendixC_MaxECs(b *testing.B) {
	var maxECs int
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAppendixC("rf1755", benchScale)
		if err != nil {
			b.Fatal(err)
		}
		maxECs = res.MaxECs
	}
	b.ReportMetric(float64(maxECs), "max-ECs")
}

// BenchmarkScaling_InsertRemove supports Theorem 1 empirically: per-op
// time across growing workloads (quasi-linear means the metric stays
// near-flat while ops grow 8×).
func BenchmarkScaling_InsertRemove(b *testing.B) {
	for _, s := range []float64{benchScale / 4, benchScale / 2, benchScale, benchScale * 2} {
		s := s
		b.Run(fmt.Sprintf("scale-%g", s), func(b *testing.B) {
			var perOp time.Duration
			for i := 0; i < b.N; i++ {
				row, err := experiments.RunTable3("rf1755", s)
				if err != nil {
					b.Fatal(err)
				}
				perOp = row.Average
			}
			b.ReportMetric(float64(perOp.Nanoseconds())/1e3, "µs/update")
		})
	}
}

// --- Batch pipeline ------------------------------------------------------

// batchBenchRules generates a dense overlapping workload on a small mesh:
// the shape (many rules sharing atoms at few nodes) where deduplicating
// per-atom ownership work across a batch pays off.
func batchBenchRules(c *Checker, count int) []Rule {
	var switches []SwitchID
	var links []LinkID
	for i := 0; i < 6; i++ {
		switches = append(switches, c.AddSwitch(fmt.Sprintf("s%d", i)))
	}
	for i := range switches {
		for j := range switches {
			if i != j {
				links = append(links, c.AddLink(switches[i], switches[j]))
			}
		}
	}
	rules := make([]Rule, count)
	for i := range rules {
		l := links[(i*7)%len(links)]
		lo := uint64((i * 137) % (1 << 16))
		rules[i] = Rule{
			ID:       RuleID(i + 1),
			Source:   c.Network().Graph().Link(l).Src,
			Link:     l,
			Match:    Interval{Lo: lo, Hi: lo + 1 + uint64((i*61)%(1<<14))},
			Priority: Priority(i % 64),
		}
	}
	return rules
}

// BenchmarkInsertBatch compares the batch update pipeline at batch sizes
// 1, 16, and 256: the same rule stream with per-batch incremental loop
// checking. The rules/sec metric is the headline batching win — larger
// batches amortize the loop check over the merged delta and fan per-atom
// ownership work out over the worker pool.
func BenchmarkInsertBatch(b *testing.B) {
	const totalRules = 2048
	for _, size := range []int{1, 16, 256} {
		size := size
		b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) {
			proto := New()
			rules := batchBenchRules(proto, totalRules)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := New()
				batchBenchRules(c, 0) // same topology, no rules
				b.StartTimer()
				ops := make([]BatchOp, 0, size)
				for _, r := range rules {
					ops = append(ops, InsertOp(r))
					if len(ops) == size {
						if _, err := c.ApplyBatch(ops); err != nil {
							b.Fatal(err)
						}
						ops = ops[:0]
					}
				}
				if len(ops) > 0 {
					if _, err := c.ApplyBatch(ops); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.N*totalRules)/b.Elapsed().Seconds(), "rules/sec")
		})
	}
}

// BenchmarkChurnBatch is BenchmarkInsertBatch's removal-heavy sibling:
// each batch inserts a window of rules and removes the previous window,
// the steady-state shape of a controller churning its tables.
func BenchmarkChurnBatch(b *testing.B) {
	const window = 512
	for _, size := range []int{1, 16, 256} {
		size := size
		b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) {
			c := New()
			rules := batchBenchRules(c, window*2)
			apply := func(ops []BatchOp) {
				for start := 0; start < len(ops); start += size {
					end := start + size
					if end > len(ops) {
						end = len(ops)
					}
					if _, err := c.ApplyBatch(ops[start:end]); err != nil {
						b.Fatal(err)
					}
				}
			}
			var warm []BatchOp
			for _, r := range rules[:window] {
				warm = append(warm, InsertOp(r))
			}
			apply(warm)
			prev, next := rules[:window], rules[window:]
			b.ResetTimer()
			ops := 0
			for i := 0; i < b.N; i++ {
				churn := make([]BatchOp, 0, 2*window)
				for j := range next {
					next[j].ID = RuleID(int64(i+2)*int64(window*2)) + RuleID(j)
					churn = append(churn, InsertOp(next[j]), RemoveOp(prev[j].ID))
				}
				apply(churn)
				prev, next = next, prev
				ops += 2 * window
			}
			b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "ops/sec")
		})
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblation_AtomGC compares replay cost with and without the atom
// garbage collector on a removal-heavy dataset (rf1755 removes every
// rule): GC pays bookkeeping per op to bound atom growth.
func BenchmarkAblation_AtomGC(b *testing.B) {
	tr, err := datasets.Build("rf1755", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	for _, gc := range []bool{false, true} {
		gc := gc
		name := "off"
		if gc {
			name = "on"
		}
		b.Run("gc-"+name, func(b *testing.B) {
			var atoms int
			for i := 0; i < b.N; i++ {
				n := core.NewNetwork(tr.Graph.Clone(), core.Options{GC: gc})
				var d core.Delta
				for j := range tr.Ops {
					if err := trace.Apply(n, tr.Ops[j], &d); err != nil {
						b.Fatal(err)
					}
				}
				atoms = n.NumAtoms()
			}
			b.ReportMetric(float64(atoms), "final-atoms")
		})
	}
}

// BenchmarkAblation_DeltaLoopCheck isolates the per-update loop check's
// cost: replay with and without FindLoopsDelta.
func BenchmarkAblation_DeltaLoopCheck(b *testing.B) {
	tr, err := datasets.Build("airtel1", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, withCheck bool) {
		for i := 0; i < b.N; i++ {
			n := core.NewNetwork(tr.Graph.Clone(), core.Options{})
			var d core.Delta
			for j := range tr.Ops {
				if err := trace.Apply(n, tr.Ops[j], &d); err != nil {
					b.Fatal(err)
				}
				if withCheck {
					check.FindLoopsDelta(n, &d)
				}
			}
		}
	}
	b.Run("update-only", func(b *testing.B) { run(b, false) })
	b.Run("update+loopcheck", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblation_AllPairsParallel compares Algorithm 3 serial versus
// parallel (the paper's §6 parallelization) on the campus data plane.
func BenchmarkAblation_AllPairsParallel(b *testing.B) {
	n, _, err := experiments.BuildConsistentDataPlane("berkeley", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			check.AllPairs(n)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			check.AllPairsParallel(n, 0)
		}
	})
}

// BenchmarkAblation_ParallelDeltaCheck compares the serial per-update
// loop check against the goroutine-parallel variant on a bulk delta (a
// link-failure-sized label change touching many atoms): §6's
// parallelizable atom loops, measured.
func BenchmarkAblation_ParallelDeltaCheck(b *testing.B) {
	n, tr, err := experiments.BuildConsistentDataPlane("airtel1", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	// Synthesize a bulk delta: every (link, atom) pair of the busiest
	// link's label as Added entries.
	links := experiments.LinksOf(tr)
	var bulk core.Delta
	for _, l := range links {
		n.Label(l).ForEach(func(a int) bool {
			bulk.Added = append(bulk.Added, core.LinkAtom{Link: l, Atom: intervalmapAtom(a)})
			return len(bulk.Added) < 4096
		})
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			check.FindLoopsDelta(n, &bulk)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			check.FindLoopsDeltaParallel(n, &bulk, 0)
		}
	})
}

// BenchmarkAblation_OwnerCopy quantifies the owner-copy cost of atom
// splitting (Algorithm 1 lines 3–9), the term that makes the worst case
// O(RK): each measured insertion splits an atom whose owner table already
// holds K overlapping rules, so the engine deep-copies a K-entry tree.
// GC mode keeps the structure steady between iterations (the paired
// removal merges the split back), isolating the copy cost per update.
func BenchmarkAblation_OwnerCopy(b *testing.B) {
	for _, k := range []int{16, 256, 4096} {
		k := k
		b.Run(fmt.Sprintf("owners-%d", k), func(b *testing.B) {
			c := New(WithoutLoopChecking(), WithAtomGC())
			s := c.AddSwitch("s")
			l := c.AddLink(s, c.AddSwitch("d"))
			// K nested rules share the centre point; any split of the
			// centre atom copies a K-rule owner tree.
			const centre = uint64(1 << 24)
			for i := 0; i < k; i++ {
				w := uint64(1000 + i)
				if _, err := c.InsertRule(Rule{ID: RuleID(i + 1), Source: s, Link: l,
					Match: Interval{Lo: centre - w, Hi: centre + w}, Priority: Priority(i)}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := RuleID(1<<31) + RuleID(i)
				if _, err := c.InsertRule(Rule{ID: id, Source: s, Link: l,
					Match: Interval{Lo: centre - 1, Hi: centre + 1}, Priority: 9999}); err != nil {
					b.Fatal(err)
				}
				if _, err := c.RemoveRule(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Invariant monitor ----------------------------------------------------

// monitorBenchChainLen is the segment length of the benchmark topology:
// many disjoint forwarding chains of this many switches, each hop holding
// one full-coverage rule. Disjoint segments keep every re-evaluation's
// fixpoint segment-local — the production shape (a large fabric where any
// one query touches a small region) where dirty MARKING, not evaluation,
// dominates, which is exactly the cost the dependency index attacks.
const monitorBenchChainLen = 16

// monitorBenchChecker builds n switches as disjoint chains of
// monitorBenchChainLen, plus a parallel "detour" link at the head of the
// first chain that churn toggles traffic onto and off. Only invariants
// whose last evaluation touched the head's out-links can be affected,
// which is the shape the dependency index exploits.
func monitorBenchChecker(n int) (*Checker, []SwitchID, LinkID) {
	c := New(WithoutLoopChecking())
	sw := make([]SwitchID, n)
	for i := range sw {
		sw[i] = c.AddSwitch(fmt.Sprintf("s%d", i))
	}
	var links []LinkID
	var srcs []SwitchID
	for i := 0; i+1 < n; i++ {
		if (i+1)%monitorBenchChainLen != 0 { // chain-internal hop
			links = append(links, c.AddLink(sw[i], sw[i+1]))
			srcs = append(srcs, sw[i])
		}
	}
	alt := c.AddLink(sw[0], sw[1])
	for i, l := range links {
		if _, err := c.InsertRule(Rule{ID: RuleID(i + 1), Source: srcs[i], Link: l,
			Match: Interval{Lo: 0, Hi: 1 << 20}, Priority: 1}); err != nil {
			panic(err)
		}
	}
	return c, sw, alt
}

// monitorBenchSpecs enumerates reachability pairs diagonal by diagonal
// ((i, i+1) for all i, then (i, i+2), ...) so sources spread evenly over
// the chain instead of clustering at the head.
func monitorBenchSpecs(sw []SwitchID, numInv int) []Invariant {
	specs := make([]Invariant, 0, numInv)
	for d := 1; len(specs) < numInv && d < len(sw); d++ {
		for i := 0; i+d < len(sw) && len(specs) < numInv; i++ {
			specs = append(specs, WatchReachable(sw[i], sw[i+d]))
		}
	}
	return specs
}

// monitorChurn toggles a high-priority detour for one /20-sized slice at
// the head of the chain: each update moves those atoms between the chain
// link and the detour link, producing a two-link delta.
func monitorChurn(b *testing.B, c *Checker, src SwitchID, alt LinkID, i int) {
	b.Helper()
	if i%2 == 0 {
		if _, err := c.InsertRule(Rule{ID: 1 << 20, Source: src, Link: alt,
			Match: Interval{Lo: 0, Hi: 4096}, Priority: 99}); err != nil {
			b.Fatal(err)
		}
	} else if _, err := c.RemoveRule(1 << 20); err != nil {
		b.Fatal(err)
	}
}

// monitorChurnNodes picks the topology size for an invariant count: the
// spec enumeration needs ~numInv distinct (i, j>i) pairs, i.e. n(n-1)/2 ≥
// numInv.
func monitorChurnNodes(numInv int) int {
	if numInv <= 2016 {
		return 64 // the historical benchmark size
	}
	return 512 // 130,816 pairs: enough for 10⁵ invariants
}

// BenchmarkMonitorChurn is the incremental-monitor headline: per-update
// cost of keeping 10²..10⁵ standing reachability invariants current under
// churn. Three arms (retired arms' final rows are recorded in CHANGES.md,
// PRs 18 and 23; "sharded" is the index arm's historical name, kept so
// benchstat lines up across PRs — the index has been flat since PR 24):
//
//   - sharded: the dependency index — dirty marking intersects each
//     changed link's per-subgoal atom-range sketches with the delta's
//     touched atoms;
//   - sharded-instrumented: sharded with a trace sink installed, pricing
//     the per-update pipeline tracing (stage timestamps are only taken
//     when a sink is set);
//   - recheck-all: re-running every registered query from scratch per
//     update (capped at 10³, where it is already ~3 orders off).
//
// This churn moves atoms every dirty invariant's verdict actually uses;
// the range-disjoint case where the sketches win is
// BenchmarkMonitorChurnLocality.
// evals/update shows how many fixpoints (one per dirty source, however
// many invariants read it) each update actually re-ran; updates/sec is
// the headline.
func BenchmarkMonitorChurn(b *testing.B) {
	for _, numInv := range []int{100, 1000, 10_000, 100_000} {
		numInv := numInv
		nodes := monitorChurnNodes(numInv)
		run := func(name string, cfg func(m *monitor.Monitor)) {
			b.Run(fmt.Sprintf("invariants-%d/%s", numInv, name), func(b *testing.B) {
				c, sw, alt := monitorBenchChecker(nodes)
				m := c.Monitor()
				cfg(m)
				for _, s := range monitorBenchSpecs(sw, numInv) {
					m.Register(s)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					monitorChurn(b, c, sw[0], alt, i)
				}
				b.StopTimer()
				st := m.Stats()
				b.ReportMetric(float64(st.Evaluations)/float64(b.N), "evals/update")
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/sec")
			})
		}
		run("sharded", func(m *monitor.Monitor) {})
		// sharded plus an installed (trivial) trace sink: the monitor
		// takes stage timestamps only when a sink is set, so this arm
		// prices the observability layer against plain sharded.
		run("sharded-instrumented", func(m *monitor.Monitor) {
			m.SetTraceSink(func(monitor.ApplyTrace) {})
		})
		if numInv <= 1000 {
			b.Run(fmt.Sprintf("invariants-%d/recheck-all", numInv), func(b *testing.B) {
				c, sw, alt := monitorBenchChecker(nodes)
				m := monitor.New(c.Network(), 0)
				for _, s := range monitorBenchSpecs(sw, numInv) {
					m.Register(s)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					monitorChurn(b, c, sw[0], alt, i)
					m.RecheckAll()
				}
				b.StopTimer()
				b.ReportMetric(float64(numInv), "evals/update")
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/sec")
			})
		}
	}
}

// localityBench is the prefix-locality fabric BenchmarkMonitorChurnLocality
// churns: numInv leaf pairs exchanging disjoint /20-sized address slices
// through one shared trunk link A -> B, with B distributing to the
// destination leaves through a binary tree (so every invariant's
// dependency set stays ~2·log₂(numInv) links) and a dead-end detour
// A -> C that churn steers one slice onto. Every invariant depends on the
// trunk; each depends on a different slice of its atoms.
type localityBench struct {
	c        *Checker
	src, dst []SwitchID
	a        SwitchID
	trunk    LinkID // A -> B (the tree root)
	detour   LinkID // A -> C (dead end)
	width    uint64
}

func buildLocalityBench(numInv int) *localityBench {
	const width = 1 << 12
	c := New(WithoutLoopChecking())
	lb := &localityBench{c: c, width: width}
	lb.a = c.AddSwitch("A")
	insert := func(id int, sw SwitchID, l LinkID, lo, hi uint64, prio int) {
		if _, err := c.InsertRule(Rule{ID: RuleID(id), Source: sw, Link: l,
			Match: Interval{Lo: lo, Hi: hi}, Priority: Priority(prio)}); err != nil {
			panic(err)
		}
	}
	// Destination leaves first (rule ids 1..numInv for the src rules come
	// later; tree rules get ids past 2*numInv).
	lb.dst = make([]SwitchID, numInv)
	for i := range lb.dst {
		lb.dst[i] = c.AddSwitch(fmt.Sprintf("d%d", i))
	}
	nextRule := 2*numInv + 1
	// build returns the node distributing slices [lo, hi) to their leaves.
	var build func(lo, hi int) SwitchID
	build = func(lo, hi int) SwitchID {
		if hi-lo == 1 {
			return lb.dst[lo]
		}
		mid := (lo + hi) / 2
		node := c.AddSwitch(fmt.Sprintf("t%d-%d", lo, hi))
		left, right := build(lo, mid), build(mid, hi)
		insert(nextRule, node, c.AddLink(node, left), uint64(lo)*width, uint64(mid)*width, 1)
		nextRule++
		insert(nextRule, node, c.AddLink(node, right), uint64(mid)*width, uint64(hi)*width, 1)
		nextRule++
		return node
	}
	root := build(0, numInv)
	lb.trunk = c.AddLink(lb.a, root)
	lb.detour = c.AddLink(lb.a, c.AddSwitch("C"))
	insert(nextRule, lb.a, lb.trunk, 0, uint64(numInv)*width, 1)
	// Source leaves: each injects only its own slice into A.
	lb.src = make([]SwitchID, numInv)
	for i := range lb.src {
		lb.src[i] = c.AddSwitch(fmt.Sprintf("s%d", i))
		insert(i+1, lb.src[i], c.AddLink(lb.src[i], lb.a),
			uint64(i)*width, uint64(i+1)*width, 1)
	}
	return lb
}

// churn toggles a high-priority detour rule for leaf j's slice on the
// shared trunk node: every update's delta touches the trunk (a dep link
// of every invariant) but only one slice's atoms.
func (lb *localityBench) churn(b *testing.B, i int) {
	b.Helper()
	j := (i / 2) % len(lb.src)
	id := RuleID(1 << 20)
	if i%2 == 0 {
		if _, err := lb.c.InsertRule(Rule{ID: id, Source: lb.a, Link: lb.detour,
			Match:    Interval{Lo: uint64(j) * lb.width, Hi: uint64(j+1) * lb.width},
			Priority: 99}); err != nil {
			b.Fatal(err)
		}
	} else if _, err := lb.c.RemoveRule(id); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMonitorChurnLocality measures the tentpole of atom-granular
// dependency tracking: churn whose deltas all hit a link every invariant
// depends on, but each delta moving only one invariant's atoms — the
// case the paper's atoms insight says should be nearly free. Every
// invariant depends on the changed link, yet an update re-evaluates ~1,
// with the rest skipped by range-sketch intersection (rskips/update).
func BenchmarkMonitorChurnLocality(b *testing.B) {
	for _, numInv := range []int{10_000, 100_000} {
		numInv := numInv
		b.Run(fmt.Sprintf("invariants-%d/atom-granular", numInv), func(b *testing.B) {
			lb := buildLocalityBench(numInv)
			m := lb.c.Monitor()
			for i := range lb.src {
				m.Register(WatchReachable(lb.src[i], lb.dst[i]))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lb.churn(b, i)
			}
			b.StopTimer()
			st := m.Stats()
			b.ReportMetric(float64(st.Evaluations)/float64(b.N), "evals/update")
			b.ReportMetric(float64(st.RangeSkips)/float64(b.N), "rskips/update")
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/sec")
		})
	}
}
