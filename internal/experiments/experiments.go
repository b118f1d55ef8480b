// Package experiments implements the paper's evaluation harness (§4): one
// runner per table and figure, shared by the dnbench command and the
// repository's testing.B benchmarks. Each runner reproduces the
// measurement protocol the paper describes; EXPERIMENTS.md records
// paper-vs-measured outcomes.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"deltanet/internal/check"
	"deltanet/internal/core"
	"deltanet/internal/datasets"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
	"deltanet/internal/sdnip"
	"deltanet/internal/stats"
	"deltanet/internal/trace"
	"deltanet/internal/veriflow"
)

// Table2Row is one dataset-summary row (paper Table 2).
type Table2Row struct {
	Dataset    string
	Nodes      int
	MaxLinks   int
	Operations int
}

// RunTable2 builds every dataset at the given scale and summarizes it.
func RunTable2(scale float64) ([]Table2Row, error) {
	var rows []Table2Row
	for _, name := range datasets.Names() {
		tr, err := datasets.Build(name, scale)
		if err != nil {
			return nil, err
		}
		info := datasets.Describe(tr)
		rows = append(rows, Table2Row{
			Dataset:    name,
			Nodes:      info.Nodes,
			MaxLinks:   info.Links,
			Operations: info.Operations,
		})
	}
	return rows, nil
}

// Table3Row is one per-dataset rule-update measurement row (paper Table 3).
type Table3Row struct {
	Dataset     string
	TotalAtoms  int
	Median      time.Duration
	Average     time.Duration
	PctBelow250 float64
	Latencies   *stats.Latencies // retained for Figure 8's CDF
}

// RunTable3 replays a dataset through Delta-net, timing each operation's
// processing (Algorithm 1/2) plus the delta-graph forwarding-loop check —
// the combined time the paper reports in Table 3 and Figure 8.
func RunTable3(name string, scale float64) (Table3Row, error) {
	tr, err := datasets.Build(name, scale)
	if err != nil {
		return Table3Row{}, err
	}
	n := core.NewNetwork(tr.Graph, core.Options{})
	lat := stats.NewLatencies(len(tr.Ops))
	var d core.Delta
	for i, op := range tr.Ops {
		t0 := time.Now()
		if err := trace.Apply(n, op, &d); err != nil {
			return Table3Row{}, fmt.Errorf("%s op %d: %w", name, i, err)
		}
		check.FindLoopsDelta(n, &d)
		lat.Add(time.Since(t0))
	}
	return Table3Row{
		Dataset:     name,
		TotalAtoms:  n.NumAtoms(),
		Median:      lat.Median(),
		Average:     lat.Mean(),
		PctBelow250: lat.FractionBelow(250*time.Microsecond) * 100,
		Latencies:   lat,
	}, nil
}

// RunTable3Veriflow replays a dataset through Veriflow-RI with its full
// per-update pipeline (EC computation, forwarding-graph construction, loop
// traversal), for the §4.3.1 speedup comparison. Datasets whose rules are
// not single prefixes are rejected (all shipped datasets are
// prefix-based).
func RunTable3Veriflow(name string, scale float64) (Table3Row, error) {
	tr, err := datasets.Build(name, scale)
	if err != nil {
		return Table3Row{}, err
	}
	e := veriflow.NewEngine(tr.Graph)
	lat := stats.NewLatencies(len(tr.Ops))
	for i, op := range tr.Ops {
		t0 := time.Now()
		if op.Insert {
			p, ok := ipnet.PrefixFromInterval(ipnet.IPv4, op.Rule.Match)
			if !ok {
				return Table3Row{}, fmt.Errorf("%s op %d: non-prefix rule", name, i)
			}
			_, err = e.InsertRule(veriflow.Rule{ID: op.Rule.ID, Source: op.Rule.Source,
				Link: op.Rule.Link, Prefix: p, Priority: op.Rule.Priority})
		} else {
			_, err = e.RemoveRule(op.Rule.ID)
		}
		if err != nil {
			return Table3Row{}, fmt.Errorf("%s op %d: %w", name, i, err)
		}
		lat.Add(time.Since(t0))
	}
	return Table3Row{
		Dataset:     name + " (veriflow-ri)",
		Median:      lat.Median(),
		Average:     lat.Mean(),
		PctBelow250: lat.FractionBelow(250*time.Microsecond) * 100,
		Latencies:   lat,
	}, nil
}

// Figure8Series is one dataset's CDF of combined per-op times.
type Figure8Series struct {
	Dataset string
	Points  []stats.CDFPoint
}

// RunFigure8 produces the CDF series of Figure 8 for all datasets.
func RunFigure8(scale float64) ([]Figure8Series, error) {
	var out []Figure8Series
	for _, name := range datasets.Names() {
		row, err := RunTable3(name, scale)
		if err != nil {
			return nil, err
		}
		out = append(out, Figure8Series{Dataset: name, Points: row.Latencies.CDF(5, 4)})
	}
	return out, nil
}

// Table4Row is one what-if link-failure measurement row (paper Table 4).
type Table4Row struct {
	Dataset        string
	Rules          int
	Queries        int
	VeriflowAvg    time.Duration // Veriflow-RI per-query average
	DeltanetAvg    time.Duration // Delta-net affected-subgraph average
	DeltanetLoops  time.Duration // Delta-net + per-atom loop check average
	VeriflowGraphs int           // total forwarding graphs Veriflow built
}

// RunTable4 builds a consistent data plane from a dataset's insertions
// (§4.3.2) and answers, for every inter-switch link, the query "which
// packets and parts of the network are affected if this link fails?" three
// ways: Veriflow-RI (forwarding graph per affected EC), Delta-net
// (label-restricted subgraph), and Delta-net plus loop checking.
// maxQueries > 0 samples the first k links.
func RunTable4(name string, scale float64, maxQueries int) (Table4Row, error) {
	tr, err := datasets.Build(name, scale)
	if err != nil {
		return Table4Row{}, err
	}
	n := core.NewNetwork(tr.Graph, core.Options{})
	vf := veriflow.NewEngine(tr.Graph)
	var d core.Delta
	seen := map[core.RuleID]bool{}
	for _, op := range tr.Ops {
		if !op.Insert || seen[op.Rule.ID] {
			continue
		}
		// Consistent data plane: apply inserts only; datasets that
		// remove every rule would otherwise end empty (§4.3.2 builds
		// the data plane "from all the rule insertions").
		seen[op.Rule.ID] = true
		if err := trace.Apply(n, op, &d); err != nil {
			return Table4Row{}, err
		}
		p, ok := ipnet.PrefixFromInterval(ipnet.IPv4, op.Rule.Match)
		if !ok {
			return Table4Row{}, fmt.Errorf("non-prefix rule in %s", name)
		}
		if err := vf.LoadRule(veriflow.Rule{ID: op.Rule.ID, Source: op.Rule.Source,
			Link: op.Rule.Link, Prefix: p, Priority: op.Rule.Priority}); err != nil {
			return Table4Row{}, err
		}
	}

	links := sdnip.InterSwitchLinks(tr.Graph)
	if maxQueries > 0 && len(links) > maxQueries {
		links = links[:maxQueries]
	}
	row := Table4Row{Dataset: name, Rules: n.NumRules(), Queries: len(links)}
	var vfTotal, dnTotal, dnLoopTotal time.Duration
	for _, l := range links {
		t0 := time.Now()
		res := vf.WhatIfLinkFailure(l, false)
		vfTotal += time.Since(t0)
		row.VeriflowGraphs += res.GraphsBuilt

		t0 = time.Now()
		sub := check.AffectedByLinkFailure(n, l)
		dnTotal += time.Since(t0)

		t0 = time.Now()
		sub2 := check.AffectedByLinkFailure(n, l)
		check.LoopsInSubgraph(n, sub2)
		dnLoopTotal += time.Since(t0)
		_ = sub
	}
	q := time.Duration(len(links))
	if q == 0 {
		q = 1
	}
	row.VeriflowAvg = vfTotal / q
	row.DeltanetAvg = dnTotal / q
	row.DeltanetLoops = dnLoopTotal / q
	return row, nil
}

// Table5Row is one memory-usage row (paper Appendix D, Table 5).
type Table5Row struct {
	Dataset       string
	VeriflowBytes int64
	DeltanetBytes int64
	Ratio         float64
}

// RunTable5 builds a consistent data plane in both engines and reports
// their self-accounted footprints (heap-probe deltas are noisy at laptop
// scale; self-accounting reproduces the paper's relative comparison).
func RunTable5(name string, scale float64) (Table5Row, error) {
	tr, err := datasets.Build(name, scale)
	if err != nil {
		return Table5Row{}, err
	}
	n := core.NewNetwork(tr.Graph, core.Options{})
	vf := veriflow.NewEngine(tr.Graph)
	var d core.Delta
	seen := map[core.RuleID]bool{}
	for _, op := range tr.Ops {
		if !op.Insert || seen[op.Rule.ID] {
			continue
		}
		seen[op.Rule.ID] = true
		if err := trace.Apply(n, op, &d); err != nil {
			return Table5Row{}, err
		}
		p, _ := ipnet.PrefixFromInterval(ipnet.IPv4, op.Rule.Match)
		if err := vf.LoadRule(veriflow.Rule{ID: op.Rule.ID, Source: op.Rule.Source,
			Link: op.Rule.Link, Prefix: p, Priority: op.Rule.Priority}); err != nil {
			return Table5Row{}, err
		}
	}
	row := Table5Row{
		Dataset:       name,
		VeriflowBytes: vf.MemoryBytes(),
		DeltanetBytes: n.MemoryBytes(),
	}
	if row.VeriflowBytes > 0 {
		row.Ratio = float64(row.DeltanetBytes) / float64(row.VeriflowBytes)
	}
	return row, nil
}

// AppendixCResult reports the maximum EC fan-out of a single rule update
// in Veriflow-RI (paper Appendix C).
type AppendixCResult struct {
	Dataset string
	MaxECs  int
}

// RunAppendixC replays a dataset's insertions through Veriflow-RI and
// reports the largest number of equivalence classes any single insertion
// affected.
func RunAppendixC(name string, scale float64) (AppendixCResult, error) {
	tr, err := datasets.Build(name, scale)
	if err != nil {
		return AppendixCResult{}, err
	}
	vf := veriflow.NewEngine(tr.Graph)
	for _, op := range tr.Ops {
		if !op.Insert {
			continue
		}
		p, ok := ipnet.PrefixFromInterval(ipnet.IPv4, op.Rule.Match)
		if !ok {
			return AppendixCResult{}, fmt.Errorf("non-prefix rule in %s", name)
		}
		if _, err := vf.InsertRule(veriflow.Rule{ID: op.Rule.ID, Source: op.Rule.Source,
			Link: op.Rule.Link, Prefix: p, Priority: op.Rule.Priority}); err != nil {
			return AppendixCResult{}, err
		}
	}
	return AppendixCResult{Dataset: name, MaxECs: vf.MaxAffectedECs}, nil
}

// ScalingPoint is one sample of the Theorem 1 scaling sweep.
type ScalingPoint struct {
	Ops        int
	Atoms      int
	TotalTime  time.Duration
	PerOp      time.Duration
	PerOpAtoms float64 // ns per (op × log-ish factor); reported raw for the table
}

// RunScaling measures per-op cost as the rule count grows, on the rf1755
// dataset at increasing scales — empirical support for the amortized
// quasi-linear bound (Theorem 1): per-op time should grow far slower than
// the op count.
func RunScaling(scales []float64) ([]ScalingPoint, error) {
	var out []ScalingPoint
	for _, s := range scales {
		row, err := RunTable3("rf1755", s)
		if err != nil {
			return nil, err
		}
		n := row.Latencies.Len()
		var total time.Duration
		total = row.Average * time.Duration(n)
		out = append(out, ScalingPoint{
			Ops:       n,
			Atoms:     row.TotalAtoms,
			TotalTime: total,
			PerOp:     row.Average,
		})
	}
	return out, nil
}

// BatchRow is one measurement of the batch update pipeline: a full
// dataset replay at a given batch size, checked once per batch over the
// merged delta-graph.
type BatchRow struct {
	Dataset    string
	BatchSize  int
	Ops        int
	Atoms      int
	TotalTime  time.Duration
	Throughput float64          // ops per second
	P50        time.Duration    // median per-flush update+check latency
	P99        time.Duration    // 99th-percentile per-flush latency
	Latencies  *stats.Latencies // per-flush samples (one per applied batch)
}

// RunBatch replays a dataset through Network.ApplyBatch in atomic batches
// of the given size (1 = one rule per batch), running the incremental
// loop check once per batch. It measures the combined update+check time,
// the batched counterpart of Table 3's protocol; comparing rows at sizes
// 1 and N exposes the batching win. Each flush is also timed
// individually, so the row carries the per-update latency distribution
// (p50/p99) alongside throughput — the tail is what batching trades
// against.
func RunBatch(name string, scale float64, batchSize int) (BatchRow, error) {
	if batchSize < 1 {
		return BatchRow{}, fmt.Errorf("batch size must be >= 1, got %d", batchSize)
	}
	tr, err := datasets.Build(name, scale)
	if err != nil {
		return BatchRow{}, err
	}
	n := core.NewNetwork(tr.Graph.Clone(), core.Options{})
	var d core.Delta
	ops := make([]core.BatchOp, 0, batchSize)
	lat := stats.NewLatencies(len(tr.Ops)/batchSize + 1)
	start := time.Now()
	flush := func() error {
		if len(ops) == 0 {
			return nil
		}
		t0 := time.Now()
		if err := n.ApplyBatch(ops, &d, 0); err != nil {
			return err
		}
		check.FindLoopsDelta(n, &d)
		lat.Add(time.Since(t0))
		ops = ops[:0]
		return nil
	}
	for i := range tr.Ops {
		ops = append(ops, core.BatchOp{Insert: tr.Ops[i].Insert, Rule: tr.Ops[i].Rule})
		if len(ops) == batchSize {
			if err := flush(); err != nil {
				return BatchRow{}, fmt.Errorf("%s op %d: %w", name, i, err)
			}
		}
	}
	if err := flush(); err != nil {
		return BatchRow{}, fmt.Errorf("%s final batch: %w", name, err)
	}
	total := time.Since(start)
	row := BatchRow{
		Dataset:   name,
		BatchSize: batchSize,
		Ops:       len(tr.Ops),
		Atoms:     n.NumAtoms(),
		TotalTime: total,
		P50:       lat.Median(),
		P99:       lat.Percentile(99),
		Latencies: lat,
	}
	if total > 0 {
		row.Throughput = float64(len(tr.Ops)) / total.Seconds()
	}
	return row, nil
}

// FormatTable renders rows of cells as an aligned text table.
func FormatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// BuildConsistentDataPlane loads a dataset's insertions into a fresh
// engine (exported for the dnquery tool and examples).
func BuildConsistentDataPlane(name string, scale float64) (*core.Network, *trace.Trace, error) {
	tr, err := datasets.Build(name, scale)
	if err != nil {
		return nil, nil, err
	}
	n := core.NewNetwork(tr.Graph, core.Options{})
	var d core.Delta
	seen := map[core.RuleID]bool{}
	for _, op := range tr.Ops {
		if !op.Insert || seen[op.Rule.ID] {
			continue
		}
		seen[op.Rule.ID] = true
		if err := trace.Apply(n, op, &d); err != nil {
			return nil, nil, err
		}
	}
	return n, tr, nil
}

// LinksOf exposes the failure-candidate links of a built trace (one per
// bidirectional pair).
func LinksOf(tr *trace.Trace) []netgraph.LinkID { return sdnip.InterSwitchLinks(tr.Graph) }
