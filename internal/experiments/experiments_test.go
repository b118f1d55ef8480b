package experiments

import (
	"strings"
	"testing"
	"time"
)

const tinyScale = 0.01

func TestRunTable2(t *testing.T) {
	rows, err := RunTable2(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows=%d want 8", len(rows))
	}
	for _, r := range rows {
		if r.Nodes == 0 || r.MaxLinks == 0 || r.Operations == 0 {
			t.Fatalf("degenerate row %+v", r)
		}
	}
	// INET is the largest synthetic topology.
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Dataset] = r
	}
	if byName["inet"].Nodes <= byName["rf1755"].Nodes {
		t.Fatal("inet should have the most nodes")
	}
}

func TestRunBatch(t *testing.T) {
	seq, err := RunBatch("rf1755", tinyScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	bat, err := RunBatch("rf1755", tinyScale, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Identical replays must agree on final engine state regardless of
	// batch size.
	if seq.Atoms != bat.Atoms || seq.Ops != bat.Ops {
		t.Fatalf("batch replay diverged: %+v vs %+v", seq, bat)
	}
	if seq.Throughput <= 0 || bat.Throughput <= 0 {
		t.Fatalf("throughput missing: %+v vs %+v", seq, bat)
	}
	if _, err := RunBatch("rf1755", tinyScale, 0); err == nil {
		t.Fatal("batch size 0 accepted")
	}
}

func TestRunTable3(t *testing.T) {
	row, err := RunTable3("rf1755", tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if row.TotalAtoms == 0 {
		t.Fatal("no atoms")
	}
	if row.Average <= 0 || row.Median <= 0 {
		t.Fatalf("times %v/%v", row.Median, row.Average)
	}
	if row.PctBelow250 <= 0 || row.PctBelow250 > 100 {
		t.Fatalf("pct=%v", row.PctBelow250)
	}
	if row.Latencies.Len() == 0 {
		t.Fatal("no samples retained")
	}
	if _, err := RunTable3("bogus", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRunTable3Veriflow(t *testing.T) {
	row, err := RunTable3Veriflow("4switch", tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if row.Average <= 0 {
		t.Fatal("no time measured")
	}
	if !strings.Contains(row.Dataset, "veriflow") {
		t.Fatalf("dataset label %q", row.Dataset)
	}
}

func TestDeltaNetFasterThanVeriflowOnChurn(t *testing.T) {
	// The headline claim at laptop scale: Delta-net's per-update time
	// beats Veriflow-RI's on a dataset with many overlapping rules.
	dn, err := RunTable3("rf1755", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	vf, err := RunTable3Veriflow("rf1755", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if dn.Average >= vf.Average {
		t.Fatalf("Delta-net avg %v not faster than Veriflow-RI avg %v", dn.Average, vf.Average)
	}
}

func TestRunFigure8(t *testing.T) {
	series, err := RunFigure8(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 8 {
		t.Fatalf("series=%d", len(series))
	}
	for _, s := range series {
		if len(s.Points) == 0 {
			t.Fatalf("%s: no CDF points", s.Dataset)
		}
		last := s.Points[len(s.Points)-1]
		if last.Fraction < 0.99 {
			t.Fatalf("%s: CDF tops out at %v", s.Dataset, last.Fraction)
		}
	}
}

func TestRunTable4(t *testing.T) {
	row, err := RunTable4("airtel1", tinyScale, 8)
	if err != nil {
		t.Fatal(err)
	}
	if row.Rules == 0 || row.Queries == 0 {
		t.Fatalf("row %+v", row)
	}
	if row.DeltanetAvg <= 0 || row.VeriflowAvg <= 0 {
		t.Fatalf("times %+v", row)
	}
	// The paper's headline: Delta-net's subgraph restriction beats
	// Veriflow's per-EC graph construction.
	if row.DeltanetAvg >= row.VeriflowAvg {
		t.Fatalf("Delta-net %v not faster than Veriflow %v", row.DeltanetAvg, row.VeriflowAvg)
	}
	if row.VeriflowGraphs == 0 {
		t.Fatal("Veriflow built no graphs")
	}
}

func TestRunTable5(t *testing.T) {
	row, err := RunTable5("rf1755", tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if row.VeriflowBytes <= 0 || row.DeltanetBytes <= 0 {
		t.Fatalf("bytes %+v", row)
	}
	// Delta-net trades memory for time: the paper measured 5–7× Veriflow-RI.
	// This engine used ≈ 1.35× until PR 25's 32-byte rule record, id table
	// and 8-byte owner cell, and ≈ 0.8–0.95× since, so the paper's ratio is
	// a ceiling here, not a floor.
	if row.Ratio > 7 {
		t.Fatalf("ratio=%v, Delta-net above the paper's 7× Veriflow-RI", row.Ratio)
	}
}

func TestRunAppendixC(t *testing.T) {
	// Needs enough prefixes for overlap; tinyScale yields too few.
	res, err := RunAppendixC("rf1755", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxECs < 2 {
		t.Fatalf("MaxECs=%d", res.MaxECs)
	}
}

func TestRunScaling(t *testing.T) {
	pts, err := RunScaling([]float64{0.01, 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[1].Ops <= pts[0].Ops {
		t.Fatalf("points %+v", pts)
	}
	// Quasi-linear: per-op time must not blow up with op count. Allow a
	// generous factor for noise.
	if pts[1].PerOp > pts[0].PerOp*20+time.Millisecond {
		t.Fatalf("per-op time exploded: %v -> %v", pts[0].PerOp, pts[1].PerOp)
	}
}

func TestFormatTable(t *testing.T) {
	s := FormatTable([]string{"a", "bb"}, [][]string{{"xxx", "y"}})
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("table %q", s)
	}
	if !strings.HasPrefix(lines[0], "a  ") {
		t.Fatalf("header %q", lines[0])
	}
}

func TestBuildConsistentDataPlane(t *testing.T) {
	n, tr, err := BuildConsistentDataPlane("4switch", tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumRules() == 0 {
		t.Fatal("no rules")
	}
	if len(LinksOf(tr)) == 0 {
		t.Fatal("no links")
	}
	if msg := n.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}
