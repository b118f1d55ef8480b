package main

// compare.go is bench-compare: it reads two sets of runs, and for every
// workload and end-to-end metric prints both medians and quartiles, the
// bound BENCHMARK.json fixes, and a verdict. It also summarises one set of
// runs into the BASELINE.json format.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// contract is BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadContract reads BENCHMARK.json from the working directory or, when run
// from inside bench/, from its parent.
func loadContract() (*contract, error) {
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		body, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var c contract
		if err := json.Unmarshal(body, &c); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &c, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// stat summarises one metric over a set of runs.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// spread is the interquartile range as a share of the median.
func (s stat) spread() float64 {
	if s.N < 2 || s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// summary is a set of runs reduced to medians: the BASELINE.json format.
type summary struct {
	Summary   bool                       `json:"summary"` // marks the format
	Workloads map[string]workloadSummary `json:"workloads"`
}

type workloadSummary struct {
	Runs      int             `json:"runs"`
	Attempted int             `json:"ops_attempted"`
	Failed    int             `json:"ops_failed"`
	Metrics   map[string]stat `json:"metrics"`
}

func (w workloadSummary) failureRate() float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}

// loadResults reads either a summary or the concatenated standard output of
// any number of untraced runs (the detail objects are used, everything else
// is skipped).
func loadResults(path string) (*summary, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s summary
	if json.Unmarshal(body, &s) == nil && s.Summary {
		return &s, nil
	}
	type detail struct {
		Workload  string                 `json:"workload"`
		EndToEnd  map[string]metricValue `json:"end_to_end"`
		Attempted int                    `json:"ops_attempted"`
		Failed    int                    `json:"ops_failed"`
	}
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	out := &summary{Summary: true, Workloads: map[string]workloadSummary{}}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var d detail
		if json.Unmarshal(sc.Bytes(), &d) != nil || d.Workload == "" || len(d.EndToEnd) == 0 {
			continue
		}
		ws := out.Workloads[d.Workload]
		ws.Runs++
		ws.Attempted += d.Attempted
		ws.Failed += d.Failed
		out.Workloads[d.Workload] = ws
		if values[d.Workload] == nil {
			values[d.Workload] = map[string][]float64{}
		}
		for name, m := range d.EndToEnd {
			values[d.Workload][name] = append(values[d.Workload][name], m.Value)
			units[name] = m.Unit
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no untraced run results found", path)
	}
	for w, metrics := range values {
		ws := out.Workloads[w]
		ws.Metrics = map[string]stat{}
		for name, xs := range metrics {
			q1, q3 := quartiles(xs)
			ws.Metrics[name] = stat{Median: median(xs), Q1: q1, Q3: q3, N: len(xs), Unit: units[name]}
		}
		out.Workloads[w] = ws
	}
	return out, nil
}

// Verdicts of one workload × metric row.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictUnbounded  = "unbounded"
)

// judge compares b against a for a metric with the given direction and
// bound. Where either side's own spread exceeds the bound the runs cannot
// resolve a change of that size.
func judge(a, b stat, better string, bound float64) string {
	if a.spread() > bound || b.spread() > bound {
		return verdictUnresolved
	}
	change := (b.Median - a.Median) / a.Median // positive: b is larger
	if better == "lower" {
		change = -change
	}
	switch {
	case change < -bound:
		return verdictWorse
	case change > bound:
		return verdictBetter
	}
	return verdictSame
}

// compareFiles prints the comparison and returns the process exit code:
// non-zero when any row is worse or b failed a larger share of operations.
func compareFiles(pathA, pathB string, w io.Writer) int {
	c, err := loadContract()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	a, err := loadResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, err := loadResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	code := 0
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median [q1, q3]\tb median [q1, q3]\tchange\tbound\tverdict")
	for _, wl := range c.Workloads {
		wa, okA := a.Workloads[wl.Name]
		wb, okB := b.Workloads[wl.Name]
		if !okA || !okB {
			continue
		}
		for _, name := range measuredNames {
			sa, sb := wa.Metrics[name], wb.Metrics[name]
			if sa.N == 0 || sb.N == 0 {
				continue
			}
			// A metric BENCHMARK.json does not bound is shown, never judged.
			bound, v := "-", verdictUnbounded
			if i := slices.IndexFunc(c.EndToEnd, func(m contractMetric) bool { return m.Name == name }); i >= 0 {
				m := c.EndToEnd[i]
				bound, v = fmt.Sprintf("%.0f%%", *m.Bound*100), judge(sa, sb, m.Better, *m.Bound)
			}
			if v == verdictWorse {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%+.1f%%\t%s\t%s\n",
				wl.Name, name, sa.Unit, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3,
				(sb.Median-sa.Median)/sa.Median*100, bound, v)
		}
		if wb.failureRate() > wa.failureRate() {
			code = 1
			fmt.Fprintf(tw, "%s\tops_failed/ops_attempted\t\t%d/%d\t%d/%d\t\t\t%s\n",
				wl.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted, verdictWorse)
		}
	}
	tw.Flush()
	return code
}

// summarizeFile prints the runs in path reduced to the BASELINE.json format.
func summarizeFile(path string, w io.Writer) int {
	s, err := loadResults(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	return 0
}
