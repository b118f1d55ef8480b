// Command bench is the repository's benchmark: four seeded workloads that
// drive deltanet through its public entry points, check its outputs, and
// print every metric by name. BENCHMARK.json at the repository root is the
// contract; README.md in this directory explains the design.
//
//	bash bench/run.sh --workload serve_churn --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --all
//	bash bench/run.sh --compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"time"
)

// options are one run's parameters.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool
}

// phases splits --seconds into the workload's three timed phases.
func (o *options) phases(w *workload) (paced, query, burst time.Duration) {
	s := float64(time.Second) * o.seconds
	return time.Duration(s * w.shares[0]), time.Duration(s * w.shares[1]), time.Duration(s * w.shares[2])
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's results.
type report struct {
	workload string
	trace    bool
	quick    bool

	e2e    map[string]metricValue
	layers map[string]metricValue
	info   map[string]any
	notes  []string

	attempted, failed int
	isInvalid         bool

	// Carried from the phases to the traced attribution.
	whatifP50, reachP50 float64
	busy                int

	lapAt time.Time
	laps  map[string]float64
}

// lap records the wall-clock seconds since the previous lap under name, so
// a run shows where its time went (untimed work included).
func (r *report) lap(name string) {
	now := time.Now()
	r.laps[name] += now.Sub(r.lapAt).Seconds()
	r.lapAt = now
}

func newReport(w *workload, o *options) *report {
	return &report{workload: w.name, trace: o.trace, quick: o.quick,
		e2e: map[string]metricValue{}, layers: map[string]metricValue{},
		info:  map[string]any{"workload": w.name, "seed": o.seed, "seconds": o.seconds},
		lapAt: time.Now(), laps: map[string]float64{}}
}

func (r *report) set(name string, v float64, unit string) { r.e2e[name] = metricValue{v, unit} }

func (r *report) layer(name string, v float64, unit string) { r.layers[name] = metricValue{v, unit} }

func (r *report) attempt(n int) { r.attempted += n }

// fail counts n failed operations; a non-empty format adds a note.
func (r *report) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	if format != "" {
		r.note(format, args...)
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// invalid marks the run as saying nothing about the system (the generator
// could not offer its load); it is reported as not correct.
func (r *report) invalid(format string, args ...any) {
	r.isInvalid = true
	r.note(format, args...)
}

// support records whether a tail percentile had enough samples beyond it.
// Smoke-test runs are too short to support any tail and only say so.
func (r *report) support(name string, d dist) {
	if !d.TailOK && r.quick {
		r.note("%s: only %d samples (smoke-test size)", name, d.N)
	} else if !d.TailOK {
		r.invalid("%s: only %d samples, fewer than %d beyond the percentile", name, d.N, tailMin)
	}
}

// finalLine is the object the driver reads from the last line of stdout.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the run: a detail object first (inputs hash, sample counts,
// notes, both metric families), then the contract's one-line result.
func (r *report) emit() error {
	want := endToEndNames
	if r.trace {
		want = perLayerNames
	}
	out := make(map[string]metricValue, len(want))
	for _, name := range want {
		m, ok := r.e2e[name]
		if !ok {
			m, ok = r.layers[name]
		}
		if !ok {
			if slices.Contains(measuredNames, name) {
				r.invalid("metric %s was not measured", name)
			}
			// A layer the workload never enters reports zero work.
			m = metricValue{0, unitOf(name)}
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.invalid("metric %s is not finite", name)
			m.Value = 0
		}
		out[name] = m
	}
	r.info["ops_attempted"], r.info["ops_failed"] = r.attempted, r.failed
	r.info["notes"], r.info["wall_s"] = r.notes, r.laps
	r.info["end_to_end"], r.info["per_layer"] = r.e2e, r.layers
	detail, err := json.Marshal(r.info)
	if err != nil {
		return err
	}
	fmt.Println(string(detail))
	line, err := json.Marshal(finalLine{
		Correct:   r.failed == 0 && !r.isInvalid,
		Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runLimit is how long one run may take before the process gives up: a
// server that stops answering must not hang the benchmark.
const runLimit = 170 * time.Second

func run(w *workload, o *options) (*report, error) {
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "%s: no result after %v, giving up\n", w.name, runLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()
	if w.library {
		return runLibrary(w, o)
	}
	return runService(w, o)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: replay, serve_churn, watch_churn or query_mix")
		all     = flag.Bool("all", false, "run every workload, untraced then traced")
		seed    = flag.Int64("seed", defaultSeed, "seed all generated inputs derive from")
		seconds = flag.Float64("seconds", runSeconds, "length of the timed phases")
		trace   = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes bench/out/<workload>.trace.json")
		quick   = flag.Bool("quick", false, "tiny planes (smoke test size)")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		summar  = flag.Bool("summarize", false, "reduce a file of run outputs to medians (the BASELINE.json format): -summarize runs.json")
	)
	flag.Parse()
	if *summar {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: -summarize runs.json")
			os.Exit(2)
		}
		os.Exit(summarizeFile(flag.Arg(0), os.Stdout))
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	var todo []*workload
	switch {
	case *all:
		todo = workloads
	case workloadByName(*name) != nil:
		todo = []*workload{workloadByName(*name)}
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q; see -help\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "-seconds must be positive")
		os.Exit(2)
	}
	ok := true
	for _, w := range todo {
		modes := []bool{*trace != 0}
		if *all {
			modes = []bool{false, true}
		}
		for _, tr := range modes {
			r, err := run(w, &options{seed: *seed, seconds: *seconds, trace: tr, quick: *quick})
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
				os.Exit(1)
			}
			if err := r.emit(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
				os.Exit(1)
			}
			ok = ok && r.failed == 0 && !r.isInvalid
		}
	}
	if !ok {
		// The result line has been printed with correct=false; the exit
		// code stays 0 so the driver reads it.
		fmt.Fprintln(os.Stderr, "bench: a run was incorrect or invalid; see notes")
	}
}
