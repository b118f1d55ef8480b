package main

import (
	"math"
	"net"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestContractMatchesBenchmarkJSON keeps the names the program prints and
// the contract the driver reads from drifting apart.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program default %d", c.RunSeconds, runSeconds)
	}
	if !slices.Equal(c.Paths, []string{"bench"}) {
		t.Errorf("paths %v, want [bench]", c.Paths)
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
		if wl := workloadByName(w.Name); wl == nil {
			t.Errorf("workload %q in BENCHMARK.json is not defined", w.Name)
		} else if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has workloads %v, program has %d", names, len(workloads))
	}
	check := func(kind string, got []contractMetric, want []string, bounded bool) {
		var gotNames []string
		for _, m := range got {
			gotNames = append(gotNames, m.Name)
			if m.Unit != unitOf(m.Name) {
				t.Errorf("%s %s: unit %q in BENCHMARK.json, program prints %q", kind, m.Name, m.Unit, unitOf(m.Name))
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better=%q", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s %s: bound presence wrong", kind, m.Name)
			}
			// No bound is wider than 0.10: a metric that cannot meet that is
			// listed unbounded instead. setup_s cannot be (the driver's
			// contract wants it bounded) and takes that contract's ceiling.
			if ceiling := pickBound(m.Name == "setup_s", 0.25, 0.10); m.Bound != nil && (*m.Bound <= 0 || *m.Bound > ceiling) {
				t.Errorf("%s %s: bound %v outside (0, %v]", kind, m.Name, *m.Bound, ceiling)
			}
		}
		if !slices.Equal(gotNames, want) {
			t.Errorf("%s names differ:\n BENCHMARK.json %v\n program        %v", kind, gotNames, want)
		}
	}
	check("end_to_end", c.EndToEnd, endToEndNames, true)
	check("per_layer", c.PerLayer, perLayerNames, false)
}

func pickBound(cond bool, a, b float64) float64 {
	if cond {
		return a
	}
	return b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestQuickSmoke runs every workload at smoke-test size, untraced and
// traced, through the same code paths as a full run.
func TestQuickSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := run(w, &options{seed: defaultSeed, seconds: 0.25, trace: traced, quick: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.name, traced, r.failed, r.attempted, r.notes)
			}
			for _, name := range measuredNames {
				m, ok := r.e2e[name]
				if !ok {
					t.Errorf("%s trace=%v: end-to-end metric %s missing", w.name, traced, name)
				} else if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
					t.Errorf("%s trace=%v: %s = %v", w.name, traced, name, m.Value)
				}
			}
			for name, m := range r.e2e {
				if !slices.Contains(measuredNames, name) {
					t.Errorf("%s: end-to-end metric %s is not in the contract", w.name, name)
				}
				if m.Unit != unitOf(name) {
					t.Errorf("%s: %s printed with unit %q, contract says %q", w.name, name, m.Unit, unitOf(name))
				}
			}
			for name, m := range r.layers {
				if !slices.Contains(layerNames, name) {
					t.Errorf("%s: per-layer metric %s is not in the contract", w.name, name)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", w.name, name, m.Value)
				}
				if m.Unit != unitOf(name) {
					t.Errorf("%s: %s printed with unit %q, contract says %q", w.name, name, m.Unit, unitOf(name))
				}
			}
			if traced && !w.library {
				for _, name := range layerNames {
					journalOnly := strings.HasPrefix(name, "journal.") || strings.HasPrefix(name, "replica.")
					if _, ok := r.layers[name]; !ok && !(journalOnly && !w.journal) {
						t.Errorf("%s: traced run did not measure %s", w.name, name)
					}
				}
			}
		}
	}
	for _, name := range append(slices.Clone(endToEndNames), perLayerNames...) {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q is outside the contract's alphabet", name)
		}
	}
}

// TestSeededInputs pins reproducibility: the same seed generates the same
// input stream, another seed a different one.
func TestSeededInputs(t *testing.T) {
	for _, w := range workloads {
		hash := func(seed int64) string {
			o := &options{seed: seed, seconds: 0.5, quick: true}
			p, err := w.plane(seed, true)
			if err != nil {
				t.Fatal(err)
			}
			if w.library {
				ih := newInputHash()
				ih.ops(p.load)
				return ih.sum()
			}
			paced, query, burst := o.phases(w)
			return generateService(w, p, seed, paced, query, burst).hash
		}
		a, b, c := hash(7), hash(7), hash(8)
		if a != b {
			t.Errorf("%s: seed 7 hashed to %s then %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", w.name)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 0.99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v supported=%v, want 990 with 10 beyond", v, ok)
	}
	if v, ok := percentile(xs, 0.995); v != 995 || ok {
		t.Errorf("p99.5 of 1..1000 = %v supported=%v, want 995 with only 5 beyond", v, ok)
	}
	if _, ok := percentile(xs[:199], 0.95); ok {
		t.Error("p95 of 199 samples has 9 beyond it and must not be supported")
	}
	if _, ok := percentile(xs[:200], 0.95); !ok {
		t.Error("p95 of 200 samples has 10 beyond it and must be supported")
	}
	if v, _ := percentile(xs[:1], 0.5); v != 1 {
		t.Errorf("median of one sample = %v", v)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// gives [3.5, 13.5, 31.0].
	q1, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; Python's exclusive method gives 3.5, 31", q1, q3)
	}
}

// slowConn accepts each write after a fixed service time.
type slowConn struct {
	discardConn
	service time.Duration
	wrote   []time.Time
}

func (c *slowConn) Write(p []byte) (int, error) {
	c.wrote = append(c.wrote, time.Now())
	time.Sleep(c.service)
	return len(p), nil
}

// TestOpenLoopSchedule checks that due times do not move with service time
// and that a generator forced to run late says so.
func TestOpenLoopSchedule(t *testing.T) {
	const gap = 2 * time.Millisecond
	frames := make([]frame, 20)
	for i := range frames {
		frames[i] = frame{due: time.Duration(i) * gap, bytes: []byte{0}}
	}
	run := func(service time.Duration) (*slowConn, samples, time.Time) {
		c := &slowConn{service: service}
		start := time.Now().Add(time.Millisecond)
		late, err := openLoop(net.Conn(c), frames, start, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c, late, start
	}

	// A fast server: every write starts at or just after its due time.
	c, late, start := run(0)
	for i, at := range c.wrote {
		if at.Before(start.Add(frames[i].due)) {
			t.Fatalf("frame %d written %v before it was due", i, start.Add(frames[i].due).Sub(at))
		}
	}
	if worst := slices.Max(late); worst > float64(gap) {
		t.Errorf("idle generator ran %v late", time.Duration(worst))
	}

	// A server slower than the schedule: the schedule does not stretch, so
	// lateness grows by (service - gap) per frame and is reported.
	const service = 3 * time.Millisecond
	_, late, _ = run(service)
	last := time.Duration(late[len(late)-1])
	want := time.Duration(len(frames)-1) * (service - gap)
	if last < want/2 {
		t.Errorf("last frame reported %v late; a closed-loop schedule would hide the %v backlog", last, want)
	}
	if !sort.Float64sAreSorted(late[2:]) {
		t.Errorf("lateness must grow while the server is slower than the schedule: %v", late)
	}
}

// selfTimes is the reference the tracer's running totals are checked
// against: it returns, per span name, the time spent in spans of that name
// outside their children, and the number of such spans.
func selfTimes(spans []span) (self map[string]int64, count map[string]int) {
	self, count = map[string]int64{}, map[string]int{}
	for _, s := range spans {
		self[s.Name] += s.End - s.Start
		count[s.Name]++
		if s.Parent >= 0 {
			self[spans[s.Parent].Name] -= s.End - s.Start
		}
	}
	return self, count
}

// TestSpanSelfTime checks the self-time arithmetic on a hand-built tree and
// that the tracer's running totals agree with it.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "update", Start: 0, End: 100, Parent: -1},
		{Name: "core", Start: 10, End: 40, Parent: 0},
		{Name: "monitor", Start: 50, End: 70, Parent: 0},
		{Name: "check", Start: 55, End: 60, Parent: 2},
		{Name: "update", Start: 100, End: 130, Parent: -1},
		{Name: "core", Start: 105, End: 125, Parent: 4},
	}
	self, count := selfTimes(spans)
	for name, want := range map[string]int64{"update": 50 + 10, "core": 30 + 20, "monitor": 15, "check": 5} {
		if self[name] != want {
			t.Errorf("self[%s] = %d, want %d", name, self[name], want)
		}
	}
	if count["update"] != 2 || count["core"] != 2 {
		t.Errorf("counts %v", count)
	}
	var total int64
	for _, v := range self {
		total += v
	}
	if total != 130 {
		t.Errorf("self times sum to %d, the roots cover 130", total)
	}

	tr := newTracer()
	for op := 0; op < 3; op++ {
		tr.begin("update", op)
		tr.begin("core", op)
		time.Sleep(200 * time.Microsecond)
		tr.end()
		tr.begin("monitor", op)
		tr.begin("check", op)
		tr.end()
		tr.end()
		tr.end()
	}
	keptSelf, keptCount := selfTimes(tr.kept)
	for name := range keptSelf {
		if keptSelf[name] != tr.self[name] || keptCount[name] != tr.count[name] {
			t.Errorf("%s: tracer totals %d/%d, recomputed from spans %d/%d",
				name, tr.self[name], tr.count[name], keptSelf[name], keptCount[name])
		}
	}
	if tr.per("core") < 200e3 {
		t.Errorf("core self time per span %v ns, slept 200us in it", tr.per("core"))
	}
	if tr.kept[3].Parent != 2 || tr.kept[0].Parent != -1 {
		t.Errorf("parents wrong: %+v", tr.kept[:4])
	}
}

func TestJudge(t *testing.T) {
	s := func(m float64) stat { return stat{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 10} }
	cases := []struct {
		a, b   stat
		better string
		want   string
	}{
		{s(100), s(103), "lower", verdictSame},
		{s(100), s(112), "lower", verdictWorse},
		{s(100), s(88), "lower", verdictBetter},
		{s(100), s(88), "higher", verdictWorse},
		{s(100), s(112), "higher", verdictBetter},
		{stat{Median: 100, Q1: 80, Q3: 120, N: 10}, s(150), "lower", verdictUnresolved},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("judge(%v -> %v, %s) = %s, want %s", c.a.Median, c.b.Median, c.better, got, c.want)
		}
	}
}
