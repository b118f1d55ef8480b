package metrics

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return buf.String()
}

func TestCounterGaugeRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Ops.")
	g := r.Gauge("test_depth", "Depth.")
	c.Inc()
	c.Add(4)
	g.Set(7)
	g.Add(-2)
	out := render(t, r)
	for _, want := range []string{
		"# HELP test_ops_total Ops.\n",
		"# TYPE test_ops_total counter\n",
		"test_ops_total 5\n",
		"# TYPE test_depth gauge\n",
		"test_depth 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if c.Value() != 5 || g.Value() != 5 {
		t.Errorf("Value: counter=%d gauge=%d", c.Value(), g.Value())
	}
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("ValidateExposition: %v", err)
	}
}

func TestFuncMetricsReadAtScrapeTime(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	r.CounterFunc("test_fn_total", "Fn.", func() float64 { return v })
	r.GaugeFunc("test_bits", "Bits.", func() float64 { return v + 1 })
	if !strings.Contains(render(t, r), "test_fn_total 1\n") {
		t.Fatal("first scrape should read 1")
	}
	v = 9
	out := render(t, r)
	if !strings.Contains(out, "test_fn_total 9\n") {
		t.Fatal("second scrape should read the updated value")
	}
	if !strings.Contains(out, "test_bits 10\n") {
		t.Fatalf("gauge sample missing:\n%s", out)
	}
}

func TestCounterVecSortedAndCached(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_cmds_total", "Cmds.", "verb")
	v.With("watch").Add(2)
	v.With("insert").Inc()
	if v.With("watch") != v.With("watch") {
		t.Fatal("With must return the same counter for the same label")
	}
	out := render(t, r)
	i, w := strings.Index(out, `verb="insert"`), strings.Index(out, `verb="watch"`)
	if i < 0 || w < 0 || i > w {
		t.Fatalf("vec samples missing or unsorted:\n%s", out)
	}
}

func TestRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_dup", "x")
	mustPanic(t, "duplicate name", func() { r.Gauge("test_dup", "y") })
	mustPanic(t, "invalid name", func() { r.Counter("9starts_with_digit", "z") })
	mustPanic(t, "invalid char", func() { r.Counter("has-dash", "z") })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

// TestHistogramBucketBoundaries pins the bucket layout: zero lands in
// the first bucket, an observation exactly on a bound le-includes into
// that bound's bucket, one past it spills to the next, anything past
// the last finite bound goes to +Inf only, and negatives clamp to zero.
func TestHistogramBucketBoundaries(t *testing.T) {
	top := bucketBoundNs(NumBuckets - 1)
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0},
		{-5, 0},               // clamps to zero
		{1000, 0},             // exactly the first bound
		{1001, 1},             // one past it
		{bucketBoundNs(7), 7}, // exact interior edge
		{bucketBoundNs(7) + 1, 8},
		{top, NumBuckets - 1}, // exactly the last finite bound
		{top + 1, NumBuckets}, // overflow → +Inf bucket
		{1 << 62, NumBuckets},
	}
	for _, c := range cases {
		var h Histogram
		h.ObserveNs(c.ns)
		for i := 0; i <= NumBuckets; i++ {
			want := uint64(0)
			if i == c.want {
				want = 1
			}
			if got := h.c.buckets[i].Load(); got != want {
				t.Errorf("ObserveNs(%d): bucket[%d]=%d, want %d", c.ns, i, got, want)
			}
		}
	}
	var h Histogram
	h.ObserveNs(-100)
	if h.SumNs() != 0 || h.Count() != 1 {
		t.Errorf("negative observe: sum=%d count=%d", h.SumNs(), h.Count())
	}
	h.Observe(3 * time.Millisecond)
	if h.SumNs() != int64(3*time.Millisecond) || h.Count() != 2 {
		t.Errorf("after Observe: sum=%d count=%d", h.SumNs(), h.Count())
	}
}

func TestHistogramRenderCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_lat_seconds", "Latency.")
	h.ObserveNs(500)     // bucket 0
	h.ObserveNs(2000)    // bucket 1
	h.ObserveNs(1 << 61) // +Inf
	out := render(t, r)
	for _, want := range []string{
		"test_lat_seconds_bucket{le=\"1e-06\"} 1\n",
		"test_lat_seconds_bucket{le=\"2e-06\"} 2\n",
		"test_lat_seconds_bucket{le=\"+Inf\"} 3\n",
		"test_lat_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("ValidateExposition: %v", err)
	}
}

func TestHistogramVecRoundTrip(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("test_stage_seconds", "Stages.", "stage")
	v.With("parse").ObserveNs(1500)
	v.With("apply").ObserveNs(900)
	out := render(t, r)
	if !strings.Contains(out, `test_stage_seconds_bucket{stage="apply",le="1e-06"} 1`) {
		t.Fatalf("labelled bucket missing:\n%s", out)
	}
	if !strings.Contains(out, `test_stage_seconds_sum{stage="parse"}`) {
		t.Fatalf("labelled sum missing:\n%s", out)
	}
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("ValidateExposition: %v", err)
	}
}

// TestConcurrentObserveAndRender hammers registration, observation, and
// rendering from many goroutines; under -race this is the package's
// thread-safety proof, and every render must stay a valid exposition.
func TestConcurrentObserveAndRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_conc_total", "C.")
	cv := r.CounterVec("test_conc_cmds_total", "CV.", "verb")
	hv := r.HistogramVec("test_conc_stage_seconds", "HV.", "stage")
	h := r.Histogram("test_conc_seconds", "H.")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				cv.With(fmt.Sprintf("verb%d", i%3)).Inc()
				hv.With(fmt.Sprintf("stage%d", i%3)).ObserveNs(int64(i%100) * 1000)
				h.ObserveNs(int64(i % 1e6))
			}
		}(g)
	}
	// Concurrent registration of new families while scraping.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			r.GaugeFunc(fmt.Sprintf("test_conc_reg_%d", i), "R.", func() float64 { return 1 })
		}
	}()
	for i := 0; i < 25; i++ {
		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		if err := ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("render %d invalid under concurrency: %v\n%s", i, err, buf.String())
		}
	}
	close(stop)
	wg.Wait()
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"empty", "", "no metric families"},
		{"comments only", "# TYPE a counter\n", "no metric families"},
		{"bad type", "# TYPE a flavor\na 1\n", "unknown metric type"},
		{"dup type", "# TYPE a counter\n# TYPE a counter\na 1\n", "duplicate TYPE"},
		{"type after samples", "# TYPE a counter\na 1\n# TYPE a gauge\n", "duplicate TYPE"},
		{"late type", "b 1\n# TYPE b counter\n", "after its samples"},
		{"bad name", "# TYPE a counter\n1bad 2\n", "invalid metric name"},
		{"bad value", "# TYPE a counter\na xyz\n", "bad sample value"},
		{"unterminated labels", "# TYPE a counter\na{x=\"1\" 2\n", "unterminated label"},
		{"unquoted label", "# TYPE a counter\na{x=1} 2\n", "not quoted"},
		{"dup label", `# TYPE a counter` + "\n" + `a{x="1",x="2"} 3` + "\n", "duplicate label"},
		{"bucket no le", "# TYPE h histogram\nh_bucket{stage=\"p\"} 1\n", "missing le"},
		{"bad le", "# TYPE h histogram\nh_bucket{le=\"wat\"} 1\n", "bad le value"},
		{"non-cumulative", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\n", "not cumulative"},
	}
	for _, c := range cases {
		err := ValidateExposition(strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.wantErr)
		}
	}
	ok := "# HELP a Help text.\n# TYPE a counter\na{x=\"v\"} 1 1700000000\n# TYPE h histogram\n" +
		"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 0.5\nh_count 2\n"
	if err := ValidateExposition(strings.NewReader(ok)); err != nil {
		t.Errorf("valid exposition rejected: %v", err)
	}
	// Distinct label sets are distinct cumulative series.
	twoSeries := "# TYPE h histogram\nh_bucket{stage=\"a\",le=\"1\"} 9\nh_bucket{stage=\"a\",le=\"+Inf\"} 9\n" +
		"h_bucket{stage=\"b\",le=\"1\"} 2\nh_bucket{stage=\"b\",le=\"+Inf\"} 2\n"
	if err := ValidateExposition(strings.NewReader(twoSeries)); err != nil {
		t.Errorf("per-series cumulativity check leaked across series: %v", err)
	}
}
