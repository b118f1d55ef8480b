package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"deltanet/internal/metrics"
)

// scrape fetches path from the admin test server and returns the body.
func scrape(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// metricValue extracts an unlabelled sample's value from an exposition.
func metricValue(t *testing.T, exp, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exp, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("%s: bad value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition", name)
	return 0
}

// TestAdminEndpointMidChurn is the observability e2e: while protocol
// clients churn rules, concurrent /metrics scrapes must always parse as
// valid Prometheus exposition, and the monotonic counters must never go
// backwards between scrapes.
func TestAdminEndpointMidChurn(t *testing.T) {
	reg := metrics.NewRegistry()
	s, addr, cleanup := startServer(t, WithMetrics(reg))
	defer cleanup()
	ts := httptest.NewServer(s.AdminHandler(reg))
	defer ts.Close()

	c := dial(t, addr)
	defer c.close()
	c.roundTrip(t, "node a")
	c.roundTrip(t, "node b")
	c.roundTrip(t, "link 0 1")
	c.roundTrip(t, "link 1 0")
	c.roundTrip(t, "W reach 0 1")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		churn := dial(t, addr)
		defer churn.close()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			churn.roundTrip(t, fmt.Sprintf("I %d 0 0 %d %d 1", i, i*10, i*10+5))
			if i%3 == 0 {
				churn.roundTrip(t, fmt.Sprintf("R %d", i))
			}
		}
	}()

	var lastUpdates, lastCmds float64
	for i := 0; i < 20; i++ {
		code, body := scrape(t, ts, "/metrics")
		if code != http.StatusOK {
			t.Fatalf("scrape %d: status %d", i, code)
		}
		if err := metrics.ValidateExposition(strings.NewReader(body)); err != nil {
			t.Fatalf("scrape %d invalid: %v\n%s", i, err, body)
		}
		upd := metricValue(t, body, "dn_monitor_updates_total")
		if upd < lastUpdates {
			t.Fatalf("scrape %d: dn_monitor_updates_total went backwards: %g < %g", i, upd, lastUpdates)
		}
		lastUpdates = upd
		var cmds float64
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, "dnserve_commands_total{") {
				f := strings.Fields(line)
				v, _ := strconv.ParseFloat(f[len(f)-1], 64)
				cmds += v
			}
		}
		if cmds < lastCmds {
			t.Fatalf("scrape %d: command count went backwards: %g < %g", i, cmds, lastCmds)
		}
		lastCmds = cmds
	}
	close(stop)
	wg.Wait()

	_, body := scrape(t, ts, "/metrics")
	// The full pipeline must be visible: every stage series, pre-created.
	for _, stage := range []string{stageParse, stageLock, stageApply, stageDirty, stageEval, stagePublish} {
		want := fmt.Sprintf("dnserve_update_stage_seconds_bucket{stage=%q", stage)
		if !strings.Contains(body, want) {
			t.Errorf("stage series %s missing from /metrics", stage)
		}
	}
	if metricValue(t, body, "dn_monitor_updates_total") == 0 {
		t.Error("no updates counted after churn")
	}
	// The index population is its own read (Monitor.IndexBits), not a
	// Stats field: the gauge must carry it.
	scraped, indexed := metricValue(t, body, "dn_monitor_index_bits"), float64(s.Monitor().IndexBits())
	if scraped == 0 || scraped != indexed {
		t.Errorf("dn_monitor_index_bits reads %g, the index holds %g bits", scraped, indexed)
	}
	if v := metricValue(t, body, "dnserve_connections_total"); v < 2 {
		t.Errorf("connections_total=%g, want >= 2", v)
	}
	if v := metricValue(t, body, "dnserve_read_bytes_total"); v == 0 {
		t.Error("read bytes not counted")
	}
	if v := metricValue(t, body, "dnserve_written_bytes_total"); v == 0 {
		t.Error("written bytes not counted")
	}
	count := metricValue(t, body, "dnserve_update_seconds_count")
	if count == 0 {
		t.Error("end-to-end update histogram empty after churn")
	}

	if code, body := scrape(t, ts, "/healthz"); code != http.StatusOK || !strings.HasPrefix(body, "ok") {
		t.Errorf("healthz: %d %q", code, body)
	}
	if code, body := scrape(t, ts, "/statusz"); code != http.StatusOK ||
		!strings.Contains(body, "engine:") || !strings.Contains(body, "trace:") {
		t.Errorf("statusz: %d %q", code, body)
	}
}

func TestHealthzAfterClose(t *testing.T) {
	reg := metrics.NewRegistry()
	s, _, cleanup := startServer(t, WithMetrics(reg))
	ts := httptest.NewServer(s.AdminHandler(reg))
	defer ts.Close()
	cleanup() // close the protocol server; admin handler stays up
	if code, _ := scrape(t, ts, "/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after close: %d, want 503", code)
	}
}

// TestStatsKeysDocumented keeps the README's "### `stats` keys" table
// and the emitted stats line in lockstep, both directions: every key
// the server emits must be documented, and every documented key must be
// emitted.
func TestStatsKeysDocumented(t *testing.T) {
	_, addr, cleanup := startServer(t)
	defer cleanup()
	c := dial(t, addr)
	defer c.close()
	resp := c.roundTrip(t, "stats")
	if !strings.HasPrefix(resp, "ok stats ") {
		t.Fatalf("stats: %q", resp)
	}
	emitted := map[string]bool{}
	var emittedOrder []string
	for _, f := range strings.Fields(strings.TrimPrefix(resp, "ok stats ")) {
		k, _, ok := strings.Cut(f, "=")
		if !ok {
			t.Fatalf("stats field %q is not key=value", f)
		}
		emitted[k] = true
		emittedOrder = append(emittedOrder, k)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sect, found := strings.Cut(string(readme), "### `stats` keys")
	if !found {
		t.Fatal("README.md has no \"### `stats` keys\" section")
	}
	if i := strings.Index(sect, "\n#"); i >= 0 {
		sect = sect[:i]
	}
	rowRe := regexp.MustCompile("(?m)^\\| `([a-z]+)` \\|")
	documented := map[string]bool{}
	for _, m := range rowRe.FindAllStringSubmatch(sect, -1) {
		documented[m[1]] = true
	}
	if len(documented) == 0 {
		t.Fatal("no key rows parsed from the README table")
	}
	for _, k := range emittedOrder {
		if !documented[k] {
			t.Errorf("stats emits %q but the README table does not document it", k)
		}
	}
	// Keys only a journaling primary (jrnl) or a replica (lag) emits;
	// this plain server legitimately omits them. Their emission is
	// covered by the replication tests.
	conditional := map[string]bool{"jrnl": true, "lag": true}
	for k := range documented {
		if !emitted[k] && !conditional[k] {
			t.Errorf("README documents stats key %q but the server does not emit it", k)
		}
	}
}

// TestTraceCommand drives the trace ring over the wire: records appear
// after updates, `last` truncates and orders oldest-first, `off` clears
// the ring, and malformed variants produce usage errors.
func TestTraceCommand(t *testing.T) {
	_, addr, cleanup := startServer(t)
	defer cleanup()
	c := dial(t, addr)
	defer c.close()
	c.roundTrip(t, "node a")
	c.roundTrip(t, "node b")
	c.roundTrip(t, "link 0 1")
	c.roundTrip(t, "W reach 0 1")

	if got := c.roundTrip(t, "trace on"); got != fmt.Sprintf("ok trace on cap=%d", traceRingCap) {
		t.Fatalf("trace on: %q", got)
	}
	c.roundTrip(t, "I 1 0 0 0 100 1")
	c.roundTrip(t, "I 2 0 0 200 300 1")
	c.roundTrip(t, "R 2")

	got := c.roundTrip(t, "trace last 2")
	if !strings.HasPrefix(got, "ok trace n=2") {
		t.Fatalf("trace last 2: %q", got)
	}
	lines := []string{}
	for c.r.Scan() {
		lines = append(lines, c.r.Text())
		if len(lines) == 2 {
			break
		}
	}
	if len(lines) != 2 {
		t.Fatalf("expected 2 trace lines, got %v", lines)
	}
	// Oldest first: the I then the R; both evaluated (one invariant).
	if !strings.Contains(lines[0], "verb=I") || !strings.Contains(lines[1], "verb=R") {
		t.Fatalf("trace lines wrong order or verb:\n%s\n%s", lines[0], lines[1])
	}
	for _, l := range lines {
		for _, key := range []string{"upd=", "eval=true", "dirtied=",
			"parse_ns=", "lock_ns=", "apply_ns=", "dirty_ns=", "eval_ns=", "publish_ns=", "total_ns="} {
			if !strings.Contains(l, key) {
				t.Errorf("trace line missing %q: %s", key, l)
			}
		}
	}
	// upd= of the R record is 3 (third engine update).
	if !strings.Contains(lines[1], "upd=3:3") {
		t.Errorf("R record seq: %s", lines[1])
	}

	if got := c.roundTrip(t, "trace off"); got != "ok trace off" {
		t.Fatalf("trace off: %q", got)
	}
	if got := c.roundTrip(t, "trace last 5"); got != "ok trace n=0" {
		t.Fatalf("ring should be cleared after off: %q", got)
	}
	c.roundTrip(t, "I 3 0 0 400 500 1")
	if got := c.roundTrip(t, "trace last 5"); got != "ok trace n=0" {
		t.Fatalf("tracing off must not retain records: %q", got)
	}

	for _, bad := range []string{"trace", "trace bogus", "trace last", "trace last x",
		"trace last 0", "trace on extra"} {
		if got := c.roundTrip(t, bad); !strings.HasPrefix(got, "err") {
			t.Errorf("%q: %q, want err", bad, got)
		}
	}
}

// syncBuf is a goroutine-safe writer for the slow-update log.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestSlowUpdateLog(t *testing.T) {
	var log syncBuf
	s, addr, cleanup := startServer(t, WithSlowUpdate(time.Nanosecond, &log)) // every update is "slow"
	defer cleanup()
	c := dial(t, addr)
	defer c.close()
	c.roundTrip(t, "node a")
	c.roundTrip(t, "node b")
	c.roundTrip(t, "link 0 1")
	c.roundTrip(t, "I 1 0 0 0 100 1")
	if out := log.String(); !strings.Contains(out, "slow update: trace upd=") {
		t.Fatalf("slow update not logged: %q", out)
	}
	if s.tr.slowCount.Load() == 0 {
		t.Fatal("slow update not counted")
	}
}
