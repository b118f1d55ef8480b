package server

import (
	"bufio"
	"fmt"
	"net"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deltanet/internal/binproto"
	"deltanet/internal/core"
	"deltanet/internal/ipnet"
	"deltanet/internal/journal"
	"deltanet/internal/monitor"
	"deltanet/internal/netgraph"
)

func insOp(id int64, src, link int32, lo, hi uint64, prio int32) core.BatchOp {
	return core.InsertOp(core.Rule{
		ID:       core.RuleID(id),
		Source:   netgraph.NodeID(src),
		Link:     netgraph.LinkID(link),
		Match:    ipnet.Interval{Lo: lo, Hi: hi},
		Priority: core.Priority(prio),
	})
}

// opText renders an op as its line-protocol text (the oracle's input).
func opText(op core.BatchOp) string {
	if !op.Insert {
		return fmt.Sprintf("R %d", op.Rule.ID)
	}
	return fmt.Sprintf("I %d %d %d %d %d %d", op.Rule.ID, op.Rule.Source,
		op.Rule.Link, op.Rule.Match.Lo, op.Rule.Match.Hi, op.Rule.Priority)
}

// buildTriangle installs a 3-node cycle topology: link 0 a->b, link 1
// b->c, link 2 c->a.
func buildTriangle(t *testing.T, c *client) {
	t.Helper()
	for _, req := range []string{"node a", "node b", "node c", "link 0 1", "link 1 2", "link 2 0"} {
		if got := c.roundTrip(t, req); !strings.HasPrefix(got, "ok ") {
			t.Fatalf("%s: %q", req, got)
		}
	}
}

// sendBatch drives the oracle's line-protocol B command.
func (c *client) sendOpsBatch(t *testing.T, ops []core.BatchOp) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "B %d\n", len(ops))
	for _, op := range ops {
		b.WriteString(opText(op))
		b.WriteByte('\n')
	}
	if _, err := c.conn.Write([]byte(b.String())); err != nil {
		t.Fatal(err)
	}
	if !c.r.Scan() {
		t.Fatalf("no batch response: %v", c.r.Err())
	}
	return c.r.Text()
}

// pullEvents replays the full retained event stream, with the upd= and
// seq= fields (which legitimately differ across batching strategies)
// masked out.
func pullEvents(t *testing.T, c *client) []string {
	t.Helper()
	resp := c.roundTrip(t, "events since 0")
	var n int
	if _, err := fmt.Sscanf(resp, "ok events n=%d", &n); err != nil {
		t.Fatalf("events: %q", resp)
	}
	strip := regexp.MustCompile(` upd=\d+:\d+ seq=\d+`)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if !c.r.Scan() {
			t.Fatalf("event stream truncated at %d/%d: %v", i, n, c.r.Err())
		}
		out = append(out, strip.ReplaceAllString(c.r.Text(), ""))
	}
	return out
}

// equivalenceFrames is the shared op script: build paths, complete a
// loop, clear it, then churn rules that change no verdict. Transitions
// never straddle a frame boundary, so the event stream is invariant to
// how the ingest coalescer sub-batches a frame.
func equivalenceFrames() [][]core.BatchOp {
	f1 := []core.BatchOp{insOp(1, 0, 0, 0, 100, 1), insOp(2, 1, 1, 0, 100, 1)}
	f2 := []core.BatchOp{insOp(3, 2, 2, 0, 100, 1)} // completes the a->b->c->a loop
	f3 := []core.BatchOp{core.RemoveOp(3)}
	var f4 []core.BatchOp
	for i := int64(0); i < 64; i++ {
		link := int32(0)
		if i%7 == 0 {
			link = -1 // sprinkle drop rules through the stream
		}
		f4 = append(f4, insOp(100+i, 0, link, uint64(200+4*i), uint64(202+4*i), int32(2+i%3)))
	}
	var f5 []core.BatchOp
	for i := int64(0); i < 32; i++ {
		f5 = append(f5, core.RemoveOp(core.RuleID(100+i)))
	}
	return [][]core.BatchOp{f1, f2, f3, f4, f5}
}

// TestBinaryLineEquivalence replays the same op script through the line
// protocol's B batches (the oracle) and through binary frames + the
// ingest ring, and requires identical verdicts: same engine sizes, same
// reachability answers, and the same invariant event stream.
func TestBinaryLineEquivalence(t *testing.T) {
	// Oracle: line protocol.
	_, lineAddr, lineCleanup := startServer(t)
	defer lineCleanup()
	lc := dial(t, lineAddr)
	defer lc.close()
	buildTriangle(t, lc)
	lc.roundTrip(t, "W loopfree")
	lc.roundTrip(t, "W reach 0 2")
	for i, frame := range equivalenceFrames() {
		if got := lc.sendOpsBatch(t, frame); !strings.HasPrefix(got, "ok batch") {
			t.Fatalf("oracle frame %d: %q", i, got)
		}
	}

	// Subject: binary protocol into the ingest ring.
	_, binAddr, binCleanup := startServer(t)
	defer binCleanup()
	bc := dial(t, binAddr)
	defer bc.close()
	buildTriangle(t, bc)
	bc.roundTrip(t, "W loopfree")
	bc.roundTrip(t, "W reach 0 2")
	if got := bc.roundTrip(t, "dnbin 1"); got != "ok dnbin 1" {
		t.Fatalf("handshake: %q", got)
	}
	var buf []byte
	total := 0
	for i, frame := range equivalenceFrames() {
		buf = binproto.AppendOps(buf[:0], frame)
		buf = binproto.AppendSync(buf, uint64(i+1))
		if _, err := bc.conn.Write(buf); err != nil {
			t.Fatal(err)
		}
		total += len(frame)
		if !bc.r.Scan() {
			t.Fatalf("no sync response for frame %d: %v", i, bc.r.Err())
		}
		want := fmt.Sprintf("ok sync %d applied=%d", i+1, total)
		if got := bc.r.Text(); got != want {
			t.Fatalf("frame %d: %q, want %q", i, got, want)
		}
	}

	// The binary session stays in frame mode; verdicts are compared over
	// fresh line connections to each server.
	lq := dial(t, lineAddr)
	defer lq.close()
	bq := dial(t, binAddr)
	defer bq.close()
	for _, req := range []string{"reach 0 1", "reach 0 2", "reach 1 2"} {
		lg, bg := lq.roundTrip(t, req), bq.roundTrip(t, req)
		if lg != bg {
			t.Errorf("%s: oracle %q, binary %q", req, lg, bg)
		}
	}
	lstats, bstats := lq.roundTrip(t, "stats"), bq.roundTrip(t, "stats")
	for _, key := range []string{"rules=", "atoms=", "watch="} {
		lv, bv := statField(lstats, key), statField(bstats, key)
		if lv != bv {
			t.Errorf("stats %s oracle %q, binary %q", key, lv, bv)
		}
	}
	if got := statField(bstats, "ring="); got != "0" {
		t.Errorf("ring= after quiesce: %q (stats %q)", got, bstats)
	}
	lev, bev := pullEvents(t, lq), pullEvents(t, bq)
	if len(lev) == 0 {
		t.Fatal("oracle produced no events; the script should transition verdicts")
	}
	if fmt.Sprint(lev) != fmt.Sprint(bev) {
		t.Errorf("event streams diverge:\noracle: %v\nbinary: %v", lev, bev)
	}
}

func statField(stats, prefix string) string {
	for _, f := range strings.Fields(stats) {
		if v, ok := strings.CutPrefix(f, prefix); ok {
			return v
		}
	}
	return ""
}

// TestBinaryBackpressure slows every apply down and firehoses a frame
// much larger than the ring: the server must emit an explicit busy
// line, never buffer beyond the ring's capacity, and still apply every
// op once the consumer catches up — backpressure, not drops.
func TestBinaryBackpressure(t *testing.T) {
	const ringCap = 4
	s, addr, cleanup := startServer(t, WithIngestRing(ringCap))
	defer cleanup()
	var slow atomic.Bool
	s.mon.SetTraceSink(func(at monitor.ApplyTrace) {
		if slow.Load() {
			time.Sleep(2 * time.Millisecond)
		}
		s.onApplyTrace(at)
	})
	c := dial(t, addr)
	defer c.close()
	for _, req := range []string{"node a", "node b", "link 0 1"} {
		c.roundTrip(t, req)
	}
	if got := c.roundTrip(t, "dnbin 1"); got != "ok dnbin 1" {
		t.Fatalf("handshake: %q", got)
	}
	slow.Store(true)
	const n = 64
	ops := make([]core.BatchOp, n)
	for i := range ops {
		ops[i] = insOp(int64(i+1), 0, 0, uint64(i*10), uint64(i*10+5), 1)
	}
	if _, err := c.conn.Write(binproto.AppendOps(nil, ops)); err != nil {
		t.Fatal(err)
	}
	// The producer outruns the slowed consumer by construction, so the
	// next line must be the backpressure notice.
	if !c.r.Scan() {
		t.Fatalf("no busy line: %v", c.r.Err())
	}
	if got := c.r.Text(); !strings.HasPrefix(got, "busy depth=") {
		t.Fatalf("expected busy line, got %q", got)
	}
	if d := s.ing.ring.Depth(); d > ringCap {
		t.Fatalf("ring depth %d exceeds capacity %d", d, ringCap)
	}
	slow.Store(false)
	if _, err := c.conn.Write(binproto.AppendSync(nil, 7)); err != nil {
		t.Fatal(err)
	}
	if !c.r.Scan() {
		t.Fatalf("no sync response: %v", c.r.Err())
	}
	if got := c.r.Text(); got != fmt.Sprintf("ok sync 7 applied=%d", n) {
		t.Fatalf("sync: %q", got)
	}
	if got := s.ing.rejected.Load(); got != 0 {
		t.Fatalf("%d ops rejected; want 0", got)
	}
	q := dial(t, addr)
	defer q.close()
	stats := q.roundTrip(t, "stats")
	if got := statField(stats, "rules="); got != fmt.Sprint(n) {
		t.Fatalf("rules=%s after backpressured ingest, want %d (stats %q)", got, n, stats)
	}
	if got := statField(stats, "ring="); got != "0" {
		t.Fatalf("ring=%s after sync, want 0", got)
	}
}

// TestBinaryHandshakeAndRejects covers the refusal paths: a bad
// handshake keeps the line loop alive, and a frame naming unknown
// topology is dropped whole (the next sync covers only accepted ops).
func TestBinaryHandshakeAndRejects(t *testing.T) {
	_, addr, cleanup := startServer(t)
	defer cleanup()
	c := dial(t, addr)
	defer c.close()
	for _, req := range []string{"node a", "node b", "link 0 1"} {
		c.roundTrip(t, req)
	}
	if got := c.roundTrip(t, "dnbin 2"); got != "err usage: dnbin 1" {
		t.Fatalf("bad version: %q", got)
	}
	if got := c.roundTrip(t, "stats"); !strings.HasPrefix(got, "ok stats") {
		t.Fatalf("line loop dead after refused handshake: %q", got)
	}
	if got := c.roundTrip(t, "dnbin 1"); got != "ok dnbin 1" {
		t.Fatalf("handshake: %q", got)
	}
	var buf []byte
	buf = binproto.AppendOps(buf, []core.BatchOp{
		insOp(1, 0, 0, 0, 10, 1),
		insOp(2, 9, 0, 0, 10, 1), // node 9 does not exist: frame dropped whole
	})
	buf = binproto.AppendOps(buf, []core.BatchOp{insOp(3, 0, 5, 0, 10, 1)}) // link 5: dropped
	buf = binproto.AppendOps(buf, []core.BatchOp{insOp(4, 1, -1, 0, 10, 1)})
	buf = binproto.AppendSync(buf, 1)
	if _, err := c.conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	wants := []string{
		"err frame op 1: unknown node id",
		"err frame op 0: unknown link id",
		"ok sync 1 applied=1",
	}
	for _, want := range wants {
		if !c.r.Scan() {
			t.Fatalf("stream ended awaiting %q: %v", want, c.r.Err())
		}
		if got := c.r.Text(); got != want {
			t.Fatalf("got %q, want %q", got, want)
		}
	}
}

// TestIngestOpsBarrier drives the in-process feed entrance: ops flow
// through the same validated ring path and IngestBarrier quiesces.
func TestIngestOpsBarrier(t *testing.T) {
	s, addr, cleanup := startServer(t)
	defer cleanup()
	c := dial(t, addr)
	defer c.close()
	for _, req := range []string{"node a", "node b", "link 0 1"} {
		c.roundTrip(t, req)
	}
	ops := make([]core.BatchOp, 16)
	for i := range ops {
		ops[i] = insOp(int64(i+1), 0, 0, uint64(i*8), uint64(i*8+3), 1)
	}
	if !s.IngestOps(ops) {
		t.Fatal("IngestOps refused a valid slice")
	}
	if n := s.IngestBarrier(); n != uint64(len(ops)) {
		t.Fatalf("barrier applied=%d, want %d", n, len(ops))
	}
	// Refused by the shared validator, before the ring: a link of -2 used
	// to pass it and panic the coalescer goroutine, and with it the process.
	for what, op := range map[string]core.BatchOp{
		"an unknown node":     insOp(99, 42, 0, 0, 1, 1),
		"an unknown link":     insOp(99, 0, 7, 0, 1, 1),
		"a link below -1":     insOp(99, 0, -2, 0, 1, 1),
		"a negative rule id":  insOp(-99, 0, 0, 0, 1, 1),
		"a negative priority": insOp(99, 0, 0, 0, 1, -1),
		"a negative removal":  core.RemoveOp(-99),
	} {
		if s.IngestOps([]core.BatchOp{op}) {
			t.Fatalf("IngestOps accepted an op naming %s", what)
		}
	}
	if got := c.roundTrip(t, "reach 0 1"); got != "ok reach 16" {
		t.Fatalf("reach after feed: %q", got)
	}
}

// TestIngestAdmissionSkipsEngineLock holds the engine lock for writing, as
// a long apply does, and requires admission to go on beside it: IngestOps
// of a ring's worth of ops returns, and a binary client's frame is queued
// (the ring grows), all before the lock is released. Everything then
// applies once it is.
func TestIngestAdmissionSkipsEngineLock(t *testing.T) {
	const ringCap = 64
	s, addr, cleanup := startServer(t, WithIngestRing(ringCap))
	defer cleanup()
	c := dial(t, addr)
	defer c.close()
	for _, req := range []string{"node a", "node b", "link 0 1"} {
		c.roundTrip(t, req)
	}
	if got := c.roundTrip(t, "dnbin 1"); got != "ok dnbin 1" {
		t.Fatalf("handshake: %q", got)
	}
	ops := make([]core.BatchOp, ringCap)
	for i := range ops {
		ops[i] = insOp(int64(i+1), 0, 0, uint64(i*10), uint64(i*10+5), 1)
	}

	s.mu.Lock()
	locked := true
	defer func() {
		if locked {
			s.mu.Unlock()
		}
	}()
	admitted := make(chan bool, 1)
	go func() { admitted <- s.IngestOps(ops) }()
	select {
	case ok := <-admitted:
		if !ok {
			t.Fatal("IngestOps refused a valid slice")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("IngestOps waited on the engine lock")
	}
	// The coalescer has taken its first run and now waits on the lock, so
	// the ring has room for the frame and nothing drains it.
	waitFor(t, func() bool { return s.ing.batches.Load() > 0 })
	ring := s.ing.ring
	before := ring.Depth()
	if _, err := c.conn.Write(binproto.AppendOps(nil, []core.BatchOp{insOp(1000, 0, 0, 5000, 5010, 1)})); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return ring.Depth() == before+1 })

	locked = false
	s.mu.Unlock()
	if _, err := c.conn.Write(binproto.AppendSync(nil, 1)); err != nil {
		t.Fatal(err)
	}
	if !c.r.Scan() {
		t.Fatalf("no sync response: %v", c.r.Err())
	}
	if got, want := c.r.Text(), fmt.Sprintf("ok sync 1 applied=%d", ringCap+1); got != want {
		t.Fatalf("sync: %q, want %q", got, want)
	}
}

// TestIngestOpsAdmissionRacesGraphGrowth admits frames, through IngestOps
// and a binary client, while a line client grows the graph with node and
// link verbs and drop-rule inserts (each hangs a drop link, and the first
// the drop node, off its source). Under -race it checks that admission
// reads the graph's size safely without the engine lock; every op lands.
func TestIngestOpsAdmissionRacesGraphGrowth(t *testing.T) {
	const rounds = 100
	s, addr, cleanup := startServer(t)
	defer cleanup()
	c := dial(t, addr)
	defer c.close()
	for _, req := range []string{"node a", "node b", "link 0 1"} {
		c.roundTrip(t, req)
	}
	grower := dial(t, addr)
	defer grower.close()
	bc := dial(t, addr)
	defer bc.close()
	if got := bc.roundTrip(t, "dnbin 1"); got != "ok dnbin 1" {
		t.Fatalf("handshake: %q", got)
	}

	done := make(chan error, 2)
	go func() {
		for i := 0; i < rounds; i++ {
			node := i + 2 // after a and b
			for _, req := range []string{
				fmt.Sprintf("node n%d", i), fmt.Sprintf("link %d 0", node), fmt.Sprintf("I %d %d -1 0 10 1", 10000+i, node),
			} {
				if _, err := fmt.Fprintln(grower.conn, req); err != nil || !grower.r.Scan() || !strings.HasPrefix(grower.r.Text(), "ok ") {
					done <- fmt.Errorf("%s: %q", req, grower.r.Text())
					return
				}
			}
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < rounds; i++ {
			if !s.IngestOps([]core.BatchOp{insOp(int64(1+i), 0, 0, uint64(i*10), uint64(i*10+5), 1)}) {
				done <- fmt.Errorf("IngestOps refused op %d", i)
				return
			}
		}
		done <- nil
	}()
	var buf []byte
	for i := 0; i < rounds; i++ {
		buf = binproto.AppendOps(buf[:0], []core.BatchOp{insOp(int64(5000+i), 1, -1, uint64(i*10), uint64(i*10+5), 1)})
		if _, err := bc.conn.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bc.conn.Write(binproto.AppendSync(nil, 1)); err != nil {
		t.Fatal(err)
	}
	if !bc.r.Scan() || !strings.HasPrefix(bc.r.Text(), "ok sync 1 ") {
		t.Fatalf("sync: %q (%v)", bc.r.Text(), bc.r.Err())
	}
	s.IngestBarrier()
	if got := statField(c.roundTrip(t, "stats"), "rules="); got != strconv.Itoa(3*rounds) {
		t.Fatalf("rules=%s, want %d", got, 3*rounds)
	}
}

// TestClosingAnswersEveryMutation races every mutation entrance against
// Close: line I and R, B, node and link, binary frames with syncs, and
// IngestOps with IngestBarrier, then calls ReplayJournal after Close.
// Every request is answered — ok, or "err server closing" and not
// applied — none hangs, and once the callers have their answers the
// goroutine count is back where it started.
func TestClosingAnswersEveryMutation(t *testing.T) {
	before := runtime.NumGoroutine()
	j, err := journal.Open(filepath.Join(t.TempDir(), "j"), journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	s := New(WithJournal(j))
	for _, req := range []string{"node a", "node b", "link 0 1"} {
		if got := s.dispatch(req, nil); !strings.HasPrefix(got, "ok ") {
			t.Fatalf("%s: %q", req, got)
		}
	}
	const closing = "err server closing"

	// Each entrance sends requests until it is told the server is
	// closing; Close waits until every one has had three ok answers.
	var callers, ready sync.WaitGroup
	entrance := func(name string, req func(i int) string) {
		callers.Add(1)
		ready.Add(1)
		go func() {
			defer callers.Done()
			for i := 0; ; i++ {
				got := req(i)
				ok := strings.HasPrefix(got, "ok")
				if !ok && got != closing {
					t.Errorf("%s request %d: %q", name, i, got)
				}
				if i == 2 || !ok && i < 2 {
					ready.Done()
				}
				if !ok {
					return
				}
			}
		}()
	}
	entrance("line", func(i int) string {
		if i%2 == 1 {
			return s.dispatch(fmt.Sprintf("R %d", 1000+i/2), nil)
		}
		return s.dispatch(fmt.Sprintf("I %d 0 0 %d %d 1", 1000+i/2, i, i+1), nil)
	})
	entrance("B", func(i int) string {
		body := fmt.Sprintf("I %d 0 0 5 9 1\nR %d\n", 2000+i, 2000+i)
		resp, _ := s.readAndApplyBatch([]string{"B", "2"}, newLineReader(strings.NewReader(body)))
		return resp
	})
	entrance("topology", func(i int) string {
		if i%2 == 1 {
			return s.dispatch("link 0 1", nil)
		}
		return s.dispatch(fmt.Sprintf("node n%d", i), nil)
	})
	entrance("IngestOps", func(i int) string {
		if !s.IngestOps([]core.BatchOp{insOp(int64(3000+i), 0, 0, 20, 30, 1), core.RemoveOp(core.RuleID(3000 + i))}) {
			return closing
		}
		s.IngestBarrier()
		return "ok"
	})
	conn, srv := net.Pipe()
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	callers.Add(1)
	go func() {
		defer callers.Done()
		s.handle(srv)
	}()
	r := bufio.NewScanner(conn)
	if _, err := conn.Write([]byte("dnbin 1\n")); err != nil || !r.Scan() || r.Text() != "ok dnbin 1" {
		t.Fatalf("handshake: %q %v %v", r.Text(), err, r.Err())
	}
	entrance("binary", func(i int) string {
		ops := []core.BatchOp{insOp(int64(4000+i), 0, 0, 40, 50, 1), core.RemoveOp(core.RuleID(4000 + i))}
		if _, err := conn.Write(binproto.AppendSync(binproto.AppendOps(nil, ops), uint64(i))); err != nil {
			return "write: " + err.Error()
		}
		got := ""
		for got == "" || strings.HasPrefix(got, "busy ") { // a closed ring refuses pushes as a full one does
			if !r.Scan() {
				return fmt.Sprintf("no reply: %v", r.Err())
			}
			got = r.Text()
		}
		switch {
		case got == closing:
			conn.Close() // ends the server's side of the session
			return got
		case strings.HasPrefix(got, fmt.Sprintf("ok sync %d ", i)):
			return got
		default:
			return "unexpected reply: " + got
		}
	})

	ready.Wait()
	s.Close()
	done := make(chan struct{})
	go func() {
		callers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a mutation racing Close never got an answer")
	}

	if n, err := s.ReplayJournal(j); n != 0 || err == nil || !strings.HasSuffix(err.Error(), "server closing") {
		t.Fatalf("ReplayJournal after Close: %d records, %v", n, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}

// TestClosingPastUnitSlots queues twice unitSlots line producers behind
// a barrier that holds the writer: the slots run out and the rest wait
// on the free list, and once the writer is released every request is
// answered ok. A second wave of as many producers races Close, and each
// gets ok or "err server closing".
func TestClosingPastUnitSlots(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New()
	for _, req := range []string{"node a", "node b", "link 0 1"} {
		if got := s.dispatch(req, nil); !strings.HasPrefix(got, "ok ") {
			t.Fatalf("%s: %q", req, got)
		}
	}
	const n = 2 * unitSlots
	replies := make(chan string, n)
	wave := func(req func(i int) string) {
		for i := 1; i <= n; i++ {
			go func() { replies <- s.dispatch(req(i), nil) }()
		}
	}
	answers := func(ok func(string) bool) {
		for i := 0; i < n; i++ {
			select {
			case got := <-replies:
				if !ok(got) {
					t.Errorf("reply %q", got)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%d of %d requests never answered", n-i, n)
			}
		}
	}

	held, release := make(chan struct{}), make(chan struct{})
	go s.barrier(func() { close(held); <-release })
	<-held
	wave(func(i int) string { return fmt.Sprintf("I %d 0 0 %d %d 1", i, i, i+1) })
	waitFor(t, func() bool { return len(s.ing.free) == 0 })
	close(release)
	answers(func(got string) bool { return strings.HasPrefix(got, "ok atoms=") })
	if got := s.net.NumRules(); got != n {
		t.Fatalf("%d rules after %d inserts", got, n)
	}

	wave(func(i int) string { return fmt.Sprintf("R %d", i) })
	s.Close()
	answers(func(got string) bool { return strings.HasPrefix(got, "ok atoms=") || got == "err server closing" })
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}

// TestParseUpdateLineZeroAlloc pins the hot-path property the field
// scanner exists for: parsing an I or R line allocates nothing.
func TestParseUpdateLineZeroAlloc(t *testing.T) {
	s := New()
	a := s.Graph().AddNode("a")
	b := s.Graph().AddNode("b")
	s.Graph().AddLink(a, b)
	for _, line := range []string{"I 7 0 0 0 4096 9", "R 7"} {
		allocs := testing.AllocsPerRun(200, func() {
			if _, msg := s.parseUpdateLine(line); msg != "" {
				t.Fatal(msg)
			}
		})
		if allocs != 0 {
			t.Errorf("parseUpdateLine(%q): %.1f allocs/op, want 0", line, allocs)
		}
	}
	s.Close()
}

// BenchmarkParseUpdateLine is the -benchmem pin for the allocation-free
// scanner (strings.Fields used to cost one []string per line here).
func BenchmarkParseUpdateLine(b *testing.B) {
	s := New()
	defer s.Close()
	n0 := s.Graph().AddNode("a")
	n1 := s.Graph().AddNode("b")
	s.Graph().AddLink(n0, n1)
	line := "I 123456 0 0 281470681743360 281470681743615 40"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, msg := s.parseUpdateLine(line); msg != "" {
			b.Fatal(msg)
		}
	}
}
