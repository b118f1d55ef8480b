package server

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"deltanet/internal/check"
	"deltanet/internal/core"
	"deltanet/internal/journal"
	"deltanet/internal/monitor"
)

// startJournaledPrimary runs a primary with a journal at dir/primary.j.
func startJournaledPrimary(t *testing.T, dir string) (*Server, *journal.Journal, string, func()) {
	t.Helper()
	j, err := journal.Open(dir+"/primary.j", journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	s, addr, cleanup := startServer(t, WithJournal(j))
	return s, j, addr, func() {
		cleanup()
		j.Close()
	}
}

// startReplica runs a read replica of the primary at primaryAddr.
func startReplica(t *testing.T, primaryAddr string) (*Server, string, func()) {
	t.Helper()
	return startServer(t, WithReplicaOf(primaryAddr))
}

// waitReplicaCaughtUp polls until the replica's applied update count
// reaches the primary's and its byte lag is zero.
func waitReplicaCaughtUp(t *testing.T, primary, replica *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		want := primary.Monitor().UpdateSeq()
		if replica.Monitor().UpdateSeq() >= want && replica.replicaLagBytes() == 0 &&
			primary.Monitor().UpdateSeq() == want { // unchanged across the read
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up: primary upd=%d replica upd=%d lag=%d",
				primary.Monitor().UpdateSeq(), replica.Monitor().UpdateSeq(), replica.replicaLagBytes())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicaConvergence is the convergence equivalence test: under
// concurrent rule churn on the primary, a replica must fold to the same
// state — all-pairs reach verdicts, loop events, and the brute-force
// loop oracle all agree once the journal drains.
func TestReplicaConvergence(t *testing.T) {
	primary, _, addr, cleanup := startJournaledPrimary(t, t.TempDir())
	defer cleanup()

	// Topology plus a standing loopfree invariant, registered before the
	// replica anchors so the checkpoint dump carries the spec.
	pc := dial(t, addr)
	defer pc.close()
	for _, req := range []string{
		"node a", "node b", "node c",
		"link 0 1",          // 0: a->b
		"link 1 2",          // 1: b->c
		"link 1 0",          // 2: b->a (the bounce link churn abuses)
		"link 2 0",          // 3: c->a
		"I 1 0 0 0 1000 10", // a->b for 0..1000
	} {
		if got := pc.roundTrip(t, req); !strings.HasPrefix(got, "ok") {
			t.Fatalf("%s: %q", req, got)
		}
	}
	if got := pc.roundTrip(t, "W loopfree"); !strings.HasPrefix(got, "ok watch 0 ") {
		t.Fatalf("W loopfree: %q", got)
	}

	replica, raddr, rcleanup := startReplica(t, addr)
	defer rcleanup()
	waitReplicaCaughtUp(t, primary, replica)

	// Concurrent churn: one writer toggles a loop-closing bounce rule
	// (each toggle is a loopfree verdict transition), another churns
	// plain rules, while readers query the replica mid-stream.
	const rounds = 8
	var wg sync.WaitGroup
	wg.Add(3)
	churnErr := make(chan error, 3)
	go func() {
		defer wg.Done()
		c := dial(t, addr)
		defer c.close()
		for i := 0; i < rounds; i++ {
			if got := c.roundTrip(t, "I 100 1 2 0 1000 10"); !strings.HasPrefix(got, "ok") {
				churnErr <- fmt.Errorf("bounce insert: %q", got)
				return
			}
			if got := c.roundTrip(t, "R 100"); !strings.HasPrefix(got, "ok") {
				churnErr <- fmt.Errorf("bounce remove: %q", got)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		c := dial(t, addr)
		defer c.close()
		for i := 0; i < rounds*4; i++ {
			id := 200 + i
			if got := c.roundTrip(t, fmt.Sprintf("I %d 1 1 %d %d 5", id, i*10, i*10+5)); !strings.HasPrefix(got, "ok") {
				churnErr <- fmt.Errorf("churn insert: %q", got)
				return
			}
			if i%2 == 0 {
				if got := c.roundTrip(t, fmt.Sprintf("R %d", id)); !strings.HasPrefix(got, "ok") {
					churnErr <- fmt.Errorf("churn remove: %q", got)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		c := dial(t, raddr)
		defer c.close()
		for i := 0; i < rounds*4; i++ {
			if got := c.roundTrip(t, "reach a c"); !strings.HasPrefix(got, "ok reach ") {
				churnErr <- fmt.Errorf("replica read mid-churn: %q", got)
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-churnErr:
		t.Fatal(err)
	default:
	}
	waitReplicaCaughtUp(t, primary, replica)

	// All-pairs reach verdicts agree over the wire.
	prc, rrc := dial(t, addr), dial(t, raddr)
	defer prc.close()
	defer rrc.close()
	for _, src := range []string{"a", "b", "c"} {
		for _, dst := range []string{"a", "b", "c"} {
			if src == dst {
				continue
			}
			req := fmt.Sprintf("reach %s %s", src, dst)
			p, r := prc.roundTrip(t, req), rrc.roundTrip(t, req)
			if p != r {
				t.Errorf("%s: primary %q, replica %q", req, p, r)
			}
		}
	}

	// Loop oracle: the replica's own engine agrees with a brute-force
	// loop scan, and with the primary's.
	pLoops := len(check.FindLoopsAll(primary.Network()))
	rLoops := len(check.FindLoopsAll(replica.Network()))
	if pLoops != rLoops {
		t.Errorf("loop oracle: primary %d, replica %d", pLoops, rLoops)
	}

	// Event streams: the replica replayed every loopfree transition the
	// churn produced, with the primary's numbering — its backlog is a
	// suffix of the primary's, line for line.
	pEvents := eventLines(t, prc, "events since 0")
	rEvents := eventLines(t, rrc, "events since 0")
	if len(rEvents) == 0 || len(pEvents) < len(rEvents) {
		t.Fatalf("event counts: primary %d, replica %d", len(pEvents), len(rEvents))
	}
	offset := len(pEvents) - len(rEvents)
	for i, r := range rEvents {
		if p := pEvents[offset+i]; p != r {
			t.Errorf("event %d diverged:\nprimary %q\nreplica %q", i, p, r)
		}
	}
	if got := rrc.roundTrip(t, "stats"); !strings.Contains(got, " lag=0") {
		t.Errorf("replica stats missing lag=0: %q", got)
	}
	if got := prc.roundTrip(t, "stats"); !strings.Contains(got, " jrnl=") {
		t.Errorf("primary stats missing jrnl=: %q", got)
	}
}

// eventLines replays the event backlog via req, skipping gap markers.
func eventLines(t *testing.T, c *client, req string) []string {
	t.Helper()
	resp := c.roundTrip(t, req)
	var n int
	if _, err := fmt.Sscanf(resp, "ok events n=%d", &n); err != nil {
		t.Fatalf("%s: %q", req, resp)
	}
	var lines []string
	for i := 0; i < n; i++ {
		if !c.r.Scan() {
			t.Fatalf("event replay truncated at %d/%d: %v", i, n, c.r.Err())
		}
		if l := c.r.Text(); strings.HasPrefix(l, "event ") {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestReplicaRejectsMutations: every mutation verb is refused by a
// replica — including batch bodies, which must be drained, not
// executed.
func TestReplicaRejectsMutations(t *testing.T) {
	_, _, addr, cleanup := startJournaledPrimary(t, t.TempDir())
	defer cleanup()
	replica, raddr, rcleanup := startReplica(t, addr)
	defer rcleanup()

	c := dial(t, raddr)
	defer c.close()
	for _, req := range []string{
		"node x", "link 0 1", "I 1 0 0 0 100 1", "R 1",
	} {
		if got := c.roundTrip(t, req); !strings.HasPrefix(got, "err read-only replica") {
			t.Errorf("%s on replica: %q, want read-only refusal", req, got)
		}
	}
	// Retired commands are unknown here as on a primary, not read-only
	// refusals; the requests below show the connection is still in sync.
	for _, req := range []string{"burst 16 50", "flush"} {
		want := "err unknown command " + strings.Fields(req)[0]
		if got := c.roundTrip(t, req); got != want {
			t.Errorf("%s on replica: %q, want %q", req, got, want)
		}
	}
	// The batch body must be consumed as the batch's payload: the I line
	// inside it is not executed as a command, and the connection stays
	// usable in sync.
	if got := c.roundTrip(t, "B 1\nI 1 0 0 0 100 1"); !strings.HasPrefix(got, "err read-only replica") {
		t.Errorf("B on replica: %q", got)
	}
	if got := c.roundTrip(t, "stats"); !strings.HasPrefix(got, "ok stats ") {
		t.Errorf("stats after refused batch: %q", got)
	}
	if replica.Network().NumRules() != 0 {
		t.Errorf("refused mutations changed replica state: %d rules", replica.Network().NumRules())
	}
}

// proxy is a byte-level TCP forwarder whose upstream can be swapped,
// so a replica's fixed -replica-of address can survive a primary
// restart on a new port.
type proxy struct {
	l  net.Listener
	mu sync.Mutex
	up string
}

func newProxy(t *testing.T) *proxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &proxy{l: l}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go p.forward(c)
		}
	}()
	t.Cleanup(func() { l.Close() })
	return p
}

func (p *proxy) addr() string { return p.l.Addr().String() }

func (p *proxy) setUpstream(addr string) {
	p.mu.Lock()
	p.up = addr
	p.mu.Unlock()
}

func (p *proxy) forward(c net.Conn) {
	p.mu.Lock()
	up := p.up
	p.mu.Unlock()
	if up == "" {
		c.Close()
		return
	}
	u, err := net.Dial("tcp", up)
	if err != nil {
		c.Close()
		return
	}
	go func() {
		io.Copy(u, c)
		u.Close()
		c.Close()
	}()
	io.Copy(c, u)
	u.Close()
	c.Close()
}

// TestReplicaReanchorsAfterRotation: a replica that was offline across
// a primary restart plus journal rotation finds its cursor truncated
// and re-anchors on a fresh checkpoint instead of failing permanently.
func TestReplicaReanchorsAfterRotation(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.Open(dir+"/p.j", journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}

	primary1, addr1, cleanup1 := startServer(t, WithJournal(j))
	px := newProxy(t)
	px.setUpstream(addr1)

	pc := dial(t, addr1)
	for _, req := range []string{
		"node a", "node b", "link 0 1", "link 1 0", "I 1 0 0 0 1000 10",
	} {
		if got := pc.roundTrip(t, req); !strings.HasPrefix(got, "ok") {
			t.Fatalf("%s: %q", req, got)
		}
	}
	pc.close()

	replica, _, rcleanup := startReplica(t, px.addr())
	defer rcleanup()
	waitReplicaCaughtUp(t, primary1, replica)
	cursorBefore := replica.replCursor.Load()

	// Take the primary down; its state survives as a checkpoint dump.
	var state bytes.Buffer
	if _, err := primary1.CheckpointTo(&state, primary1.Monitor().SnapshotSpecs()); err != nil {
		t.Fatal(err)
	}
	cleanup1()

	// Restart: load the checkpoint, apply more updates, checkpoint
	// again, and rotate the journal past the replica's cursor — the
	// window the replica missed no longer exists as journal records.
	primary2 := New(WithJournal(j))
	if err := primary2.LoadState(bytes.NewReader(state.Bytes())); err != nil {
		t.Fatal(err)
	}
	if _, err := primary2.ReplayJournal(j); err != nil {
		t.Fatal(err)
	}
	owned := map[monitor.ID]int{}
	for _, req := range []string{
		"node c", "link 1 2", "I 2 1 2 0 500 5", "R 1",
	} {
		if got := primary2.dispatch(req, owned); !strings.HasPrefix(got, "ok") {
			t.Fatalf("%s on primary2: %q", req, got)
		}
	}
	off, err := primary2.CheckpointTo(io.Discard, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Rotate(off); err != nil {
		t.Fatal(err)
	}
	if j.Base() <= cursorBefore {
		t.Fatalf("rotation did not pass the replica's cursor: base=%d cursor=%d", j.Base(), cursorBefore)
	}

	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done2 := make(chan error, 1)
	go func() { done2 <- primary2.Serve(l2) }()
	defer func() {
		primary2.Close()
		<-done2
		j.Close()
	}()
	px.setUpstream(l2.Addr().String())

	deadline := time.Now().Add(15 * time.Second)
	for replica.replanchors.Load() == 0 || replica.Monitor().UpdateSeq() < primary2.Monitor().UpdateSeq() {
		if time.Now().After(deadline) {
			t.Fatalf("replica never re-anchored: reanchors=%d upd=%d (primary %d)",
				replica.replanchors.Load(), replica.Monitor().UpdateSeq(), primary2.Monitor().UpdateSeq())
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitReplicaCaughtUp(t, primary2, replica)
	if pr, rr := primary2.Network().NumRules(), replica.Network().NumRules(); pr != rr {
		t.Errorf("post-re-anchor rules: primary %d, replica %d", pr, rr)
	}
	if pn, rn := primary2.Graph().NumNodes(), replica.Graph().NumNodes(); pn != rn {
		t.Errorf("post-re-anchor nodes: primary %d, replica %d", pn, rn)
	}
}

// TestJournalCrashRecovery: checkpoint + journal suffix equals the full
// pre-crash state, and a torn final record (the crash landed mid-write)
// is dropped, not misapplied.
func TestJournalCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/p.j"
	j, err := journal.Open(path, journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}

	s1 := New(WithJournal(j))
	defer s1.Close()
	owned := map[monitor.ID]int{}
	reqs := []string{
		"node a", "node b", "link 0 1",
		"I 1 0 0 0 100 1", "I 2 0 0 200 300 1", "I 3 0 0 400 500 1",
	}
	for _, req := range reqs {
		if got := s1.dispatch(req, owned); !strings.HasPrefix(got, "ok") {
			t.Fatalf("%s: %q", req, got)
		}
	}
	wantUpd := s1.Monitor().UpdateSeq()
	j.Close() // crash: no checkpoint was ever written

	// Clean recovery: replay the whole journal into a fresh server.
	j2, err := journal.Open(path, journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(WithJournal(j2))
	defer s2.Close()
	applied, err := s2.ReplayJournal(j2)
	if err != nil {
		t.Fatal(err)
	}
	if applied != len(reqs) {
		t.Fatalf("replayed %d records, want %d", applied, len(reqs))
	}
	if s2.Network().NumRules() != 3 || s2.Graph().NumNodes() != 2 || s2.Monitor().UpdateSeq() != wantUpd {
		t.Fatalf("recovered state wrong: %d rules, %d nodes, upd=%d (want 3, 2, %d)",
			s2.Network().NumRules(), s2.Graph().NumNodes(), s2.Monitor().UpdateSeq(), wantUpd)
	}
	j2.Close()

	// Torn tail: chop bytes off the final record; recovery must drop
	// exactly that record and apply the rest.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	j3, err := journal.Open(path, journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Dropped() == 0 {
		t.Fatal("torn tail not detected")
	}
	s3 := New(WithJournal(j3))
	defer s3.Close()
	applied, err = s3.ReplayJournal(j3)
	if err != nil {
		t.Fatal(err)
	}
	if applied != len(reqs)-1 {
		t.Fatalf("torn replay applied %d records, want %d", applied, len(reqs)-1)
	}
	if s3.Network().NumRules() != 2 {
		t.Fatalf("torn recovery: %d rules, want 2 (last insert dropped)", s3.Network().NumRules())
	}
}

// TestCheckpointVerb: the wire checkpoint is a loadable state dump
// whose offset anchors "journal since" exactly at the dump's cut.
func TestCheckpointVerb(t *testing.T) {
	primary, j, addr, cleanup := startJournaledPrimary(t, t.TempDir())
	defer cleanup()
	c := dial(t, addr)
	defer c.close()
	for _, req := range []string{"node a", "node b", "link 0 1", "I 1 0 0 0 100 1"} {
		c.roundTrip(t, req)
	}
	// The reply line is followed by raw bytes, so read it the way a
	// replica does: lines and the body off one buffered reader.
	lr := newLineReader(c.conn)
	line := func(req string) string {
		t.Helper()
		if _, err := fmt.Fprintln(c.conn, req); err != nil || !lr.Scan() {
			t.Fatalf("%s: %v %v", req, err, lr.Err())
		}
		return lr.Text()
	}
	resp := line("checkpoint")
	var n int
	var off uint64
	if _, err := fmt.Sscanf(resp, "ok checkpoint offset=%d bytes=%d", &off, &n); err != nil {
		t.Fatalf("checkpoint: %q", resp)
	}
	if off != j.End() {
		t.Errorf("checkpoint offset %d, journal end %d", off, j.End())
	}
	dump := make([]byte, n)
	if _, err := io.ReadFull(lr.br, dump); err != nil {
		t.Fatalf("dump truncated: %v", err)
	}
	// The body is the state file itself, and the connection is back to
	// lines after it.
	var file bytes.Buffer
	if _, err := primary.CheckpointTo(&file, primary.Monitor().SnapshotSpecs()); err != nil || !bytes.Equal(dump, file.Bytes()) {
		t.Fatalf("checkpoint body is not the state file (%v)", err)
	}
	if got := line("stats"); !strings.HasPrefix(got, "ok stats rules=1 ") {
		t.Fatalf("stats after the checkpoint body: %q", got)
	}
	if got := line("checkpoint extra"); got != "err usage: checkpoint" {
		t.Fatalf("checkpoint with an argument: %q", got)
	}
	restored := New()
	defer restored.Close()
	if err := restored.LoadState(bytes.NewReader(dump)); err != nil {
		t.Fatalf("checkpoint dump not loadable: %v", err)
	}
	if restored.Network().NumRules() != 1 || restored.Graph().NumNodes() != 2 {
		t.Fatalf("restored %d rules, %d nodes", restored.Network().NumRules(), restored.Graph().NumNodes())
	}
	if restored.loadedJournal != off {
		t.Errorf("restored journal cursor %d, want %d", restored.loadedJournal, off)
	}
}

// TestReplicaShortCheckpointBody: a primary that dies partway through a
// checkpoint body leaves the replica empty and unanchored, so it re-dials
// and asks for a checkpoint again — it never streams the journal over a
// half-loaded plane — and anchors once a whole body arrives.
func TestReplicaShortCheckpointBody(t *testing.T) {
	fixture := recordFixture(t)
	var dump bytes.Buffer
	if err := fixture.SaveState(&dump); err != nil {
		t.Fatal(err)
	}
	fixture.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	requests := make(chan string, 16)
	go func() {
		for dials := 1; ; dials++ {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			lr := newLineReader(conn)
			if !lr.Scan() {
				conn.Close()
				continue
			}
			requests <- lr.Text()
			body := dump.Bytes()
			if dials <= 2 {
				body = body[:len(body)-10] // the primary dies mid-body
			}
			fmt.Fprintf(conn, "ok checkpoint offset=0 bytes=%d\n", dump.Len())
			conn.Write(body)
			if dials > 2 && lr.Scan() {
				requests <- lr.Text()
			}
			conn.Close()
		}
	}()

	replica, _, cleanup := startReplica(t, l.Addr().String())
	defer cleanup()
	for i, want := range []string{"checkpoint", "checkpoint", "checkpoint", "journal since 0"} {
		select {
		case got := <-requests:
			if got != want {
				t.Fatalf("request %d: %q, want %q", i+1, got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d (%q) never came", i+1, want)
		}
		if i == 1 {
			// After a short body the replica holds nothing.
			replica.mu.RLock()
			nodes, cursor := replica.graph.NumNodes(), replica.replCursor.Load()
			replica.mu.RUnlock()
			if nodes != 0 || cursor != 0 {
				t.Fatalf("after a short checkpoint body: %d nodes, cursor %d, want an empty replica", nodes, cursor)
			}
		}
	}
	if got := stateOf(replica); got.nodes != 3 || got.rules != 2 {
		t.Fatalf("anchored on the whole body: %+v", got)
	}
}

// TestReplicaStreamSendsOnlyFlushedRecords: every frame a journal stream
// delivers is already in the primary's file when it arrives — the writer
// sends a record only after flushing it — so a replica never holds a
// record the primary could lose.
func TestReplicaStreamSendsOnlyFlushedRecords(t *testing.T) {
	primary, j, addr, cleanup := startJournaledPrimary(t, t.TempDir())
	defer cleanup()
	pc := dial(t, addr)
	defer pc.close()
	buildTriangle(t, pc)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cursor := j.End()
	fmt.Fprintf(conn, "journal since %d\n", cursor)
	lr := newLineReader(conn)
	if !lr.Scan() || !strings.HasPrefix(lr.Text(), "ok journal ") {
		t.Fatalf("journal since: %q (%v)", lr.Text(), lr.Err())
	}

	// Line updates, coalesced ring runs and topology records, racing the
	// reads below.
	const rounds = 40
	driven := make(chan struct{})
	defer func() { <-driven }()
	go func() {
		defer close(driven)
		for i := 0; i < rounds; i++ {
			if got := primary.update([]core.BatchOp{insOp(int64(1+i), 0, 0, uint64(10*i), uint64(10*i+5), 1)}, "ok", 0); !strings.HasPrefix(got, "ok") {
				t.Errorf("insert %d: %q", i, got)
			}
			primary.IngestOps([]core.BatchOp{insOp(int64(1000+i), 1, 1, uint64(10*i), uint64(10*i+5), 1), core.RemoveOp(core.RuleID(1000 + i))})
			if i%10 == 0 {
				if _, err := primary.AddNode(fmt.Sprintf("n%d", i)); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for frames := 0; frames < rounds+rounds/10; frames++ { // at least the line and node records
		if !lr.Scan() {
			t.Fatalf("stream ended after %d frames: %v", frames, lr.Err())
		}
		end, _, seq, _, n, err := parseJournalFrame(lr.Text())
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(lr.br, payload); err != nil {
			t.Fatal(err)
		}
		r, err := j.ReadFrom(cursor)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("frame %d (end %d) arrived before the primary's file held it: %v", frames, end, err)
		}
		if rec.End != end || rec.Seq != seq || !bytes.Equal(rec.Payload, payload) {
			t.Fatalf("frame %d: end %d seq %d, the file's next record has end %d seq %d", frames, end, seq, rec.End, rec.Seq)
		}
		r.Close()
		cursor = end
	}
}
