package main

// service.go boots the system under test in process — server.New, Serve on a
// loopback listener — and is the only file that talks to it: topology
// mirroring and bulk load the way cmd/dnserve's feed does it, invariant
// registration over a client connection, the watcher connection, and
// checkpoint/recovery.

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"deltanet/client"
	"deltanet/internal/core"
	"deltanet/internal/journal"
	"deltanet/internal/metrics"
	"deltanet/internal/monitor"
	"deltanet/internal/netgraph"
	"deltanet/internal/server"
)

// loadChunk is how many ops one IngestOps call carries during bulk load, the
// value cmd/dnserve's feed replay uses.
const loadChunk = 256

// service is one running server plus the connections that must outlive the
// phases: the control connection owns the invariant registrations (they are
// released when it closes).
type service struct {
	srv  *server.Server
	addr string
	done chan struct{} // closed when Serve returns

	jrnl  *journal.Journal
	jpath string

	ctrl       *client.Client
	probeID    int64
	invariants int
	registerNs int64 // time spent registering the battery

	checkpoint []byte // post-setup state dump (journalled services)
}

// mirrorTopology copies g into the server's graph so protocol ids match the
// generator's, as cmd/dnserve's installFeedTopology does.
func mirrorTopology(s *server.Server, g *netgraph.Graph) {
	for v := netgraph.NodeID(0); int(v) < g.NumNodes(); v++ {
		s.Graph().AddNode(g.NodeName(v))
	}
	for _, l := range g.Links() {
		s.Graph().AddLink(l.Src, l.Dst)
	}
}

// newServer constructs a server for w, opening a fresh journal under dir
// when the workload journals.
func newServer(w *workload, dir string, reg *metrics.Registry) (*service, error) {
	sv := &service{done: make(chan struct{})}
	var opts []server.Option
	if w.journal {
		sv.jpath = filepath.Join(dir, "journal")
		j, err := journal.Open(sv.jpath, journal.SyncNone)
		if err != nil {
			return nil, err
		}
		sv.jrnl = j
		opts = append(opts, server.WithJournal(j))
	}
	if reg != nil {
		opts = append(opts, server.WithMetrics(reg))
	}
	sv.srv = server.New(opts...)
	return sv, nil
}

// serve starts accepting on a loopback port.
func (sv *service) serve() error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	sv.addr = l.Addr().String()
	go func() {
		defer close(sv.done)
		_ = sv.srv.Serve(l) // returns when Close is called; nothing to report
	}()
	return nil
}

// bootService brings a server to the state a workload's first timed
// operation finds: topology, converged data plane, battery registered.
func bootService(w *workload, p *plane, specs []string, dir string, reg *metrics.Registry) (*service, error) {
	sv, err := newServer(w, dir, reg)
	if err != nil {
		return nil, err
	}
	mirrorTopology(sv.srv, p.g)
	if err := sv.serve(); err != nil {
		sv.close()
		return nil, err
	}
	for i := 0; i < len(p.load); i += loadChunk {
		if !sv.srv.IngestOps(p.load[i:min(i+loadChunk, len(p.load))]) {
			sv.close()
			return nil, fmt.Errorf("bulk load refused at op %d", i)
		}
	}
	sv.srv.IngestBarrier()
	if got := sv.srv.Network().NumRules(); got != len(p.load) {
		sv.close()
		return nil, fmt.Errorf("bulk load: %d rules live, want %d", got, len(p.load))
	}
	if sv.ctrl, err = client.Dial(sv.addr); err != nil {
		sv.close()
		return nil, err
	}
	t0 := time.Now()
	probe := fmt.Sprintf("reach %s %s", p.g.NodeName(p.probeA), p.g.NodeName(p.probeB))
	for _, spec := range append(specs[:len(specs):len(specs)], probe) {
		resp, err := sv.ctrl.Do("W " + spec)
		if err != nil {
			sv.close()
			return nil, fmt.Errorf("register %q: %w", spec, err)
		}
		// "ok watch <id> <status>"
		f := strings.Fields(resp)
		if len(f) != 4 {
			sv.close()
			return nil, fmt.Errorf("register %q: bad response %q", spec, resp)
		}
		sv.probeID, _ = strconv.ParseInt(f[2], 10, 64)
	}
	sv.registerNs = time.Since(t0).Nanoseconds()
	// Equal specs share one registration; the watcher must expect as many
	// status lines as the monitor holds, not as many as were sent.
	sv.invariants = sv.srv.Monitor().NumRegistered()
	if w.journal {
		var buf bytes.Buffer
		if _, err := sv.srv.CheckpointTo(&buf, sv.srv.Monitor().SnapshotSpecs()); err != nil {
			sv.close()
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		sv.checkpoint = buf.Bytes()
	}
	return sv, nil
}

// close stops the server and everything the service owns, and waits for it.
func (sv *service) close() {
	if sv.ctrl != nil {
		sv.ctrl.Close()
		sv.ctrl = nil
	}
	if sv.addr != "" {
		sv.srv.Close()
		<-sv.done
		sv.addr = ""
	}
	if sv.jrnl != nil {
		sv.jrnl.Close()
		sv.jrnl = nil
	}
}

// recoverService measures a restart: a fresh server loads the state dump
// (and, for a journalled service, replays the journal suffix after it) until
// its behaviour digest equals want. It returns the time that took, the part
// of it spent replaying the journal, and the number of records replayed.
func recoverService(state []byte, jpath string, want uint64) (total, replay time.Duration, recs int, err error) {
	t0 := time.Now()
	var opts []server.Option
	var j *journal.Journal
	if jpath != "" {
		if j, err = journal.Open(jpath, journal.SyncNone); err != nil {
			return 0, 0, 0, err
		}
		defer j.Close()
		opts = append(opts, server.WithJournal(j))
	}
	s := server.New(opts...)
	defer s.Close()
	if err := s.LoadState(bytes.NewReader(state)); err != nil {
		return 0, 0, 0, fmt.Errorf("load state: %w", err)
	}
	if j != nil {
		t1 := time.Now()
		if recs, err = s.ReplayJournal(j); err != nil {
			return 0, 0, 0, fmt.Errorf("replay journal: %w", err)
		}
		replay = time.Since(t1)
	}
	got := s.Network().BehaviourDigest()
	total = time.Since(t0)
	if got != want {
		return total, replay, recs, fmt.Errorf("recovered digest %x, want %x", got, want)
	}
	return total, replay, recs, nil
}

// watcher is the NOC's connection: it follows every verdict transition,
// folds them into a per-invariant verdict, and stamps the probe's.
type watcher struct {
	c       *client.Client
	probeID int64

	mu       sync.Mutex
	verdict  map[int64]bool // id -> violated
	probeAt  []time.Time    // arrival of each probe event, in order
	probeBad int            // probe events whose kind broke the alternation
	gaps     int            // "gap" lines: the server dropped events
	done     chan struct{}
}

// startWatcher opens a watch session and returns once the status snapshot
// (n lines) has been read, so every later transition arrives as an event.
func startWatcher(addr string, probeID int64, n int) (*watcher, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	if _, err := c.Do("watch"); err != nil {
		c.Close()
		return nil, err
	}
	wt := &watcher{c: c, probeID: probeID, verdict: make(map[int64]bool, n), done: make(chan struct{})}
	for i := 0; i < n; i++ {
		line, err := c.ReadLine()
		if err != nil {
			c.Close()
			return nil, err
		}
		wt.fold(line, time.Time{})
	}
	go func() {
		defer close(wt.done)
		for {
			line, err := c.ReadLine()
			now := time.Now()
			if err != nil {
				return // closed by close(), or the server went away: the drain timeouts report it
			}
			wt.fold(line, now)
		}
	}()
	return wt, nil
}

// fold applies one stream line: "status <id> <holds|violated> ...",
// "event <id> <violation|cleared> ...", or "gap ...".
func (wt *watcher) fold(line string, at time.Time) {
	kind, rest, _ := strings.Cut(line, " ")
	idStr, rest, _ := strings.Cut(rest, " ")
	word, _, _ := strings.Cut(rest, " ")
	wt.mu.Lock()
	defer wt.mu.Unlock()
	switch kind {
	case "status", "event":
		id, err := strconv.ParseInt(idStr, 10, 64)
		if err != nil {
			return
		}
		violated := word == "violated" || word == "violation"
		if kind == "event" && id == wt.probeID {
			if prev, seen := wt.verdict[id]; seen && prev == violated {
				wt.probeBad++
			}
			wt.probeAt = append(wt.probeAt, at)
		}
		wt.verdict[id] = violated
	case "gap":
		wt.gaps++
	}
}

// probeEvents returns how many probe transitions have arrived.
func (wt *watcher) probeEvents() int {
	wt.mu.Lock()
	defer wt.mu.Unlock()
	return len(wt.probeAt)
}

// awaitProbeEvents waits until n probe transitions have arrived or the
// timeout passes.
func (wt *watcher) awaitProbeEvents(n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for wt.probeEvents() < n {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

func (wt *watcher) close() {
	wt.c.Close()
	<-wt.done
}

// mismatches compares the folded stream with the monitor's own snapshot and
// returns how many invariants disagree.
func (wt *watcher) mismatches(sv *service) int {
	wt.mu.Lock()
	defer wt.mu.Unlock()
	bad := wt.gaps
	infos := sv.srv.Monitor().Invariants()
	for _, info := range infos {
		if v, ok := wt.verdict[int64(info.ID)]; !ok || v != (info.Status == monitor.Violated) {
			bad++
		}
	}
	return bad
}

// oracleDigest replays ops one by one through a fresh engine over the same
// topology: the sequential reference every service run must end equal to.
func oracleDigest(g *netgraph.Graph, streams ...[]core.BatchOp) (uint64, error) {
	n := core.NewNetwork(g.Clone(), core.Options{})
	var d core.Delta
	for _, ops := range streams {
		for i := range ops {
			var err error
			if ops[i].Insert {
				err = n.InsertRuleInto(ops[i].Rule, &d)
			} else {
				err = n.RemoveRuleInto(ops[i].Rule.ID, &d)
			}
			if err != nil {
				return 0, fmt.Errorf("oracle op %d: %w", i, err)
			}
		}
	}
	return n.BehaviourDigest(), nil
}

// scratchDir makes a fresh directory for journals under the checkout's
// build directory, never outside the working tree.
func scratchDir() (string, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
