package main

// trace.go is the traced run (--trace 1): the per-layer budget. Nothing
// inside the program is instrumented; the numbers come from three places.
//
//  1. The workload itself, run again with server.WithMetrics and "trace on":
//     the server's existing stage histograms and Monitor.Stats, read before
//     and after the timed phases.
//  2. An in-process pipeline replay: the harness calls each layer's exported
//     functions in the order the server does, one update at a time, and
//     records a span around each call. A layer's self time is its span minus
//     the spans it caused; intervalmap cannot be spanned under core from
//     outside, so the same intervals are replayed through a stand-alone map
//     and subtracted.
//  3. Stand-alone measurements of what a span cannot isolate: batch apply,
//     the socket-less ingest path with and without journal and tracing, the
//     client's framing, a replica's catch-up.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"deltanet/client"
	"deltanet/internal/binproto"
	"deltanet/internal/check"
	"deltanet/internal/core"
	"deltanet/internal/ingest"
	"deltanet/internal/intervalmap"
	"deltanet/internal/ipnet"
	"deltanet/internal/journal"
	"deltanet/internal/metrics"
	"deltanet/internal/monitor"
	"deltanet/internal/netgraph"
	"deltanet/internal/server"
)

// span is one call into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // from the tracer's origin
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span; -1 for a root
	Op     int    `json:"op"`     // the update the span belongs to
}

// keepOps is how many updates' spans a trace file holds; totals cover all.
const keepOps = 2000

// tracer records spans. Every span is folded into per-name totals at once;
// only the first keepOps updates' spans stay in memory for the file.
type tracer struct {
	origin time.Time
	kept   []span
	stack  []open
	self   map[string]int64
	count  map[string]int
}

type open struct {
	name     string
	start    time.Time
	children int64 // time covered by child spans
	kept     int   // index in kept, or -1
	op       int
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), self: map[string]int64{}, count: map[string]int{}}
}

func (t *tracer) begin(name string, op int) {
	o := open{name: name, op: op, kept: -1}
	if op < keepOps {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].kept
		}
		o.kept = len(t.kept)
		t.kept = append(t.kept, span{Name: name, Parent: parent, Op: op})
	}
	o.start = time.Now()
	t.stack = append(t.stack, o)
}

func (t *tracer) end() {
	now := time.Now()
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now.Sub(o.start).Nanoseconds()
	t.self[o.name] += d - o.children
	t.count[o.name]++
	if n := len(t.stack); n > 0 {
		t.stack[n-1].children += d
	}
	if o.kept >= 0 {
		t.kept[o.kept].Start = o.start.Sub(t.origin).Nanoseconds()
		t.kept[o.kept].End = now.Sub(t.origin).Nanoseconds()
	}
}

// per returns a layer's self time per span, 0 when it never ran.
func (t *tracer) per(name string) float64 {
	if t.count[name] == 0 {
		return 0
	}
	return float64(t.self[name]) / float64(t.count[name])
}

// write stores the kept spans and the totals under bench/out.
func (t *tracer) write(workload string, seed int64) error {
	dir := "out"
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		dir = filepath.Join("bench", "out")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body, err := json.Marshal(map[string]any{
		"workload": workload, "seed": seed,
		"self_ns": t.self, "spans_total": t.count,
		"spans_kept_for_first_ops": keepOps, "spans": t.kept,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), body, 0o644)
}

// engineOps bounds how many operations the engine pass replays one by one;
// maxLayerTime bounds each stand-alone measurement.
const (
	engineOps    = 200_000
	maxLayerTime = 700 * time.Millisecond
)

// batchPayload renders ops as the journal records a coalesced batch: the
// wire grammar, "B <n>" and one line per operation.
func batchPayload(ops []core.BatchOp) string {
	var b strings.Builder
	fmt.Fprintf(&b, "B %d", len(ops))
	for i := range ops {
		r := &ops[i].Rule
		if ops[i].Insert {
			fmt.Fprintf(&b, "\nI %d %d %d %d %d %d", r.ID, r.Source, r.Link, r.Match.Lo, r.Match.Hi, r.Priority)
		} else {
			fmt.Fprintf(&b, "\nR %d", r.ID)
		}
	}
	return b.String()
}

// registerSpecs registers W-grammar specs (node names) with a monitor.
func registerSpecs(m *monitor.Monitor, g *netgraph.Graph, specs []string) error {
	resolve := func(name string) (netgraph.NodeID, bool) {
		id := g.NodeByName(name)
		return id, id != netgraph.NoNode
	}
	for _, s := range specs {
		spec, err := monitor.ParseSpecNamed(s, resolve)
		if err != nil {
			return fmt.Errorf("spec %q: %w", s, err)
		}
		m.Register(spec)
	}
	return nil
}

// preroll brings a fresh engine over g to the state the traced operations
// start from.
func preroll(g *netgraph.Graph, streams ...[]core.BatchOp) (*core.Network, error) {
	n := core.NewNetwork(g.Clone(), core.Options{})
	var d core.Delta
	for _, ops := range streams {
		for i := 0; i < len(ops); i += 1024 {
			if err := n.ApplyBatch(ops[i:min(i+1024, len(ops))], &d, 0); err != nil {
				return nil, err
			}
		}
	}
	return n, nil
}

// enginePass replays ops one at a time through core and check on top of the
// state before, a span around each call, and fills the intervalmap, core and
// check layers. This is the whole pipeline of a library workload and the
// engine's share of a service workload.
func enginePass(r *report, t *tracer, g *netgraph.Graph, queries []query, before [][]core.BatchOp, ops []core.BatchOp) error {
	net, err := preroll(g, before...)
	if err != nil {
		return err
	}
	r.layer("core.bytes_per_rule", float64(net.MemoryBytes())/float64(max(net.NumRules(), 1)), "B")
	splits := net.Splits()
	var d core.Delta
	deltaBits, loops := 0, 0
	for i := range ops {
		op := &ops[i]
		t.begin("op", i)
		if op.Insert {
			t.begin("core.insert", i)
			err = net.InsertRuleInto(op.Rule, &d)
		} else {
			t.begin("core.remove", i)
			err = net.RemoveRuleInto(op.Rule.ID, &d)
		}
		t.end()
		if err != nil {
			t.end()
			return fmt.Errorf("engine pass op %d: %w", i, err)
		}
		deltaBits += len(d.Added) + len(d.Removed)
		t.begin("check.loops_delta", i)
		loops += len(check.FindLoopsDelta(net, &d))
		t.end()
		t.end()
	}
	inserts := t.count["core.insert"]
	r.layer("intervalmap.atoms", float64(net.NumAtoms()), "count")
	if inserts > 0 {
		r.layer("intervalmap.splits_per_insert", float64(net.Splits()-splits)/float64(inserts), "count")
	}
	r.layer("core.insert_ns_per_op", t.per("core.insert"), "ns")
	r.layer("core.remove_ns_per_op", t.per("core.remove"), "ns")
	r.layer("core.delta_bits_per_op", float64(deltaBits)/float64(len(ops)), "count")
	r.layer("check.loops_delta_ns_per_op", t.per("check.loops_delta"), "ns")
	r.layer("check.loops_found", float64(loops), "count")
	r.info["engine_pass_ops"] = len(ops)
	r.info["engine_pass_harness_ns_per_op"] = t.per("op")

	// intervalmap under core: the same intervals through a stand-alone map.
	im := intervalmap.New(ipnet.IPv4)
	var pairs []intervalmap.SplitPair
	for _, stream := range before {
		for i := range stream {
			if stream[i].Insert {
				pairs = im.CreateAtomsInto(stream[i].Rule.Match, pairs[:0])
			}
		}
	}
	t0 := time.Now()
	for i := range ops {
		if ops[i].Insert {
			pairs = im.CreateAtomsInto(ops[i].Rule.Match, pairs[:0])
		}
	}
	imNs := float64(time.Since(t0).Nanoseconds())
	if inserts > 0 {
		r.layer("intervalmap.create_ns_per_op", imNs/float64(inserts), "ns")
	}
	r.layer("core.self_ns_per_op", (float64(t.self["core.insert"]+t.self["core.remove"])-imNs)/float64(len(ops)), "ns")

	// Batch apply: the same operations, 64 at a time, on a second engine.
	net2, err := preroll(g, before...)
	if err != nil {
		return err
	}
	t0 = time.Now()
	done := 0
	for i := 0; i < len(ops) && time.Since(t0) < maxLayerTime; i += burstFrame {
		chunk := ops[i:min(i+burstFrame, len(ops))]
		if err := net2.ApplyBatch(chunk, &d, 0); err != nil {
			return fmt.Errorf("batch apply at %d: %w", i, err)
		}
		done += len(chunk)
	}
	r.layer("core.apply_batch64_ns_per_op", float64(time.Since(t0).Nanoseconds())/float64(done), "ns")

	// The read verbs, straight on the engine.
	var wn, rn int
	var wt, rt time.Duration
	for _, q := range queries {
		t0 := time.Now()
		if q.whatif {
			sink = check.AffectedByLinkFailure(net, q.link).NumEdges()
			wt += time.Since(t0)
			wn++
		} else {
			sink = check.Reachable(net, q.a, q.b).Len()
			rt += time.Since(t0)
			rn++
		}
	}
	if wn > 0 && rn > 0 {
		r.layer("check.whatif_ns_per_q", float64(wt.Nanoseconds())/float64(wn), "ns")
		r.layer("check.reach_ns_per_q", float64(rt.Nanoseconds())/float64(rn), "ns")
	}
	return nil
}

// framePass replays the paced phase's frames — one route change each — the
// way the server handles one: decode the frame, pass its operations through
// the ring, apply them as one batch, check the merged delta for loops, run
// one monitor pass under the workload's battery, append one journal record.
// It fills the binproto, ingest, monitor and journal layers.
func framePass(r *report, t *tracer, g *netgraph.Graph, specs []string, journalDir string, load []core.BatchOp, changes [][]core.BatchOp) error {
	net, err := preroll(g, load)
	if err != nil {
		return err
	}
	mon := monitor.New(net, 0)
	if err := registerSpecs(mon, g, specs); err != nil {
		return err
	}
	var jrnl *journal.Journal
	if journalDir != "" {
		if jrnl, err = journal.Open(filepath.Join(journalDir, "trace-journal"), journal.SyncNone); err != nil {
			return err
		}
		defer jrnl.Close()
	}
	var wire []byte
	ops := 0
	for _, c := range changes {
		wire = binproto.AppendOps(wire, c)
		ops += len(c)
	}
	r.layer("binproto.bytes_per_op", float64(len(wire))/float64(ops), "B")
	fr := binproto.NewReader(bytes.NewReader(wire))
	ring := ingest.New(1024)
	batch := make([]core.BatchOp, 0, 1024)
	var d core.Delta
	for i := range changes {
		t.begin("update", i)
		t.begin("binproto.decode", i)
		f, err := fr.Read()
		t.end()
		if err != nil || len(f.Ops) != len(changes[i]) {
			t.end()
			return fmt.Errorf("frame pass %d: decoded %d ops, %v", i, len(f.Ops), err)
		}
		t.begin("ingest.ring", i)
		batch = batch[:0]
		for j := range f.Ops {
			ring.Push(ingest.Entry{Op: f.Ops[j]})
			e, _ := ring.Pop()
			batch = append(batch, e.Op)
		}
		t.end()
		t.begin("core.apply_batch", i)
		err = net.ApplyBatch(batch, &d, 0)
		t.end()
		if err != nil {
			t.end()
			return fmt.Errorf("frame pass %d: %w", i, err)
		}
		t.begin("check.loops_delta_auto", i)
		loops := check.FindLoopsDeltaAuto(net, &d, 0)
		t.end()
		t.begin("monitor.apply", i)
		mon.ApplyWithLoops(&d, loops, true)
		t.end()
		if jrnl != nil {
			payload := batchPayload(batch)
			t.begin("journal.append", i)
			_, err = jrnl.Append(mon.UpdateSeq(), payload)
			t.end()
			if err != nil {
				t.end()
				return fmt.Errorf("frame pass %d: journal: %w", i, err)
			}
		}
		t.end()
	}
	r.layer("binproto.decode_ns_per_op", float64(t.self["binproto.decode"])/float64(ops), "ns")
	r.layer("ingest.push_pop_ns_per_op", float64(t.self["ingest.ring"])/float64(ops), "ns")
	r.layer("monitor.apply_ns_per_update", t.per("monitor.apply"), "ns")
	if jrnl != nil {
		r.layer("journal.append_ns_per_rec", t.per("journal.append"), "ns")
		r.layer("journal.bytes_per_op", float64(jrnl.End()-jrnl.Base())/float64(ops), "B")
	}
	r.info["frame_pass_updates"] = len(changes)
	r.info["frame_pass_engine_ns_per_update"] = t.per("core.apply_batch") + t.per("check.loops_delta_auto")

	// Frame encoding, 64 operations a frame.
	flat := flatten(changes)
	buf := make([]byte, 0, 64*32)
	t0 := time.Now()
	for i := 0; i < len(flat); i += burstFrame {
		buf = binproto.AppendOps(buf[:0], flat[i:min(i+burstFrame, len(flat))])
	}
	r.layer("binproto.encode_ns_per_op", float64(time.Since(t0).Nanoseconds())/float64(len(flat)), "ns")
	return nil
}

// traceLibrary is the traced half of the replay workload: the whole trace
// through core and check with spans, and the accounting check that the
// layers add up to the untraced per-update time.
func traceLibrary(r *report, p *plane, order []int, seed int64, nsPerOp float64) {
	ops := make([]core.BatchOp, 0, 2*len(p.load))
	ops = append(ops, p.load...)
	for _, i := range order {
		ops = append(ops, core.RemoveOp(p.load[i].Rule.ID))
	}
	t := newTracer()
	err := enginePass(r, t, p.g, p.queries(seed), nil, ops)
	if err == nil {
		err = t.write(r.workload, seed)
	}
	if err != nil {
		r.fail(1, "layer budget: %v", err)
		return
	}
	// intervalmap runs on inserts only; spread it over every op to add up.
	layers := r.layers["core.self_ns_per_op"].Value +
		r.layers["intervalmap.create_ns_per_op"].Value*float64(len(p.load))/float64(len(ops)) +
		r.layers["check.loops_delta_ns_per_op"].Value
	r.info["accounted_share"] = layers / nsPerOp
	r.lap("layers")
}

// scrape renders the registry and returns every sample by its full name.
func scrape(reg *metrics.Registry) map[string]float64 {
	var buf bytes.Buffer
	out := map[string]float64{}
	if err := reg.WriteText(&buf); err != nil {
		return out
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// serverCounters is a snapshot of what the server already counts.
type serverCounters struct {
	metrics map[string]float64
	mon     monitor.Stats
}

func snapshotCounters(sv *service, reg *metrics.Registry) serverCounters {
	return serverCounters{metrics: scrape(reg), mon: sv.srv.Monitor().Stats()}
}

var stages = []string{"parse", "lockwait", "apply", "dirtymark", "evalfanout", "publish"}

// serverBudget fills the layers the running server measures itself: the
// stage histograms per update applied, and the monitor's work per pass.
func serverBudget(r *report, before, after serverCounters) {
	applied := after.metrics["dn_ingest_ops_total"] - before.metrics["dn_ingest_ops_total"]
	for _, st := range stages {
		key := `dnserve_update_stage_seconds_sum{stage="` + st + `"}`
		if applied > 0 {
			r.layer("server.stage."+st+"_ns_per_update", (after.metrics[key]-before.metrics[key])*1e9/applied, "ns")
		}
	}
	passes := float64(after.mon.Updates - before.mon.Updates)
	evals := float64(after.mon.Evaluations - before.mon.Evaluations)
	events := float64(after.mon.Events - before.mon.Events)
	if passes > 0 {
		r.layer("monitor.evals_per_update", evals/passes, "count")
		r.layer("monitor.skips_per_update", float64(after.mon.Skips-before.mon.Skips)/passes, "count")
		r.layer("monitor.range_skips_per_update", float64(after.mon.RangeSkips-before.mon.RangeSkips)/passes, "count")
	}
	r.layer("monitor.events_total", events, "count")
	if evals > 0 {
		r.layer("monitor.eval_yield", events/evals, "ratio")
	}
}

// ringSampler polls the server's stats line for the ingest ring's depth
// while the phases run.
type ringSampler struct {
	c     *client.Client
	quit  chan struct{}
	done  chan struct{}
	once  sync.Once
	depth samples
}

func startRingSampler(sv *service, on bool) *ringSampler {
	s := &ringSampler{quit: make(chan struct{}), done: make(chan struct{})}
	if !on {
		close(s.done)
		return s
	}
	c, err := client.Dial(sv.addr)
	if err != nil {
		close(s.done)
		return s
	}
	s.c = c
	go func() {
		defer close(s.done)
		for {
			select {
			case <-s.quit:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if d, err := c.StatUint("ring"); err == nil {
				s.depth = append(s.depth, float64(d))
			}
		}
	}()
	return s
}

func (s *ringSampler) stop() {
	s.once.Do(func() { close(s.quit) })
	<-s.done
	if s.c != nil {
		s.c.Close()
	}
}

// discardConn is a connection to nowhere: it answers the binary handshake
// and swallows every write, so client.BinaryConn.Send can be timed alone.
type discardConn struct {
	handshake *strings.Reader
}

func (d *discardConn) Read(p []byte) (int, error)       { return d.handshake.Read(p) }
func (d *discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (d *discardConn) Close() error                     { return nil }
func (d *discardConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (d *discardConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (d *discardConn) SetDeadline(time.Time) error      { return nil }
func (d *discardConn) SetReadDeadline(time.Time) error  { return nil }
func (d *discardConn) SetWriteDeadline(time.Time) error { return nil }

// clientSendCost times the public client's framing: BinaryConn.Send of
// 64-update frames into a discarding connection, nanoseconds per update.
func clientSendCost(ops []core.BatchOp) (float64, error) {
	c := client.NewClient(&discardConn{handshake: strings.NewReader(fmt.Sprintf("ok dnbin %d\n", binproto.Version))})
	bc, err := c.Binary()
	if err != nil {
		return 0, err
	}
	ups := make([]client.Update, len(ops))
	for i := range ops {
		r := &ops[i].Rule
		if ops[i].Insert {
			ups[i] = client.Insert(int64(r.ID), int32(r.Source), int32(r.Link), r.Match.Lo, r.Match.Hi, int32(r.Priority))
		} else {
			ups[i] = client.Remove(int64(r.ID))
		}
	}
	t0 := time.Now()
	for i := 0; i < len(ups); i += burstFrame {
		if err := bc.Send(ups[i:min(i+burstFrame, len(ups))]); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(ups)), nil
}

// ingestCost boots a fresh server in the given configuration, brings it to
// the state before, and times ops through the socket-less ingest path
// (IngestOps + IngestBarrier), nanoseconds per update.
func ingestCost(w *workload, p *plane, specs []string, dir string, journal, traced bool,
	before [][]core.BatchOp, ops []core.BatchOp) (float64, error) {
	cfg := *w
	cfg.journal = journal
	var reg *metrics.Registry
	if traced {
		reg = metrics.NewRegistry()
	}
	sub, err := os.MkdirTemp(dir, "ingest-")
	if err != nil {
		return 0, err
	}
	sv, err := bootService(&cfg, p, specs, sub, reg)
	if err != nil {
		return 0, err
	}
	defer sv.close()
	if traced {
		if _, err := sv.ctrl.Do("trace on"); err != nil {
			return 0, err
		}
	}
	for _, stream := range before {
		for i := 0; i < len(stream); i += loadChunk {
			if !sv.srv.IngestOps(stream[i:min(i+loadChunk, len(stream))]) {
				return 0, fmt.Errorf("ingest pre-roll refused at %d", i)
			}
		}
	}
	sv.srv.IngestBarrier()
	t0 := time.Now()
	done := 0
	for i := 0; i < len(ops) && time.Since(t0) < maxLayerTime; i += loadChunk {
		chunk := ops[i:min(i+loadChunk, len(ops))]
		if !sv.srv.IngestOps(chunk) {
			return 0, fmt.Errorf("ingest refused at %d", i)
		}
		done += len(chunk)
	}
	sv.srv.IngestBarrier()
	return float64(time.Since(t0).Nanoseconds()) / float64(done), nil
}

// replicaCatchup attaches a read replica to the live primary and times how
// long it takes to report no lag with an equal behaviour digest, then how
// long it needs per record for a further batch of single-update records.
func replicaCatchup(r *report, sv *service, extra []core.BatchOp) error {
	rep := server.New(server.WithReplicaOf(sv.addr))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	done := make(chan struct{})
	t0 := time.Now()
	go func() {
		defer close(done)
		_ = rep.Serve(l) // returns when Close is called
	}()
	defer func() {
		rep.Close()
		<-done
	}()
	c, err := client.Dial(l.Addr().String())
	if err != nil {
		return err
	}
	defer c.Close()
	caughtUp := func() bool {
		deadline := time.Now().Add(drainTimeout)
		for time.Now().Before(deadline) {
			rules, err1 := c.StatUint("rules")
			lag, err2 := c.StatUint("lag")
			if err1 == nil && err2 == nil && lag == 0 && int(rules) == sv.srv.Network().NumRules() {
				return true
			}
			time.Sleep(500 * time.Microsecond)
		}
		return false
	}
	r.attempt(1)
	if !caughtUp() || rep.Network().BehaviourDigest() != sv.srv.Network().BehaviourDigest() {
		r.fail(1, "replica did not catch up with an equal digest within %v", drainTimeout)
		return nil
	}
	r.layer("replica.catchup_s", time.Since(t0).Seconds(), "s")

	bc, err := dialBinary(sv.addr)
	if err != nil {
		return err
	}
	defer bc.c.Close()
	frames := encodeFrames(chunk(extra, 1))
	log := &ackLog{at: make([]time.Time, len(frames))}
	t0 = time.Now()
	for i := range frames {
		if _, err := bc.c.Write(frames[i].bytes); err != nil {
			return err
		}
	}
	bc.readAcks(len(frames)-1, log, nil)
	r.attempt(1)
	if !caughtUp() || rep.Network().BehaviourDigest() != sv.srv.Network().BehaviourDigest() {
		r.fail(1, "replica did not follow %d further records", len(frames))
		return nil
	}
	r.layer("replica.apply_us_per_rec", float64(time.Since(t0).Microseconds())/float64(len(frames)), "us")
	return nil
}

// idleSync times a sync barrier on an idle server: the transport floor
// under every acknowledged update.
func idleSync(sv *service) (float64, error) {
	c, err := client.Dial(sv.addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	bc, err := c.Binary()
	if err != nil {
		return 0, err
	}
	var rtt samples
	for i := 0; i < 500; i++ {
		t0 := time.Now()
		if _, err := bc.Sync(); err != nil {
			return 0, err
		}
		rtt = append(rtt, float64(time.Since(t0)))
	}
	return rtt.dist(tailP, 1e3).P50, nil
}

// traceService is the traced half of a service workload, called once the
// phases have run on a server booted with metrics and "trace on".
func traceService(r *report, w *workload, sv *service, dir string, in *serviceInputs, sent int,
	before, after serverCounters, ringDepth samples, seed int64) {
	serverBudget(r, before, after)
	if len(ringDepth) > 0 {
		r.layer("ingest.ring_depth_p99", ringDepth.dist(0.99, 1).Tail, "count")
	}
	if v, err := idleSync(sv); err == nil {
		r.layer("server.idle_sync_us_p50", v, "us")
	} else {
		r.note("idle sync: %v", err)
	}

	var changes [][]core.BatchOp
	for i, c := range in.paced {
		if !in.isProbe[i] {
			changes = append(changes, c)
		}
	}
	pre := [][]core.BatchOp{in.p.load, flatten(changes), in.write}
	ops := in.burst[:min(sent, engineOps)]
	probe := fmt.Sprintf("reach %s %s", in.p.g.NodeName(in.p.probeA), in.p.g.NodeName(in.p.probeB))
	specs := append(in.specs[:len(in.specs):len(in.specs)], probe)
	jdir := ""
	if w.journal {
		jdir = dir
	}
	t := newTracer()
	err := enginePass(r, t, in.p.g, in.queries, pre, ops)
	if err == nil {
		err = framePass(r, t, in.p.g, specs, jdir, in.p.load, changes)
	}
	if err == nil {
		err = t.write(r.workload, seed)
	}
	if err != nil {
		r.fail(1, "layer budget: %v", err)
	}
	if upd := r.e2e["update_us_p50"].Value; upd > 0 {
		r.info["monitor_share_of_update"] = r.layers["monitor.apply_ns_per_update"].Value / (upd * 1e3)
	}
	if ws, rs := r.layers["check.whatif_ns_per_q"].Value, r.layers["check.reach_ns_per_q"].Value; r.whatifP50+r.reachP50 > 0 {
		r.layer("server.read_lockwait_share", 1-(ws+rs)/((r.whatifP50+r.reachP50)*1e3), "ratio")
	}
	if v, err := clientSendCost(ops); err == nil {
		r.layer("client.send_ns_per_op", v, "ns")
	} else {
		r.note("client send: %v", err)
	}

	// The socket-less ingest path in three configurations: bare, as the
	// workload runs it, and with metrics and tracing on top.
	// (bootService loads the plane itself; the pre-roll is what follows it.)
	bare, err1 := ingestCost(w, in.p, in.specs, dir, false, false, pre[1:], ops)
	asRun, err2 := bare, err1
	if w.journal {
		asRun, err2 = ingestCost(w, in.p, in.specs, dir, true, false, pre[1:], ops)
	}
	traced, err3 := ingestCost(w, in.p, in.specs, dir, w.journal, true, pre[1:], ops)
	if err := firstErr(err1, err2, err3); err != nil {
		r.note("ingest cost: %v", err)
	} else {
		r.layer("server.ingest_ns_per_op", asRun, "ns")
		if w.journal {
			r.layer("journal.overhead_ratio", asRun/bare-1, "ratio")
		}
		r.layer("trace.overhead_ratio", traced/asRun-1, "ratio")
	}

	if w.journal {
		extra := []core.BatchOp{}
		for i := 0; i < 1000; i++ {
			id := in.probeID + core.RuleID(2+i)
			extra = append(extra, core.InsertOp(in.p.probeRule(id)), core.RemoveOp(id))
		}
		if err := replicaCatchup(r, sv, extra); err != nil {
			r.note("replica: %v", err)
		}
	}
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
