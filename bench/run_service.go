package main

// run_service.go runs the phases of a service workload against an in-process
// server over loopback TCP.

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"time"

	"deltanet/internal/binproto"
	"deltanet/internal/check"
	"deltanet/internal/core"
	"deltanet/internal/metrics"
)

// heapAlloc returns the live heap after a collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// serviceInputs is everything a service run generates from the seed.
type serviceInputs struct {
	p       *plane
	specs   []string
	queries []query

	paced    [][]core.BatchOp // one chunk per frame, probe toggles merged in
	pacedDue []time.Duration
	isProbe  []bool
	write    []core.BatchOp // beside the reads of phase query
	burst    []core.BatchOp
	sentinel core.BatchOp // one last probe toggle that ends the event stream

	probeID core.RuleID
	hash    string
}

// generateService builds the streams that follow the plane.
func generateService(w *workload, p *plane, seed int64, pacedDur, queryDur, burstDur time.Duration) *serviceInputs {
	in := &serviceInputs{p: p, specs: p.batterySpecs(w.battery, seed), queries: p.queries(seed)}
	sh := newShadow(p.g)
	sh.apply(p.load)
	rng := rand.New(rand.NewSource(seed + seedFlapOrder))

	// Phase lengths fix the open-loop counts, so the same seed and --seconds
	// give the same bytes.
	var changes [][]core.BatchOp
	// At least one flap each, however short the phases: every phase waits
	// for the acknowledgement of its last frame.
	for want := max(1, int(w.pacedRate*pacedDur.Seconds())); len(changes) < want; {
		changes = append(changes, sh.flaps(1, p.switches, rng)...)
	}
	in.write = flatten(sh.flaps(max(1, int(w.writeRate*queryDur.Seconds())), p.switches, rng))
	in.burst = flatten(sh.flaps(max(1, int(float64(w.burstCap)*burstDur.Seconds())), p.switches, rng))
	in.probeID = sh.nextID

	// Merge the probe toggles into the paced schedule by due time.
	gap := time.Duration(float64(time.Second) / w.pacedRate)
	toggles := int(pacedDur / w.toggleEvery)
	present := false
	toggle := func() core.BatchOp {
		present = !present
		if present {
			return core.InsertOp(p.probeRule(in.probeID))
		}
		return core.RemoveOp(in.probeID)
	}
	ti := 0
	nextToggle := func() time.Duration { return w.toggleEvery/2 + time.Duration(ti)*w.toggleEvery }
	for i := range changes {
		due := time.Duration(i) * gap
		for ti < toggles && nextToggle() <= due {
			in.paced = append(in.paced, []core.BatchOp{toggle()})
			in.pacedDue = append(in.pacedDue, nextToggle())
			in.isProbe = append(in.isProbe, true)
			ti++
		}
		in.paced = append(in.paced, changes[i])
		in.pacedDue = append(in.pacedDue, due)
		in.isProbe = append(in.isProbe, false)
	}
	in.sentinel = toggle()

	ih := newInputHash()
	ih.ops(p.load)
	for _, c := range in.paced {
		ih.ops(c)
	}
	ih.ops(in.write)
	ih.ops(in.burst)
	ih.strings(in.specs)
	for _, q := range in.queries {
		ih.strings([]string{q.line()})
	}
	in.hash = ih.sum()
	return in
}

// directReply computes what the server must answer to q from the engine
// itself.
func directReply(n *core.Network, q query) string {
	if q.whatif {
		sub := check.AffectedByLinkFailure(n, q.link)
		return fmt.Sprintf("ok whatif atoms=%d edges=%d", sub.Affected.Len(), sub.NumEdges())
	}
	return fmt.Sprintf("ok reach %d", check.Reachable(n, q.a, q.b).Len())
}

// setupOnce generates the plane and boots a service on it, returning how
// long that took and how much live heap the service added.
func setupOnce(w *workload, o *options, dir string, reg *metrics.Registry) (*plane, *service, time.Duration, uint64, error) {
	runtime.GC() // the previous repetition's server must not be collected on this one's clock
	t0 := time.Now()
	p, err := w.plane(o.seed, o.quick)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	took := time.Since(t0)
	// The clock stops while the heap is measured: the generated inputs are
	// live on both sides, so the growth is the service's own state.
	base := heapAlloc()
	t0 = time.Now()
	sv, err := bootService(w, p, p.batterySpecs(w.battery, o.seed), dir, reg)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	took += time.Since(t0)
	return p, sv, took, heapAlloc() - base, nil
}

func runService(w *workload, o *options) (*report, error) {
	r := newReport(w, o)
	dir, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	pacedDur, queryDur, burstDur := o.phases(w)

	// Phase setup.
	var reg *metrics.Registry
	if o.trace {
		reg = metrics.NewRegistry()
	}
	var p *plane
	var sv *service
	var setups []float64
	var mem uint64
	for i, reps := 0, setupReps; i < reps; i++ {
		if sv != nil {
			sv.close()
			os.RemoveAll(sv.jpath) // a no-op for the empty path of an unjournalled service
		}
		var took time.Duration
		var metricsOn *metrics.Registry // only the repetition the phases run on is scraped
		if i == reps-1 {
			metricsOn = reg
		}
		if p, sv, took, mem, err = setupOnce(w, o, dir, metricsOn); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, took.Seconds())
		if i == 0 {
			reps = setupRepsFor(took, o.quick)
		}
	}
	defer func() { sv.close() }()
	r.set("setup_s", median(setups), "s")
	r.info["setup_reps_s"] = setups
	r.set("mem_mb", float64(mem)/1e6, "MB")
	r.info["rules"] = sv.srv.Network().NumRules()
	r.info["atoms"] = sv.srv.Network().NumAtoms()
	r.info["invariants"] = sv.invariants
	r.layer("monitor.register_us_per_inv", float64(sv.registerNs)/1e3/float64(sv.invariants), "us")

	r.lap("setup")
	in := generateService(w, p, o.seed, pacedDur, queryDur, burstDur)
	r.info["input_sha256"] = in.hash

	// One quiescent pass of every query against the direct check call.
	for _, q := range in.queries {
		got, err := sv.ctrl.Do(q.line())
		r.attempt(1)
		if want := directReply(sv.srv.Network(), q); err != nil || got != want {
			r.fail(1, "query %q: got %q (%v), want %q", q.line(), got, err, want)
		}
	}

	r.lap("generate+verify")
	if o.trace {
		if _, err := sv.ctrl.Do("trace on"); err != nil {
			return nil, err
		}
	}
	wt, err := startWatcher(sv.addr, sv.probeID, sv.invariants)
	if err != nil {
		return nil, fmt.Errorf("watch: %w", err)
	}
	defer wt.close()
	sampler := startRingSampler(sv, o.trace)
	defer sampler.stop()
	var before serverCounters
	if o.trace {
		before = snapshotCounters(sv, reg)
	}

	if err := phasePaced(r, w, sv, wt, in); err != nil {
		return nil, fmt.Errorf("paced: %w", err)
	}
	r.lap("paced")
	if err := phaseQuery(r, w, sv, in, queryDur); err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	r.lap("query")
	sent, err := phaseBurst(r, sv, wt, in, burstDur)
	if err != nil {
		return nil, fmt.Errorf("burst: %w", err)
	}
	sampler.stop()
	r.lap("burst")

	// Output checks: the server, a sequential reference engine and (below)
	// the recovered server must agree; the watcher's folded stream must
	// equal the monitor's snapshot.
	want, err := oracleDigest(p.g, p.load, flatten(in.paced), in.write, in.burst[:sent], []core.BatchOp{in.sentinel})
	r.attempt(2)
	got := sv.srv.Network().BehaviourDigest()
	if err != nil || got != want {
		r.fail(1, "final digest %x, sequential reference %x (%v)", got, want, err)
	}
	if bad := wt.mismatches(sv); bad != 0 {
		r.fail(1, "watcher's folded event stream disagrees with the monitor on %d invariants", bad)
	}
	r.lap("oracle")
	if o.trace {
		traceService(r, w, sv, dir, in, sent, before, snapshotCounters(sv, reg), sampler.depth, o.seed)
		r.lap("layers")
	}

	// Phase recover.
	state, jpath := sv.checkpoint, sv.jpath
	if !w.journal {
		var buf bytes.Buffer
		if err := sv.srv.SaveState(&buf); err != nil {
			return nil, fmt.Errorf("save state: %w", err)
		}
		state = buf.Bytes()
	}
	wt.close()
	sv.close()
	runtime.GC()
	took, replay, recs, err := recoverService(state, jpath, got)
	r.attempt(1)
	if err != nil {
		r.fail(1, "recover: %v", err)
	}
	r.lap("recover")
	r.set("recover_s", took.Seconds(), "s")
	r.info["recover_journal_records"] = recs
	if recs > 0 {
		r.layer("journal.replay_ns_per_rec", float64(replay.Nanoseconds())/float64(recs), "ns")
	}
	return r, nil
}

// phasePaced is the open loop: one route change (a prefix flap's rule
// operations) and one sync per frame at the workload's fixed rate, a probe
// toggle every toggleEvery. Update latency runs from the instant a frame was
// due to its "ok sync"; alarm latency from a toggle frame's due time to the
// watcher reading the matching event.
func phasePaced(r *report, w *workload, sv *service, wt *watcher, in *serviceInputs) error {
	frames := encodeFrames(in.paced)
	for i := range frames {
		frames[i].due = in.pacedDue[i]
	}
	bc, err := dialBinary(sv.addr)
	if err != nil {
		return err
	}
	defer bc.c.Close()
	log := &ackLog{at: make([]time.Time, len(frames))}
	late := make(samples, 0, len(frames))
	eventsBefore := wt.probeEvents()
	passesBefore := sv.srv.Monitor().Stats().Updates
	readerDone := make(chan struct{})
	runtime.GC() // start the clock on a quiet heap
	start := time.Now().Add(5 * time.Millisecond)
	go func() {
		defer close(readerDone)
		bc.readAcks(len(frames)-1, log, nil)
	}()
	late, err = openLoop(bc.c, frames, start, late)
	if err != nil {
		return err
	}
	if !waitOrClose(readerDone, bc.c) {
		r.note("paced: acknowledgements still missing after %v", drainTimeout)
	}
	toggles := 0
	for i := range frames {
		if in.isProbe[i] {
			toggles++
		}
	}
	wt.awaitProbeEvents(eventsBefore+toggles, drainTimeout)

	var upd, alarm samples
	wt.mu.Lock()
	probeAt := wt.probeAt[eventsBefore:]
	wt.mu.Unlock()
	k := 0
	for i := range frames {
		due := start.Add(frames[i].due)
		r.attempt(frames[i].ops)
		if in.isProbe[i] {
			if k < len(probeAt) {
				alarm = append(alarm, float64(probeAt[k].Sub(due)))
			} else {
				r.fail(1, "")
			}
			k++
			continue
		}
		if log.at[i].IsZero() {
			r.fail(frames[i].ops, "")
			continue
		}
		upd = append(upd, float64(log.at[i].Sub(due)))
	}
	r.fail(log.errs, "paced: %d frames refused", log.errs)
	if wt.probeBad > 0 {
		r.fail(wt.probeBad, "paced: %d probe events out of order", wt.probeBad)
	}
	ud, ad, ld := upd.dist(tailP, 1e3), alarm.dist(tailP, 1e6), late.dist(0.90, 1e3)
	r.set("update_us_p50", ud.P50, "us")
	r.set("update_us_p95", ud.Tail, "us")
	r.set("alarm_ms_p50", ad.P50, "ms")
	r.set("alarm_ms_p95", ad.Tail, "ms")
	r.info["update_samples"], r.info["alarm_samples"] = ud.N, ad.N
	r.info["paced_busy"] = log.busy
	r.info["paced_passes_per_frame"] = float64(sv.srv.Monitor().Stats().Updates-passesBefore) / float64(len(frames))
	r.info["gen_late_us_p50"], r.info["gen_late_us_p90"] = ld.P50, ld.Tail
	r.info["gen_late_us_p99"] = late.dist(0.99, 1e3).Tail
	r.support("update_us_p95", ud)
	r.support("alarm_ms_p95", ad)
	// A generator that ran late did not offer the load it claims: the run
	// says nothing about the server and is reported invalid, not slow. The
	// rule looks at p90, not p99: a server that cannot keep up delays every
	// frame, while one stall of the machine delays the few frames behind it,
	// which the latencies (counted from due times) already show.
	if gapUs := 1e6 / w.pacedRate; ld.Tail > gapUs/2 {
		r.invalid("paced: generator lateness p90 %.0fus exceeds half the %.0fus inter-arrival gap", ld.Tail, gapUs)
	}
	r.busy += log.busy
	return nil
}

// waitOrClose waits for a reader goroutine, closing its connection to
// unblock it when the drain timeout passes first.
func waitOrClose(done <-chan struct{}, c net.Conn) bool {
	select {
	case <-done:
		return true
	case <-time.After(drainTimeout):
		c.Close()
		<-done
		return false
	}
}

// phaseQuery is the read mix: one line-protocol connection issues whatif and
// reach alternately, closed loop, while one binary connection applies an
// open-loop prefix-flap stream. Read latency runs from just before the
// request is written to its reply line read.
func phaseQuery(r *report, w *workload, sv *service, in *serviceInputs, dur time.Duration) error {
	frames := encodeFrames(chunk(in.write, queryFrame))
	gap := time.Duration(float64(time.Second) * queryFrame / w.writeRate)
	for i := range frames {
		frames[i].due = time.Duration(i) * gap
	}
	bc, err := dialBinary(sv.addr)
	if err != nil {
		return err
	}
	defer bc.c.Close()
	qc, err := net.Dial("tcp", sv.addr)
	if err != nil {
		return err
	}
	defer qc.Close()
	qr := bufio.NewReaderSize(qc, 4096)
	lines := make([][]byte, len(in.queries))
	for i, q := range in.queries {
		lines[i] = []byte(q.line() + "\n")
	}
	// Generous capacity: a closed loop cannot outrun one reply per 10us.
	whatif := make(samples, 0, int(dur.Seconds()*50_000))
	reach := make(samples, 0, int(dur.Seconds()*50_000))

	log := &ackLog{at: make([]time.Time, len(frames))}
	late := make(samples, 0, len(frames))
	readerDone := make(chan struct{})
	runtime.GC()
	start := time.Now()
	deadline := start.Add(dur)
	go func() {
		defer close(readerDone)
		bc.readAcks(len(frames)-1, log, nil)
	}()
	// One goroutine offers both loads: between two reads it writes every
	// frame that has come due. A second goroutine waiting on a timer would
	// be starved by the read loop's own network wake-ups.
	bad, next := 0, 0
	for i := 0; ; i++ {
		now := time.Now()
		for next < len(frames) && (!now.Before(start.Add(frames[next].due)) || !now.Before(deadline)) {
			late = append(late, float64(now.Sub(start.Add(frames[next].due))))
			if _, err := bc.c.Write(frames[next].bytes); err != nil {
				return err
			}
			next++
		}
		if !now.Before(deadline) {
			break
		}
		q := i % len(lines)
		if _, err := qc.Write(lines[q]); err != nil {
			return err
		}
		reply, err := qr.ReadSlice('\n')
		d := float64(time.Since(now))
		if err != nil {
			return err
		}
		if !bytes.HasPrefix(reply, []byte("ok ")) {
			bad++
		}
		if in.queries[q].whatif {
			whatif = append(whatif, d)
		} else {
			reach = append(reach, d)
		}
	}
	elapsed := time.Since(start)
	if !waitOrClose(readerDone, bc.c) {
		r.note("query: write acknowledgements still missing after %v", drainTimeout)
	}
	r.attempt(len(whatif) + len(reach))
	r.fail(bad, "query: %d error replies", bad)
	for i := range frames {
		r.attempt(frames[i].ops)
		if log.at[i].IsZero() {
			r.fail(frames[i].ops, "")
		}
	}
	r.fail(log.errs, "query: %d write frames refused", log.errs)
	r.busy += log.busy
	wd, rd := whatif.dist(tailP, 1e3), reach.dist(tailP, 1e3)
	r.set("whatif_us_p50", wd.P50, "us")
	r.set("whatif_us_p95", wd.Tail, "us")
	r.set("reach_us_p50", rd.P50, "us")
	r.set("reach_us_p95", rd.Tail, "us")
	r.set("queries_per_s", float64(len(whatif)+len(reach))/elapsed.Seconds(), "1/s")
	r.info["whatif_samples"], r.info["reach_samples"] = wd.N, rd.N
	r.info["query_write_late_us_p99"] = late.dist(0.99, 1e3).Tail
	r.support("whatif_us_p95", wd)
	r.support("reach_us_p95", rd)
	r.whatifP50, r.reachP50 = wd.P50, rd.P50
	return nil
}

// phaseBurst is the closed loop: 64-op frames of prefix flaps, at most four
// unacknowledged syncs. Throughput is updates acknowledged over the time to
// the last acknowledgement. It ends by toggling the probe once more and
// waiting for that event, which delimits the watcher's stream.
func phaseBurst(r *report, sv *service, wt *watcher, in *serviceInputs, dur time.Duration) (sentOps int, err error) {
	frames := encodeFrames(chunk(in.burst, burstFrame))
	bc, err := dialBinary(sv.addr)
	if err != nil {
		return 0, err
	}
	defer bc.c.Close()
	log := &ackLog{at: make([]time.Time, len(frames)+1)}
	acked := make(chan struct{}, burstWindow)
	readerDone := make(chan struct{})
	before := sv.srv.Monitor().Stats()
	runtime.GC()
	start := time.Now()
	go func() {
		defer close(readerDone)
		bc.readAcks(len(frames), log, acked)
	}()
	sent, err := closedLoop(bc.c, frames, burstWindow, start.Add(dur), acked)
	if err != nil {
		return 0, err
	}
	if !waitOrClose(readerDone, bc.c) {
		r.note("burst: acknowledgements still missing after %v", drainTimeout)
	}
	// Running out of frames before the deadline only shortens the window the
	// closed loop is measured over.
	r.info["burst_frames_exhausted"] = sent == len(frames)
	ackedOps := 0
	var last time.Time
	for i := 0; i < sent; i++ {
		r.attempt(frames[i].ops)
		sentOps += frames[i].ops
		if log.at[i].IsZero() {
			r.fail(frames[i].ops, "")
			continue
		}
		ackedOps += frames[i].ops
		last = log.at[i]
	}
	r.fail(log.errs, "burst: %d frames refused", log.errs)
	if ackedOps > 0 {
		r.set("updates_per_s", float64(ackedOps)/last.Sub(start).Seconds(), "1/s")
	}
	after := sv.srv.Monitor().Stats()
	r.info["burst_updates"] = ackedOps
	r.info["burst_busy"] = log.busy
	r.busy += log.busy
	r.layer("ingest.busy_total", float64(r.busy), "count")
	if passes := after.Updates - before.Updates; passes > 0 {
		r.layer("ingest.ops_per_apply", float64(ackedOps)/float64(passes), "count")
	}

	// The sentinel toggle: its event is the last line the watcher must see.
	n := wt.probeEvents()
	stop := len(frames) + 1
	if _, err := bc.c.Write(binproto.AppendSync(binproto.AppendOps(nil, []core.BatchOp{in.sentinel}), uint64(stop))); err != nil {
		return sentOps, err
	}
	sdone := make(chan struct{})
	go func() {
		defer close(sdone)
		bc.readAcks(stop, &ackLog{}, nil)
	}()
	waitOrClose(sdone, bc.c)
	r.attempt(1)
	if !wt.awaitProbeEvents(n+1, drainTimeout) {
		r.fail(1, "burst: sentinel probe event never reached the watcher")
	}
	return sentOps, nil
}
