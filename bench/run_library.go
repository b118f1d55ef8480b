package main

// run_library.go runs the replay workload: the paper's headline experiment,
// one goroutine driving deltanet.Checker directly.

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"deltanet"
	"deltanet/internal/check"
	"deltanet/internal/core"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
	"deltanet/internal/veriflow"
)

// newChecker returns a Checker over a mirror of g, the way cmd/dnserve's
// feed mirrors a generated topology into a server.
func newChecker(g *netgraph.Graph) *deltanet.Checker {
	c := deltanet.New()
	for v := netgraph.NodeID(0); int(v) < g.NumNodes(); v++ {
		c.AddSwitch(g.NodeName(v))
	}
	for _, l := range g.Links() {
		c.AddLink(l.Src, l.Dst)
	}
	return c
}

const (
	// libraryToggles is how many probe toggles the library's alarm phase
	// times.
	libraryToggles = 20000
	// restoreReps is how many times the library's recover phase restores the
	// high-water snapshot, reporting the median.
	restoreReps = 3
	// verifyEvery thins the quiescent verification of the read mix: on the
	// full-size plane one reply costs milliseconds and is computed twice.
	verifyEvery = 4
)

func runLibrary(w *workload, o *options) (*report, error) {
	r := newReport(w, o)
	pacedDur, queryDur, burstDur := o.phases(w)

	// Phase setup: generate the trace, build the checker, mirror the
	// topology.
	var p *plane
	var c *deltanet.Checker
	var setups []float64
	var base uint64
	for i, reps := 0, setupReps; i < reps; i++ {
		p, c = nil, nil
		runtime.GC() // the previous repetition's plane must not be collected on this one's clock
		t0 := time.Now()
		var err error
		if p, err = w.plane(o.seed, o.quick); err != nil {
			return nil, err
		}
		gen := time.Since(t0)
		base = heapAlloc()
		t0 = time.Now()
		c = newChecker(p.g)
		took := gen + time.Since(t0)
		setups = append(setups, took.Seconds())
		if i == 0 {
			reps = setupRepsFor(took, o.quick)
		}
	}
	r.set("setup_s", median(setups), "s")
	r.info["setup_reps_s"] = setups
	r.lap("setup")
	order := rand.New(rand.NewSource(o.seed + seedRemovalOrder)).Perm(len(p.load))
	ih := newInputHash()
	ih.ops(p.load)
	for _, i := range order {
		ih.ops([]core.BatchOp{core.RemoveOp(p.load[i].Rule.ID)})
	}
	queries := p.queries(o.seed)
	for _, q := range queries {
		ih.strings([]string{q.line()})
	}
	r.info["input_sha256"] = ih.sum()

	// The trace: insert every rule, then remove every rule in seeded random
	// order, timing each call. It repeats on a fresh checker while the
	// phase's share of --seconds lasts; each pass yields one throughput and
	// one pair of percentiles, and the medians over passes are reported.
	budget := pacedDur + burstDur
	lat := make([]uint32, 0, 2*len(p.load))
	var rate, p50, p95 []float64
	var traced time.Duration
	var snapshot []deltanet.Rule
	var highWater uint64
	loops := 0
	for begin := time.Now(); ; {
		if len(rate) > 0 {
			c = newChecker(p.g)
			runtime.GC()
		}
		lat = lat[:0]
		start := time.Now()
		prev := start
		for i := range p.load {
			rep, err := c.InsertRule(p.load[i].Rule)
			now := time.Now()
			lat = append(lat, uint32(now.Sub(prev)))
			prev = now
			if err != nil {
				r.fail(1, "insert %d: %v", i, err)
			}
			loops += len(rep.Loops)
		}
		pass := time.Since(start)
		if len(rate) == 0 {
			// High water: memory, and the state the later phases restore.
			r.set("mem_mb", float64(heapAlloc()-base)/1e6, "MB")
			r.info["rules"], r.info["atoms"] = c.NumRules(), c.NumAtoms()
			highWater = c.BehaviourDigest()
			snapshot = c.Snapshot()
			if o.trace {
				r.layer("core.bytes_per_rule", float64(c.Network().MemoryBytes())/float64(c.NumRules()), "B")
				r.layer("intervalmap.atoms", float64(c.NumAtoms()), "count")
			}
		}
		half := time.Now()
		prev = half
		for _, i := range order {
			rep, err := c.RemoveRule(p.load[i].Rule.ID)
			now := time.Now()
			lat = append(lat, uint32(now.Sub(prev)))
			prev = now
			if err != nil {
				r.fail(1, "remove %d: %v", i, err)
			}
			loops += len(rep.Loops)
		}
		pass += time.Since(half)
		traced += pass
		r.attempt(len(lat))
		if n := c.NumRules(); n != 0 {
			r.fail(n, "trace ended with %d rules live", n)
		}
		rate = append(rate, float64(len(lat))/pass.Seconds())
		slices.Sort(lat)
		p50 = append(p50, float64(lat[len(lat)/2])/1e3)
		p95 = append(p95, float64(lat[int(float64(len(lat))*tailP)])/1e3)
		if perPass := time.Since(begin) / time.Duration(len(rate)); time.Since(begin)+perPass > budget {
			break
		}
	}
	c = nil
	r.lap("trace")
	r.set("updates_per_s", median(rate), "1/s")
	r.set("update_us_p50", median(p50), "us")
	r.set("update_us_p95", median(p95), "us")
	r.info["update_samples"], r.info["passes"], r.info["loops_found"] = len(lat), len(rate), loops
	nsPerOp := float64(traced.Nanoseconds()) / float64(len(lat)*len(rate))
	lat = nil

	// Phase recover: a fresh checker restores the high-water snapshot.
	var recovers []float64
	var c2 *deltanet.Checker
	for i := 0; i < restoreReps; i++ {
		c2 = nil
		runtime.GC()
		t0 := time.Now()
		c2 = newChecker(p.g)
		err := c2.Restore(snapshot)
		digest := c2.BehaviourDigest()
		recovers = append(recovers, time.Since(t0).Seconds())
		r.attempt(1)
		if err != nil || digest != highWater {
			r.fail(1, "restore: digest %x, want %x (%v)", digest, highWater, err)
		}
	}
	r.set("recover_s", median(recovers), "s")
	snapshot = nil
	r.lap("recover")

	// Phase paced, library form: toggle the probe rule; the alarm is the
	// verdict transition the update's own report carries.
	id, _ := c2.Monitor().Register(deltanet.WatchReachable(p.probeA, p.probeB))
	probe := p.probeRule(core.RuleID(len(p.load)) + 1<<20)
	alarm := make(samples, 0, libraryToggles)
	runtime.GC()
	for i := 0; i < libraryToggles; i++ {
		var rep deltanet.Report
		var err error
		t0 := time.Now()
		if i%2 == 0 {
			rep, err = c2.InsertRule(probe)
		} else {
			rep, err = c2.RemoveRule(probe.ID)
		}
		alarm = append(alarm, float64(time.Since(t0)))
		r.attempt(1)
		if err != nil || len(rep.Events) != 1 || rep.Events[0].ID != id ||
			(rep.Events[0].Kind == deltanet.MonitorCleared) != (i%2 == 0) {
			r.fail(1, "probe toggle %d: events %v (%v)", i, rep.Events, err)
		}
	}
	c2.Monitor().Unregister(id)
	ad := alarm.dist(tailP, 1e6)
	r.set("alarm_ms_p50", ad.P50, "ms")
	r.set("alarm_ms_p95", ad.Tail, "ms")
	r.support("alarm_ms_p95", ad)

	// Phase query: the read mix against the high-water plane, closed loop.
	net := c2.Network()
	for i, q := range queries {
		if i/2%verifyEvery != 0 {
			continue
		}
		r.attempt(1)
		if got, want := libraryReply(c2, q), directReply(net, q); got != want {
			r.fail(1, "query %q: got %q, want %q", q.line(), got, want)
		}
	}
	r.lap("alarm+verify")
	var whatif, reach samples
	runtime.GC()
	begin := time.Now()
	for i := 0; time.Since(begin) < queryDur; i++ {
		q := queries[i%len(queries)]
		t0 := time.Now()
		if q.whatif {
			sink = c2.WhatIfLinkFails(q.link).NumEdges()
			whatif = append(whatif, float64(time.Since(t0)))
		} else {
			sink = c2.ReachableAtoms(q.a, q.b).Len()
			reach = append(reach, float64(time.Since(t0)))
		}
	}
	elapsed := time.Since(begin)
	r.attempt(len(whatif) + len(reach))
	wd, rd := whatif.dist(tailP, 1e3), reach.dist(tailP, 1e3)
	r.set("whatif_us_p50", wd.P50, "us")
	r.set("whatif_us_p95", wd.Tail, "us")
	r.set("reach_us_p50", rd.P50, "us")
	r.set("reach_us_p95", rd.Tail, "us")
	r.set("queries_per_s", float64(len(whatif)+len(reach))/elapsed.Seconds(), "1/s")
	r.info["whatif_samples"], r.info["reach_samples"], r.info["alarm_samples"] = wd.N, rd.N, ad.N
	r.support("whatif_us_p95", wd)
	r.support("reach_us_p95", rd)
	c2 = nil
	r.lap("query")

	veriflowSample(r, p, order, o.seed)
	r.lap("veriflow")
	if o.trace {
		traceLibrary(r, p, order, o.seed, nsPerOp)
	}
	return r, nil
}

// sink keeps query results alive so the calls are not optimised away.
var sink int

// libraryReply renders the checker's answer the way the server would.
func libraryReply(c *deltanet.Checker, q query) string {
	if q.whatif {
		sub := c.WhatIfLinkFails(q.link)
		return fmt.Sprintf("ok whatif atoms=%d edges=%d", sub.Affected.Len(), sub.NumEdges())
	}
	return fmt.Sprintf("ok reach %d", c.ReachableAtoms(q.a, q.b).Len())
}

// veriflowSample replays a seeded 1-in-50 sample of the trace's prefixes
// through a fresh checker and the Veriflow-RI baseline and compares loop
// verdicts per operation. Veriflow reports every loop in the equivalence
// classes a rule overlaps, Delta-net only loops the update created, so the
// comparison is: a Delta-net alarm implies a Veriflow alarm, and Veriflow's
// verdict equals a Delta-net scan of the atoms the rule overlaps.
func veriflowSample(r *report, p *plane, order []int, seed int64) {
	rng := rand.New(rand.NewSource(seed + seedVeriflowSample))
	sampled := map[ipnet.Interval]bool{}
	for i := range p.load {
		m := p.load[i].Rule.Match
		if _, seen := sampled[m]; !seen {
			sampled[m] = rng.Intn(50) == 0
		}
	}
	c := newChecker(p.g)
	vf := veriflow.NewEngine(p.g)
	compare := func(what string, i int, rule core.Rule, dnLoops int, vfLoops int) {
		r.attempt(1)
		atoms := deltanet.AtomSet{}
		for _, a := range c.Network().AtomsOverlapping(rule.Match) {
			atoms.Add(int(a))
		}
		scan := len(check.FindLoopsAtoms(c.Network(), &atoms)) > 0
		if (dnLoops > 0 && vfLoops == 0) || scan != (vfLoops > 0) {
			r.fail(1, "%s %d: delta-net update=%d scan=%v, veriflow=%d", what, i, dnLoops, scan, vfLoops)
		}
	}
	n := 0
	for i := range p.load {
		rule := p.load[i].Rule
		if !sampled[rule.Match] {
			continue
		}
		pfx, ok := ipnet.PrefixFromInterval(ipnet.IPv4, rule.Match)
		if !ok {
			r.fail(1, "rule %d does not match a prefix", rule.ID)
			continue
		}
		rep, err1 := c.InsertRule(rule)
		res, err2 := vf.InsertRule(veriflow.Rule{ID: rule.ID, Source: rule.Source, Link: rule.Link, Prefix: pfx, Priority: rule.Priority})
		if err1 != nil || err2 != nil {
			r.fail(1, "sample insert %d: %v / %v", i, err1, err2)
			continue
		}
		compare("insert", i, rule, len(rep.Loops), len(res.Loops))
		n++
	}
	for _, i := range order {
		rule := p.load[i].Rule
		if !sampled[rule.Match] {
			continue
		}
		rep, err1 := c.RemoveRule(rule.ID)
		res, err2 := vf.RemoveRule(rule.ID)
		if err1 != nil || err2 != nil {
			r.fail(1, "sample remove %d: %v / %v", i, err1, err2)
			continue
		}
		compare("remove", i, rule, len(rep.Loops), len(res.Loops))
	}
	r.info["veriflow_sample_ops"] = 2 * n
}
