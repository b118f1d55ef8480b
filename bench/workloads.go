package main

// workloads.go defines the four workloads and the phases every one of them
// runs. A workload is a data plane, a standing-invariant battery and a set
// of rates; the phases are the same everywhere so that every end-to-end
// metric exists on every workload:
//
//	setup   generate the plane, boot, load, register        -> setup_s, mem_mb
//	paced   open loop, one route change per frame, toggles  -> update_us_*, alarm_ms_*
//	query   closed-loop reads beside an open-loop write mix -> whatif_us_*, reach_us_*, queries_per_s
//	burst   closed loop, 64-op frames, window of 4          -> updates_per_s
//	recover restart from the state dump (+ journal)         -> recover_s

import (
	"time"
)

const (
	// A run sets up several times and reports the median; the last set-up is
	// the one the phases run on. setupReps is the least number of set-ups;
	// one that takes tens of milliseconds is repeated until setupSpan is
	// filled, at most setupMaxReps times, so that its median is as steady as
	// a long one's.
	setupReps    = 5
	setupMaxReps = 25
	setupSpan    = time.Second
	// burstFrame and burstWindow shape the closed loop: 64-op frames, at
	// most four unacknowledged syncs.
	burstFrame  = 64
	burstWindow = 4
	// queryFrame is the op count of the write frames sent beside the reads.
	queryFrame = 16
	// drainTimeout bounds every wait for outstanding replies and events;
	// whatever is still missing after it counts as failed.
	drainTimeout = 10 * time.Second
	// tailP is the tail percentile of every latency metric: the highest one
	// every workload's sample count supports (see README, "Percentiles").
	tailP = 0.95
)

// workload is one set of inputs: a plane, a battery, and the rates its open
// loops run at. Rates are constants read off closed-loop capacity at the
// commit that added the benchmark (each below half of it); they are not
// tuned per run.
type workload struct {
	name string

	// library workloads drive deltanet.Checker in one goroutine; the others
	// drive an in-process server over loopback TCP.
	library bool

	plane   func(seed int64, quick bool) (*plane, error)
	journal bool
	battery int

	// shares splits --seconds into the paced, query and burst phases.
	shares [3]float64
	// pacedRate is the open-loop rate of phase paced in route changes per
	// second (one prefix flap and one sync per frame); toggleEvery is the
	// probe period, chosen not to divide the paced gap so that toggles meet
	// the route changes at every phase.
	pacedRate   float64
	toggleEvery time.Duration
	// writeRate is the open-loop update rate beside the reads of phase
	// query (updates/s, queryFrame-op frames).
	writeRate float64
	// burstCap bounds how many updates phase burst pre-encodes per second
	// of its length; it must exceed what the server can absorb.
	burstCap int
}

var workloads = []*workload{
	{
		name:    "replay",
		library: true,
		shares:  [3]float64{0.40, 0.30, 0.30},
		plane: func(seed int64, quick bool) (*plane, error) {
			return libraPlane("inet", pick(quick, 12, 6000), seed)
		},
	},
	{
		name:    "serve_churn",
		journal: true,
		battery: batteryLoopFree,
		plane: func(seed int64, quick bool) (*plane, error) {
			return sdnipPlane(pick(quick, 4, 400), seed)
		},
		shares:    [3]float64{0.40, 0.30, 0.30},
		pacedRate: 2000, toggleEvery: 11 * time.Millisecond, writeRate: 2000, burstCap: 800_000,
	},
	{
		name:    "watch_churn",
		battery: batteryOperator,
		plane: func(seed int64, quick bool) (*plane, error) {
			return sdnipPlane(pick(quick, 2, 25), seed)
		},
		// The tiny plane answers reads in microseconds; the time goes to
		// the paced phase, whose 12 ms monitor passes need it for samples.
		shares:    [3]float64{0.75, 0.08, 0.17},
		pacedRate: 18, toggleEvery: 19 * time.Millisecond, writeRate: 40, burstCap: 40_000,
	},
	{
		name:    "query_mix",
		battery: batteryNone,
		plane: func(seed int64, quick bool) (*plane, error) {
			return libraPlane("rf1755", pick(quick, 12, 3600), seed)
		},
		shares:    [3]float64{0.40, 0.30, 0.30},
		pacedRate: 750, toggleEvery: 11 * time.Millisecond, writeRate: 2000, burstCap: 800_000,
	},
}

// setupRepsFor returns how many times to set up, given how long the first
// set-up took. A smoke-test run keeps to the minimum.
func setupRepsFor(first time.Duration, quick bool) int {
	if quick {
		return setupReps
	}
	return min(max(setupReps, int(setupSpan/max(first, time.Millisecond))), setupMaxReps)
}

func pick(quick bool, small, full int) int {
	if quick {
		return small
	}
	return full
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
