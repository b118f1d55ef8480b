package main

import (
	"slices"
	"strings"
)

// The benchmark's fixed parameters and metric names. BENCHMARK.json states
// the same lists for the driver; TestContractMatchesBenchmarkJSON keeps the
// two from drifting apart.
const (
	defaultSeed = 1
	holdOutSeed = 20170327 // not used while the benchmark was written
	runSeconds  = 15
)

// endToEndNames are the end-to-end metrics BENCHMARK.json bounds; an
// untraced run's result line carries exactly these.
var endToEndNames = []string{
	"setup_s",
	"mem_mb",
}

// unboundedNames are the end-to-end metrics whose run-to-run spread on the
// box the baseline was taken on is wider than 0.10 on at least one workload.
// They are not given a wider bound: BENCHMARK.json lists them with the
// per-layer metrics, and a traced run's result line carries them (see
// README, "Bounds and steadiness").
var unboundedNames = []string{
	"updates_per_s",
	"update_us_p50",
	"update_us_p95",
	"alarm_ms_p50",
	"alarm_ms_p95",
	"whatif_us_p50",
	"whatif_us_p95",
	"reach_us_p50",
	"reach_us_p95",
	"queries_per_s",
	"recover_s",
}

// measuredNames are all 13 end-to-end metrics: every run measures them on
// every workload and prints them in its detail object.
var measuredNames = append(slices.Clone(endToEndNames), unboundedNames...)

// layerNames are the per-layer metrics proper; the prefix is the package.
// A layer a workload never enters reports 0.
var layerNames = []string{
	"intervalmap.create_ns_per_op",
	"intervalmap.atoms",
	"intervalmap.splits_per_insert",
	"core.insert_ns_per_op",
	"core.remove_ns_per_op",
	"core.self_ns_per_op",
	"core.apply_batch64_ns_per_op",
	"core.delta_bits_per_op",
	"core.bytes_per_rule",
	"check.loops_delta_ns_per_op",
	"check.loops_found",
	"check.whatif_ns_per_q",
	"check.reach_ns_per_q",
	"binproto.encode_ns_per_op",
	"binproto.decode_ns_per_op",
	"binproto.bytes_per_op",
	"ingest.push_pop_ns_per_op",
	"ingest.ring_depth_p99",
	"ingest.busy_total",
	"ingest.ops_per_apply",
	"server.ingest_ns_per_op",
	"server.idle_sync_us_p50",
	"server.stage.parse_ns_per_update",
	"server.stage.lockwait_ns_per_update",
	"server.stage.apply_ns_per_update",
	"server.stage.dirtymark_ns_per_update",
	"server.stage.evalfanout_ns_per_update",
	"server.stage.publish_ns_per_update",
	"server.read_lockwait_share",
	"monitor.apply_ns_per_update",
	"monitor.evals_per_update",
	"monitor.skips_per_update",
	"monitor.range_skips_per_update",
	"monitor.events_total",
	"monitor.eval_yield",
	"monitor.register_us_per_inv",
	"journal.append_ns_per_rec",
	"journal.bytes_per_op",
	"journal.replay_ns_per_rec",
	"journal.overhead_ratio",
	"replica.catchup_s",
	"replica.apply_us_per_rec",
	"client.send_ns_per_op",
	"trace.overhead_ratio",
}

// perLayerNames are what a traced run's result line carries.
var perLayerNames = append(slices.Clone(unboundedNames), layerNames...)

// unitOf derives a metric's unit from its name's suffix convention.
func unitOf(name string) string {
	switch {
	case strings.Contains(name, "_ns_"):
		return "ns"
	case strings.Contains(name, "_us_"):
		return "us"
	case strings.Contains(name, "_ms_"):
		return "ms"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_yield"):
		return "ratio"
	case strings.HasPrefix(name, "journal.bytes"), strings.HasPrefix(name, "binproto.bytes"), strings.HasPrefix(name, "core.bytes"):
		return "B"
	}
	return "count"
}
