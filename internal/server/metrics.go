package server

import (
	"sort"

	"deltanet/internal/metrics"
)

// Pipeline stage labels for the dnserve_update_stage_seconds histogram
// family, in pipeline order.
const (
	stageParse   = "parse"
	stageLock    = "lockwait"
	stageApply   = "apply"
	stageDirty   = "dirtymark"
	stageEval    = "evalfanout"
	stagePublish = "publish"
)

// serverMetrics holds the hot-path metric handles; everything else is
// registered as scrape-time funcs over the existing counters.
type serverMetrics struct {
	commands  *metrics.CounterVec
	stages    *metrics.HistogramVec
	updateDur *metrics.Histogram
}

// enableMetrics registers the server's full metric surface — engine
// sizes, every monitor Stats counter, connection/transport counters,
// the per-stage update-pipeline histograms, and (when configured) the
// journal and replica-lag gauges — with reg, and starts feeding the
// histograms. Applied by WithMetrics, after every other option, so the
// conditional series reflect the final configuration; the admin
// endpoint (AdminHandler) renders reg at /metrics.
func (s *Server) enableMetrics(reg *metrics.Registry) {
	m := &serverMetrics{
		commands:  reg.CounterVec("dnserve_commands_total", "Protocol commands handled, by verb.", "verb"),
		stages:    reg.HistogramVec("dnserve_update_stage_seconds", "Update pipeline stage latency: parse, lockwait, apply, dirtymark, evalfanout, publish.", "stage"),
		updateDur: reg.Histogram("dnserve_update_seconds", "End-to-end update pipeline latency (sum of traced stages)."),
	}
	// Pre-create the stage series so the full pipeline is visible on
	// /metrics from the first scrape, updates or not.
	for _, st := range []string{stageParse, stageLock, stageApply, stageDirty, stageEval, stagePublish} {
		m.stages.With(st)
	}

	// Engine sizes. The funcs run at scrape time from the admin
	// goroutine; engineSizes takes the engine read lock once.
	reg.GaugeFunc("dn_rules", "Rules currently installed in the data plane.", func() float64 {
		rules, _, _, _ := s.engineSizes()
		return float64(rules)
	})
	reg.GaugeFunc("dn_atoms", "Atoms (disjoint address ranges) currently live.", func() float64 {
		_, atoms, _, _ := s.engineSizes()
		return float64(atoms)
	})
	reg.GaugeFunc("dn_links", "Links in the topology.", func() float64 {
		_, _, links, _ := s.engineSizes()
		return float64(links)
	})
	reg.GaugeFunc("dn_nodes", "Nodes in the topology.", func() float64 {
		_, _, _, nodes := s.engineSizes()
		return float64(nodes)
	})

	// Monitor counters, read from the source of truth at scrape time.
	reg.GaugeFunc("dn_monitor_registered", "Standing invariants currently registered.", func() float64 {
		return float64(s.mon.NumRegistered())
	})
	reg.GaugeFunc("dn_monitor_subgoals", "Live subgoals: one shared fixpoint per (source, avoided node) pair the registered invariants read.", func() float64 {
		return float64(s.mon.Stats().Subgoals)
	})
	reg.CounterFunc("dn_monitor_updates_total", "Deltas consumed by the monitor.", func() float64 {
		return float64(s.mon.Stats().Updates)
	})
	reg.CounterFunc("dn_monitor_evaluations_total", "Fixpoint (subgoal or global invariant) re-evaluations triggered by deltas.", func() float64 {
		return float64(s.mon.Stats().Evaluations)
	})
	reg.CounterFunc("dn_monitor_skips_total", "Fixpoints (subgoals or global invariants) spared by the dependency index.", func() float64 {
		return float64(s.mon.Stats().Skips)
	})
	reg.CounterFunc("dn_monitor_range_skips_total", "Skipped subgoals that link granularity would have evaluated (atom-range sketch win).", func() float64 {
		return float64(s.mon.Stats().RangeSkips)
	})
	reg.CounterFunc("dn_monitor_events_total", "Verdict transitions emitted.", func() float64 {
		return float64(s.mon.Stats().Events)
	})
	reg.CounterFunc("dn_monitor_loopfree_rescan_atoms_total", "Atoms re-walked by LoopFree's batch-aware violated-state clearing (vs a full scan per update).", func() float64 {
		return float64(s.mon.Stats().LoopRescanAtoms)
	})
	reg.GaugeFunc("dn_monitor_backlog_events", "Events currently retained in the replay backlog.", func() float64 {
		return float64(s.mon.BacklogLen())
	})
	reg.GaugeFunc("dn_monitor_index_bits", "Dependency-index population: (link, subgoal) dependency bits held.", func() float64 {
		return float64(s.mon.IndexBits()) // the scrape's one index walk
	})

	// Connections and transport.
	reg.GaugeFunc("dnserve_connections_active", "Currently open client connections.", func() float64 {
		s.connMu.Lock()
		defer s.connMu.Unlock()
		return float64(len(s.conns))
	})
	reg.CounterFunc("dnserve_connections_total", "Client connections accepted.", func() float64 {
		return float64(s.connsTotal.Load())
	})
	reg.GaugeFunc("dnserve_watch_sessions", "Live watch event subscriptions.", func() float64 {
		return float64(s.mon.NumSubscribers())
	})
	reg.CounterFunc("dnserve_read_bytes_total", "Bytes read from clients.", func() float64 {
		return float64(s.bytesIn.Load())
	})
	reg.CounterFunc("dnserve_written_bytes_total", "Bytes written to clients.", func() float64 {
		return float64(s.bytesOut.Load())
	})
	reg.CounterFunc("dnserve_scanner_errors_total", "Connections torn down by scanner errors (over-long lines, read failures).", func() float64 {
		return float64(s.scanErrs.Load())
	})
	reg.CounterFunc("dnserve_slow_updates_total", "Updates exceeding the -slow-update threshold.", func() float64 {
		return float64(s.tr.slowCount.Load())
	})

	// The writer's ring (ingest.go); the depth gauge draining to zero is
	// the smoke test's quiesce check.
	reg.GaugeFunc("dn_ingest_ring_depth", "Entries queued in the ingest ring awaiting the writer.", func() float64 {
		return float64(s.ing.ring.Depth())
	})
	reg.CounterFunc("dn_ingest_frames_total", "Binary protocol frames decoded.", func() float64 {
		return float64(s.ing.frames.Load())
	})
	reg.CounterFunc("dn_ingest_ops_total", "Ops accepted into the ingest ring.", func() float64 {
		return float64(s.ing.ops.Load())
	})
	reg.CounterFunc("dn_ingest_busy_total", "Busy frames sent to binary clients (ring-full backpressure events).", func() float64 {
		return float64(s.ing.busy.Load())
	})
	reg.CounterFunc("dn_ingest_batches_total", "Coalesced batches applied by the ingest consumer.", func() float64 {
		return float64(s.ing.batches.Load())
	})
	reg.CounterFunc("dn_ingest_adaptive_flushes_total", "Batches cut early because the next op's dirty-invariant set was disjoint.", func() float64 {
		return float64(s.ing.adaptive.Load())
	})
	reg.CounterFunc("dn_ingest_rejected_ops_total", "Ingested ops dropped at apply (bad ids, duplicates).", func() float64 {
		return float64(s.ing.rejected.Load())
	})

	// Replication surface: journal position/errors on a journaling
	// primary, lag gauges on a replica.
	if s.jrnl != nil {
		reg.GaugeFunc("dn_journal_end_offset", "Logical end offset of the update journal.", func() float64 {
			return float64(s.jrnl.End())
		})
		reg.CounterFunc("dn_journal_append_errors_total", "Journal appends that failed (updates applied but not journaled).", func() float64 {
			return float64(s.jrnlErrs.Load())
		})
	}
	if s.replicaOf != "" {
		reg.GaugeFunc("dn_replica_lag_bytes", "Journal bytes the replica has not yet applied (primary end - applied cursor).", func() float64 {
			return float64(s.replicaLagBytes())
		})
		reg.GaugeFunc("dn_replica_lag_seconds", "Age of the newest applied journal record when behind (0 when caught up).", func() float64 {
			return s.replicaLagSeconds()
		})
		reg.CounterFunc("dn_replica_reanchors_total", "Checkpoint re-anchors forced by journal truncation at the primary.", func() float64 {
			return float64(s.replanchors.Load())
		})
	}

	s.met = m
}

// engineSizes reads the data-plane size gauges under the engine read
// lock (one acquisition per scrape-time func).
func (s *Server) engineSizes() (rules, atoms, links, nodes int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.net.NumRules(), s.net.NumAtoms(), s.graph.NumLinks(), s.graph.NumNodes()
}

// countVerb bumps the per-verb command counter (no-op until
// EnableMetrics). Unknown verbs collapse into one "unknown" series so
// arbitrary client input cannot grow the label space.
func (s *Server) countVerb(verb string) {
	m := s.met
	if m == nil {
		return
	}
	if i := sort.SearchStrings(protocolCommands, verb); i >= len(protocolCommands) || protocolCommands[i] != verb {
		verb = "unknown"
	}
	m.commands.With(verb).Inc()
}

// observeStages feeds one trace record into the stage histograms (no-op
// until EnableMetrics). Monitor-side stages are skipped on records
// without an evaluation pass.
func (s *Server) observeStages(rec updateRecord) {
	m := s.met
	if m == nil {
		return
	}
	m.stages.With(stageParse).ObserveNs(rec.ParseNs)
	m.stages.With(stageLock).ObserveNs(rec.LockNs)
	m.stages.With(stageApply).ObserveNs(rec.ApplyNs)
	if rec.HasEval {
		m.stages.With(stageDirty).ObserveNs(rec.DirtyNs)
		m.stages.With(stageEval).ObserveNs(rec.EvalNs)
		m.stages.With(stagePublish).ObserveNs(rec.PublishNs)
	}
	m.updateDur.ObserveNs(rec.TotalNs)
}
