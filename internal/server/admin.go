package server

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"deltanet/internal/metrics"
)

// AdminHandler returns the HTTP admin surface dnserve mounts behind
// -admin: Prometheus metrics, liveness, a human-readable status page,
// and the stdlib pprof profilers. The handlers are mounted explicitly
// (not via http.DefaultServeMux) so importing this package never leaks
// profiling endpoints into an unrelated mux.
//
//	/metrics        reg rendered as Prometheus text exposition format
//	/healthz        "ok" while serving, 503 once Close has begun
//	/statusz        engine, monitor, trace, and connection summary
//	/debug/pprof/…  net/http/pprof (profile, heap, trace, …)
func (s *Server) AdminHandler(reg *metrics.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WriteText(w); err != nil {
			// Headers are gone; all we can do is abort the body.
			return
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		select {
		case <-s.closed:
			http.Error(w, "closing", http.StatusServiceUnavailable)
		default:
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ok")
		}
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.writeStatusz(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeStatusz renders the human-readable status page.
func (s *Server) writeStatusz(w http.ResponseWriter) {
	s.mu.RLock()
	rules, atoms := s.net.NumRules(), s.net.NumAtoms()
	links, nodes := s.graph.NumLinks(), s.graph.NumNodes()
	trOn, trN := !s.tr.off, s.tr.n
	s.mu.RUnlock()
	st := s.mon.Stats()
	s.connMu.Lock()
	conns := len(s.conns)
	s.connMu.Unlock()

	fmt.Fprintf(w, "deltanet dnserve\nuptime: %s\n\n", time.Since(s.started).Round(time.Second))
	fmt.Fprintf(w, "engine: rules=%d atoms=%d links=%d nodes=%d\n", rules, atoms, links, nodes)
	fmt.Fprintf(w, "monitor: registered=%d subgoals=%d updates=%d evaluations=%d skips=%d range_skips=%d events=%d loop_rescan_atoms=%d\n",
		st.Registered, st.Subgoals, st.Updates, st.Evaluations, st.Skips, st.RangeSkips, st.Events, st.LoopRescanAtoms)
	fmt.Fprintf(w, "events: backlog=%d/%d subscribers=%d\n",
		s.mon.BacklogLen(), s.mon.Backlog(), s.mon.NumSubscribers())
	fmt.Fprintf(w, "conns: active=%d total=%d bytes_in=%d bytes_out=%d scanner_errors=%d\n",
		conns, s.connsTotal.Load(), s.bytesIn.Load(), s.bytesOut.Load(), s.scanErrs.Load())

	fmt.Fprintf(w, "trace: on=%t retained=%d/%d slow_threshold=%s slow_updates=%d\n",
		trOn, trN, traceRingCap, time.Duration(s.tr.slowNs), s.tr.slowCount.Load())
}
