// Command dnserve runs the Delta-net checker as a TCP service (the
// sidecar deployment of the paper's Figure 7): controllers stream rule
// updates as protocol lines and receive per-update verification verdicts.
//
// Usage:
//
//	dnserve [-addr host:port] [-gc] [-trace file]
//	        [-state file] [-checkpoint <interval|Nu>] [-admin host:port]
//	        [-slow-update d] [-journal file] [-journal-sync none|always]
//	        [-replica-of host:port] [-feed spec]
//
// With -trace, the topology and insertions of a trace file (dngen's
// output) are preloaded before serving: the topology through the same
// journaled path as the node and link commands, the insertions through
// the ingest ring in coalesced batches, as -feed replays. See
// internal/server for the protocol (including the B, W, watch since,
// and events since commands).
//
// -state makes the service durable across restarts: if the file exists
// it is loaded before serving (topology, rules, standing invariants —
// all re-evaluated, see server.LoadState — and the event-stream cursor,
// so event numbering continues across the restart), and on shutdown
// (SIGINT/SIGTERM, which also drains live connections) the current
// state is saved back atomically. A watcher that reconnects after the
// restart resumes with "watch since <seq>" against the same invariant
// set.
//
// -checkpoint additionally saves the state file in the background while
// serving, so a crash loses at most one checkpoint window instead of
// everything since boot. The value is either a duration ("30s", "5m")
// for time-triggered saves, or an update count with a "u" suffix
// ("1000u") to checkpoint after that many rule updates. Every save goes
// through the same atomic temp-file-and-rename path as the shutdown
// save, so a crash mid-checkpoint never corrupts the previous good
// state.
//
// -admin serves the observability endpoint on a second address:
// /metrics (Prometheus text exposition), /healthz, /statusz, and
// net/http/pprof under /debug/pprof/. -slow-update logs any update
// whose traced pipeline stages sum past the given duration to stderr
// (see the protocol's trace command for the on-demand ring). See the
// README's Observability section.
//
// -journal appends every applied update to a length-prefixed journal
// file (CRC-framed; a torn final record from a crash is dropped on
// reopen). On boot, records after the -state file's journal cursor are
// replayed, so a crash loses nothing between checkpoints; each
// successful checkpoint rotates the journal at the checkpointed offset,
// bounding its size. -journal-sync always fsyncs each of the writer's
// journal flushes, one per committed run, before its replies go out
// (durable to the crash, slower); the default none leaves flushing to
// the OS.
// The journal is also the replication feed: replicas stream it with
// the protocol's "journal since <offset>" command. Preloads are
// journaled too: restart from the journal alone, without -trace/-feed.
//
// -feed replays a live update stream through the binary ingest ring
// after boot: "bgp:<updates>[:<seed>]" synthesizes RIB-style churn on a
// minimal gateway topology, "sdnip:<name>[:<scale>]" replays an SDN-IP
// controller trace (airtel1, airtel2, 4switch) with its own topology,
// and "openflow:<file>" replays a recorded op stream against the
// topology loaded with -trace/-state. The sustained updates/sec rate is
// logged when the replay drains. See the README's Ingestion section.
//
// -replica-of boots a read replica: it fetches the primary's
// checkpoint, streams its journal tail, applies every update into its
// own engine and monitor, and serves reach/whatif/stats/W/watch
// locally (mutations are refused). A replica that falls behind a
// journal rotation re-anchors on a fresh checkpoint automatically.
// Incompatible with -trace, -state, -checkpoint, and -journal. See the
// README's Replication section.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"deltanet/internal/core"
	"deltanet/internal/journal"
	"deltanet/internal/metrics"
	"deltanet/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:6633", "listen address")
	gc := flag.Bool("gc", false, "enable atom garbage collection")
	traceFile := flag.String("trace", "", "preload this trace's topology and insertions")
	stateFile := flag.String("state", "", "durable state file: loaded before serving if it exists, saved on shutdown")
	checkpoint := flag.String("checkpoint", "", "background state saves while serving: a duration (e.g. 30s) or an update count (e.g. 1000u); requires -state")
	adminAddr := flag.String("admin", "", "serve /metrics, /healthz, /statusz, and /debug/pprof on this address")
	slowUpdate := flag.Duration("slow-update", 0, "log updates whose traced pipeline stages exceed this duration (0 disables)")
	journalFile := flag.String("journal", "", "append every applied update to this journal file (recovery + replication feed)")
	journalSync := flag.String("journal-sync", "none", "journal fsync policy: none (OS-buffered) or always (fsync per committed run)")
	replicaOf := flag.String("replica-of", "", "run as a read replica of the primary at this address (refuses mutations)")
	feedSpec := flag.String("feed", "", "replay a live update feed through the ingest ring after boot: "+feedUsage)
	flag.Parse()
	ckptEvery, ckptUpdates, err := parseCheckpoint(*checkpoint)
	if err != nil {
		fatal(err)
	}
	if *checkpoint != "" && *stateFile == "" {
		fatal(fmt.Errorf("-checkpoint requires -state"))
	}
	if *replicaOf != "" {
		for flagName, set := range map[string]bool{
			"-trace": *traceFile != "", "-state": *stateFile != "",
			"-checkpoint": *checkpoint != "", "-journal": *journalFile != "",
			"-feed": *feedSpec != "",
		} {
			if set {
				fatal(fmt.Errorf("-replica-of is incompatible with %s: the replica's state and journal cursor come from the primary", flagName))
			}
		}
	}
	syncPolicy, err := journal.ParseSyncPolicy(*journalSync)
	if err != nil {
		fatal(err)
	}
	var feed *feedSource
	if *feedSpec != "" {
		if feed, err = buildFeed(*feedSpec); err != nil {
			fatal(err)
		}
	}

	opts := []server.Option{server.WithEngine(core.Options{GC: *gc})}
	if *slowUpdate > 0 {
		opts = append(opts, server.WithSlowUpdate(*slowUpdate, os.Stderr))
	}
	if *replicaOf != "" {
		opts = append(opts, server.WithReplicaOf(*replicaOf))
	}
	var jrnl *journal.Journal
	if *journalFile != "" {
		jrnl, err = journal.Open(*journalFile, syncPolicy)
		if err != nil {
			fatal(err)
		}
		defer jrnl.Close()
		if d := jrnl.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "journal %s: dropped %d bytes of torn tail from a previous crash\n", *journalFile, d)
		}
		opts = append(opts, server.WithJournal(jrnl))
	}
	// The admin endpoint gets its own listener so operational traffic
	// (scrapes, pprof) never competes with the protocol port. The
	// registry is wired at construction so the first scrape sees the
	// full surface.
	var reg *metrics.Registry
	if *adminAddr != "" {
		reg = metrics.NewRegistry()
		opts = append(opts, server.WithMetrics(reg))
	}

	s := server.New(opts...)
	if *stateFile != "" {
		if f, err := os.Open(*stateFile); err == nil {
			err := s.LoadState(f)
			f.Close()
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "restored %s: %d rules, %d atoms, %d invariant(s)\n",
				*stateFile, s.Network().NumRules(), s.Network().NumAtoms(), s.Monitor().NumRegistered())
		} else if !os.IsNotExist(err) {
			fatal(err)
		}
	}
	if jrnl != nil {
		// Crash recovery: replay the journal suffix after the offset the
		// state file was current through (the whole journal when there was
		// no state file), so the boot state is the full pre-crash state,
		// not just the last checkpoint.
		applied, err := s.ReplayJournal(jrnl)
		if err != nil {
			fatal(err)
		}
		if applied > 0 {
			fmt.Fprintf(os.Stderr, "replayed %d journal record(s): %d rules, %d atoms\n",
				applied, s.Network().NumRules(), s.Network().NumAtoms())
		}
	}
	if *traceFile != "" {
		if err := preloadTrace(s, *traceFile); err != nil {
			fatal(err)
		}
	}

	if feed != nil {
		if err := installFeedTopology(s, feed); err != nil {
			fatal(err)
		}
	}

	var adminSrv *http.Server
	if *adminAddr != "" {
		al, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			fatal(err)
		}
		adminSrv = &http.Server{Handler: s.AdminHandler(reg)}
		go func() {
			if err := adminSrv.Serve(al); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "dnserve: admin endpoint: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "dnserve admin endpoint on http://%s/\n", al.Addr())
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// SIGINT/SIGTERM shut the server down cleanly (Serve returns nil once
	// live connections are drained), and the state file is saved after —
	// the data plane is quiescent by then. The registered watch set is
	// captured at signal time: Close's connection drain releases every
	// client-held registration, and the saved state must include them.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	specCh := make(chan []string, 1)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "dnserve: shutting down")
		specCh <- s.Monitor().SnapshotSpecs()
		s.Close()
	}()
	// Background checkpointer: periodic saves through the same atomic
	// rename path as the shutdown save, so a crash between checkpoints
	// loses at most one window. Joined before the final save so the two
	// writers never interleave on the temp file.
	var ckptWG sync.WaitGroup
	ckptStop := make(chan struct{})
	if ckptEvery > 0 || ckptUpdates > 0 {
		ckptWG.Add(1)
		go func() {
			defer ckptWG.Done()
			runCheckpointer(s, *stateFile, jrnl, ckptEvery, ckptUpdates, ckptStop)
		}()
	}

	fmt.Fprintf(os.Stderr, "dnserve listening on %s\n", l.Addr())
	if feed != nil {
		fmt.Fprintf(os.Stderr, "dnserve: replaying feed %s (%d ops)\n", feed.name, len(feed.ops))
		go replayFeed(s, feed)
	}
	if err := s.Serve(l); err != nil {
		fatal(err)
	}
	close(ckptStop)
	ckptWG.Wait()
	if adminSrv != nil {
		adminSrv.Close()
	}
	if *stateFile != "" {
		var specs []string
		select {
		case specs = <-specCh:
		default: // Serve ended without a signal; the monitor is settled
			specs = s.Monitor().SnapshotSpecs()
		}
		if err := saveState(s, *stateFile, specs, jrnl); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "saved %s: %d rules, %d invariant(s)\n",
			*stateFile, s.Network().NumRules(), len(specs))
	}
}

// parseCheckpoint parses the -checkpoint value: "" (disabled), a
// duration ("30s"), or an update count with a "u" suffix ("1000u").
func parseCheckpoint(v string) (every time.Duration, updates uint64, err error) {
	if v == "" {
		return 0, 0, nil
	}
	if n, ok := strings.CutSuffix(v, "u"); ok {
		updates, err = strconv.ParseUint(n, 10, 64)
		if err != nil || updates == 0 {
			return 0, 0, fmt.Errorf("-checkpoint %q: update count must be a positive integer with a 'u' suffix", v)
		}
		return 0, updates, nil
	}
	every, err = time.ParseDuration(v)
	if err != nil || every <= 0 {
		return 0, 0, fmt.Errorf("-checkpoint %q: want a positive duration (e.g. 30s) or an update count (e.g. 1000u)", v)
	}
	return every, 0, nil
}

// checkpointPoll is how often the update-count checkpointer samples the
// monitor's update counter.
const checkpointPoll = time.Second

// runCheckpointer saves the server state to path whenever the trigger
// fires: every `every` when time-driven, or whenever `updates` more
// rule updates have been applied since the last save (sampled every
// checkpointPoll) when count-driven. An idle server checkpoints once
// and then skips ticks until the update counter moves again (a
// topology-only mutation between checkpoints is covered by the
// shutdown save). Save errors are logged, not fatal — a full disk
// should not take the verifier down.
func runCheckpointer(s *server.Server, path string, jrnl *journal.Journal, every time.Duration, updates uint64, stop <-chan struct{}) {
	interval := every
	if updates > 0 {
		interval = checkpointPoll
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	var lastSaved uint64
	saved := false
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		cur := s.Monitor().Stats().Updates
		if updates > 0 {
			if cur-lastSaved < updates {
				continue
			}
		} else if saved && cur == lastSaved {
			continue // nothing changed since the last checkpoint
		}
		lastSaved, saved = cur, true
		if err := saveState(s, path, s.Monitor().SnapshotSpecs(), jrnl); err != nil {
			fmt.Fprintf(os.Stderr, "dnserve: checkpoint failed: %v\n", err)
		}
	}
}

// saveState writes the server state to path atomically: dump to a
// sibling temp file, then rename over the target, so a crash mid-write
// cannot destroy the previous good state. With a journal, a successful
// save also rotates it at the checkpointed offset — everything the new
// checkpoint covers is discarded, bounding journal growth, while the
// suffix replicas may still need stays addressable at the same logical
// offsets (a replica behind the rotation re-anchors on a checkpoint).
func saveState(s *server.Server, path string, specs []string, jrnl *journal.Journal) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	offset, err := s.CheckpointTo(f, specs)
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if jrnl != nil {
		if err := jrnl.Rotate(offset); err != nil {
			// The checkpoint is good; an unrotated journal only costs disk.
			fmt.Fprintf(os.Stderr, "dnserve: journal rotation failed: %v\n", err)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
