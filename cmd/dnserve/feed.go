// feed.go holds dnserve's preloads, -trace and -feed. -feed wires the
// repo's feed generators in as live replay sources: it builds an update
// stream from one of the substrate packages (internal/bgp churn,
// internal/sdnip controller traces, internal/openflow recorded op
// streams) and replays it through the same ingest ring the binary batch
// protocol uses (Server.IngestOps), so a single flag turns the service
// into a sustained-rate harness — backpressure, coalescing, journaling,
// and watch evaluation all exercised exactly as a remote binary client
// would. A -trace file's insertions take the same ring before serving.
package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"deltanet/internal/bgp"
	"deltanet/internal/core"
	"deltanet/internal/datasets"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
	"deltanet/internal/openflow"
	"deltanet/internal/server"
	"deltanet/internal/trace"
)

// feedUsage documents the -feed grammar (also in the flag help).
const feedUsage = "bgp:<updates>[:<seed>], sdnip:<airtel1|airtel2|4switch>[:<scale>], or openflow:<file>"

// feedChunk is how many ops each IngestOps call carries: a call validates
// its whole slice, without the engine lock, before pushing any of it, so
// the chunk bounds the work ahead of the ring and what a refusal withholds.
const feedChunk = 256

// feedSource is a built feed: a name for logging, the op stream, and —
// for sources that define their own network — the topology that must be
// rebuilt into the server before replay.
type feedSource struct {
	name  string
	ops   []core.BatchOp
	graph *netgraph.Graph // nil: replay against the topology already loaded
}

// buildFeed parses a -feed spec and materializes the op stream. It does
// not touch the server; installFeedTopology does that after the caller
// has settled -trace/-state loading.
func buildFeed(spec string) (*feedSource, error) {
	kind, rest, _ := strings.Cut(spec, ":")
	switch kind {
	case "bgp":
		nStr, seedStr, haveSeed := strings.Cut(rest, ":")
		n, err := strconv.Atoi(nStr)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("-feed %q: want bgp:<updates>[:<seed>] with a positive update count", spec)
		}
		seed := int64(1)
		if haveSeed {
			seed, err = strconv.ParseInt(seedStr, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("-feed %q: bad seed %q", spec, seedStr)
			}
		}
		g, ops := bgpFeed(n, seed)
		return &feedSource{name: spec, ops: ops, graph: g}, nil
	case "sdnip":
		name, scaleStr, haveScale := strings.Cut(rest, ":")
		scale := 1.0
		if haveScale {
			var err error
			scale, err = strconv.ParseFloat(scaleStr, 64)
			if err != nil || scale <= 0 {
				return nil, fmt.Errorf("-feed %q: bad scale %q", spec, scaleStr)
			}
		}
		switch name {
		case "airtel1", "airtel2", "4switch":
		default:
			return nil, fmt.Errorf("-feed %q: unknown sdnip trace %q (want airtel1, airtel2, or 4switch)", spec, name)
		}
		tr, err := datasets.Build(name, scale)
		if err != nil {
			return nil, err
		}
		return &feedSource{name: spec, ops: tr.Ops, graph: tr.Graph}, nil
	case "openflow":
		if rest == "" {
			return nil, fmt.Errorf("-feed %q: want openflow:<file>", spec)
		}
		f, err := os.Open(rest)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		ops, err := openflow.DecodeOps(f)
		if err != nil {
			return nil, fmt.Errorf("-feed %q: %v", spec, err)
		}
		// An openflow stream is ops only — it replays against whatever
		// topology -trace/-state loaded (graph stays nil).
		return &feedSource{name: spec, ops: ops}, nil
	default:
		return nil, fmt.Errorf("-feed %q: unknown source (want %s)", spec, feedUsage)
	}
}

// bgpFeed converts n synthetic BGP updates into rule churn on a minimal
// gateway topology: one ingress switch forwarding every announced prefix
// over its single uplink. Announcements insert a rule for the prefix
// (priority = prefix length, longest-match style), withdrawals remove
// it, and a re-announcement of a live prefix flaps it (remove + insert)
// — the working-set churn shape real RIB replay produces.
func bgpFeed(n int, seed int64) (*netgraph.Graph, []core.BatchOp) {
	g := netgraph.New()
	ingress := g.AddNode("ingress")
	peer := g.AddNode("peer")
	uplink := g.AddLink(ingress, peer)
	feed := bgp.NewFeed(seed, 0.3)
	live := make(map[ipnet.Prefix]core.RuleID)
	next := core.RuleID(1)
	ops := make([]core.BatchOp, 0, n)
	for _, u := range feed.Updates(n) {
		id, known := live[u.Prefix]
		switch u.Kind {
		case bgp.Announce:
			if known {
				ops = append(ops, core.RemoveOp(id)) // flap
			} else {
				id = next
				next++
				live[u.Prefix] = id
			}
			iv := u.Prefix.Interval()
			ops = append(ops, core.InsertOp(core.Rule{
				ID: id, Source: ingress, Link: uplink,
				Match: iv, Priority: core.Priority(u.Prefix.Len),
			}))
		case bgp.Withdraw:
			if known {
				ops = append(ops, core.RemoveOp(id))
				delete(live, u.Prefix)
			}
		}
	}
	return g, ops
}

// installFeedTopology rebuilds a preload's own topology into the server
// through its journaled AddNode and AddLink (so a restart from the
// journal alone comes back with it), refusing a server that already has
// one from -state or journal replay, whose ids would collide. An
// openflow stream carries none and needs one already loaded.
func installFeedTopology(s *server.Server, fs *feedSource) error {
	switch loaded := s.Graph().NumNodes() != 0; {
	case fs.graph == nil && !loaded:
		return fmt.Errorf("preload %s: an openflow stream carries no topology; load one with -trace or -state", fs.name)
	case fs.graph == nil:
		return nil
	case loaded:
		return fmt.Errorf("preload %s: it defines its own topology and the server already has one (from -state or the journal); drop the preload to restart from them", fs.name)
	}
	g := fs.graph
	for v := netgraph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if _, err := s.AddNode(g.NodeName(v)); err != nil {
			return fmt.Errorf("preload %s: %v", fs.name, err)
		}
	}
	for _, l := range g.Links() {
		if _, err := s.AddLink(l.Src, l.Dst); err != nil {
			return fmt.Errorf("preload %s: %v", fs.name, err)
		}
	}
	return nil
}

// preloadTrace loads a trace file's topology and, through the ingest
// ring like a feed, its insertions, before serving.
func preloadTrace(s *server.Server, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	tr, err := trace.Read(f)
	f.Close()
	if err != nil {
		return err
	}
	fs := &feedSource{name: path, graph: tr.Graph}
	for _, op := range tr.Ops {
		if op.Insert {
			fs.ops = append(fs.ops, op)
		}
	}
	if err := installFeedTopology(s, fs); err != nil {
		return err
	}
	ingest(s, fs.ops)
	s.IngestBarrier()
	if got := s.Network().NumRules(); got != len(fs.ops) {
		return fmt.Errorf("preload %s: %d of %d insertions applied", path, got, len(fs.ops))
	}
	fmt.Fprintf(os.Stderr, "preloaded %s: %d rules, %d atoms\n",
		tr.Name, s.Network().NumRules(), s.Network().NumAtoms())
	return nil
}

// ingest pushes ops through the ingest ring feedChunk at a time,
// blocking under backpressure, and returns how many were queued: fewer
// than all only when the server shuts down or refuses a chunk.
func ingest(s *server.Server, ops []core.BatchOp) int {
	for n := 0; n < len(ops); n += feedChunk {
		if !s.IngestOps(ops[n:min(n+feedChunk, len(ops))]) {
			return n
		}
	}
	return len(ops)
}

// replayFeed streams the feed through the ingest ring and logs the
// sustained rate; stopping early never takes the server down.
func replayFeed(s *server.Server, fs *feedSource) {
	start := time.Now()
	n := ingest(s, fs.ops)
	if n < len(fs.ops) {
		fmt.Fprintf(os.Stderr, "dnserve: feed %s stopped after %d/%d ops (shutdown or refused chunk)\n",
			fs.name, n, len(fs.ops))
		return
	}
	s.IngestBarrier()
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "dnserve: feed %s replayed %d ops in %v (%.0f updates/s)\n",
		fs.name, n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds())
}
