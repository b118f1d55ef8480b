package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"deltanet/internal/bgp"
	"deltanet/internal/core"
	"deltanet/internal/journal"
	"deltanet/internal/monitor"
	"deltanet/internal/netgraph"
	"deltanet/internal/routes"
	"deltanet/internal/topo"
)

// benchIngest drives insert/remove churn through dispatch — the full
// primary ingest path (parse, engine apply, monitor, and, when opts
// include a journal, the append) without socket noise.
func benchIngest(b *testing.B, opts ...Option) {
	s := New(opts...)
	defer s.Close()
	owned := map[monitor.ID]int{}
	for _, req := range []string{"node a", "node b", "node c", "link 0 1", "link 1 2"} {
		if got := s.dispatch(req, owned); !strings.HasPrefix(got, "ok") {
			b.Fatalf("%s: %q", req, got)
		}
	}
	// The lines are built before the timer starts, so the loop times
	// dispatch alone and not fmt.Sprintf.
	var ins, rm [1000]string
	for k := range ins {
		ins[k] = fmt.Sprintf("I %d 0 0 %d %d 1", k+1, (k%997)*10, (k%997)*10+5)
		rm[k] = fmt.Sprintf("R %d", k+1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(ins)
		if got := s.dispatch(ins[k], owned); !strings.HasPrefix(got, "ok") {
			b.Fatalf("%s: %q", ins[k], got)
		}
		if got := s.dispatch(rm[k], owned); !strings.HasPrefix(got, "ok") {
			b.Fatalf("%s: %q", rm[k], got)
		}
	}
}

// BenchmarkIngest is the journaling-cost pair: compare Journal=off to
// Journal=none (OS-buffered appends) with benchstat to see what the
// replication substrate costs the primary's hot path; Journal=always
// prices per-append fsync durability.
func BenchmarkIngest(b *testing.B) {
	b.Run("Journal=off", func(b *testing.B) {
		benchIngest(b)
	})
	b.Run("Journal=none", func(b *testing.B) {
		j, err := journal.Open(b.TempDir()+"/bench.j", journal.SyncNone)
		if err != nil {
			b.Fatal(err)
		}
		defer j.Close()
		benchIngest(b, WithJournal(j))
	})
	b.Run("Journal=always", func(b *testing.B) {
		j, err := journal.Open(b.TempDir()+"/bench.j", journal.SyncAlways)
		if err != nil {
			b.Fatal(err)
		}
		defer j.Close()
		benchIngest(b, WithJournal(j))
	})
}

// libraPlane is a Libra-style plane: 800 BGP prefixes compiled into
// shortest-path rules toward random egresses over rf1755, random
// priorities, seed 1 — ≈ 69k rules, one per node per prefix.
func libraPlane(b *testing.B) (*netgraph.Graph, []core.BatchOp) {
	g, err := topo.Build("rf1755")
	if err != nil {
		b.Fatal(err)
	}
	feed := bgp.NewFeed(1, 0.3)
	comp := routes.NewCompiler(g, 1)
	comp.RandomPriority = true
	var ops []core.BatchOp
	for i := 0; i < 800; i++ {
		for _, r := range comp.RulesForPrefix(feed.Next(), topo.SwitchNodes(g)) {
			ops = append(ops, core.InsertOp(r))
		}
	}
	return g, ops
}

// bulkLoad builds g into a fresh server and pushes ops through IngestOps
// in 256-op chunks, then IngestBarrier — the entrance dnserve's feed
// replay and the benchmark's set-up take.
func bulkLoad(b *testing.B, g *netgraph.Graph, ops []core.BatchOp) *Server {
	s := New()
	for v := netgraph.NodeID(0); int(v) < g.NumNodes(); v++ {
		s.Graph().AddNode(g.NodeName(v))
	}
	for _, l := range g.Links() {
		s.Graph().AddLink(l.Src, l.Dst)
	}
	for j := 0; j < len(ops); j += 256 {
		if !s.IngestOps(ops[j:min(j+256, len(ops))]) {
			b.Fatalf("chunk at op %d refused", j)
		}
	}
	s.IngestBarrier()
	return s
}

// BenchmarkIngestBulkLoad is bulk load (bulkLoad) of libraPlane into a
// fresh server per iteration. It reports ns per rule and ops per commit,
// which is how full the coalescer's runs are.
func BenchmarkIngestBulkLoad(b *testing.B) {
	g, ops := libraPlane(b)
	b.ResetTimer()
	var commits uint64
	for i := 0; i < b.N; i++ {
		s := bulkLoad(b, g, ops)
		b.StopTimer()
		commits += s.ing.batches.Load()
		s.Close()
		b.StartTimer()
	}
	rules := float64(b.N) * float64(len(ops))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rules, "ns/rule")
	b.ReportMetric(rules/float64(commits), "ops/commit")
}

// BenchmarkCheckpoint prices a state file on libraPlane with one
// invariant registered: its size (B/rule), SaveState into memory
// (save-ns/rule) and LoadState of it into a fresh server (load-ns/rule)
// — the cost of a checkpoint, a restart and a replica anchor. (A
// registered loopfree would add its full evaluation, ≈ 1/3 more, to
// every load.)
func BenchmarkCheckpoint(b *testing.B) {
	g, ops := libraPlane(b)
	s := bulkLoad(b, g, ops)
	defer s.Close()
	s.Monitor().Register(monitor.Reachable{From: 0, To: 1})
	var dump bytes.Buffer
	var saveNs, loadNs time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dump.Reset()
		t0 := time.Now()
		if err := s.SaveState(&dump); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		r := New()
		if err := r.LoadState(bytes.NewReader(dump.Bytes())); err != nil {
			b.Fatal(err)
		}
		saveNs, loadNs = saveNs+t1.Sub(t0), loadNs+time.Since(t1)
		b.StopTimer()
		if r.Network().NumRules() != len(ops) {
			b.Fatalf("loaded %d rules, want %d", r.Network().NumRules(), len(ops))
		}
		r.Close()
		b.StartTimer()
	}
	rules := float64(len(ops))
	b.ReportMetric(float64(dump.Len())/rules, "B/rule")
	b.ReportMetric(float64(saveNs.Nanoseconds())/rules/float64(b.N), "save-ns/rule")
	b.ReportMetric(float64(loadNs.Nanoseconds())/rules/float64(b.N), "load-ns/rule")
}

// benchServe boots a serving instance for a read benchmark.
func benchServe(b *testing.B, opts ...Option) (*Server, string) {
	b.Helper()
	s := New(opts...)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go s.Serve(l)
	b.Cleanup(func() { s.Close() })
	return s, l.Addr().String()
}

// benchReads hammers reach queries from GOMAXPROCS workers, each on
// its own connection, round-robined across the given servers.
func benchReads(b *testing.B, addrs []string) {
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		addr := addrs[next.Add(1)%uint64(len(addrs))]
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Error(err)
			return
		}
		defer conn.Close()
		sc := bufio.NewScanner(conn)
		for pb.Next() {
			if _, err := fmt.Fprintln(conn, "reach a b"); err != nil {
				b.Error(err)
				return
			}
			if !sc.Scan() || !strings.HasPrefix(sc.Text(), "ok reach") {
				b.Errorf("bad reach response %q (%v)", sc.Text(), sc.Err())
				return
			}
		}
	})
}

// BenchmarkReplicaReadScaling is the read scale-out pair: the same
// concurrent reach load against the primary alone versus round-robined
// across the primary and a caught-up replica. Both servers share this
// process's runtime, so in-process the claim this pair supports is
// per-request cost parity: a replica answers reads exactly as fast as
// the primary (same ns/op with the load split), so each replica on its
// own machine adds one primary's worth of read capacity — the linear
// scale-out is in deployment, the parity is what's measurable here.
func BenchmarkReplicaReadScaling(b *testing.B) {
	j, err := journal.Open(b.TempDir()+"/p.j", journal.SyncNone)
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	p, paddr := benchServe(b, WithJournal(j))
	owned := map[monitor.ID]int{}
	reqs := []string{"node a", "node b", "node c", "link 0 1", "link 1 2"}
	for i := 0; i < 200; i++ {
		reqs = append(reqs, fmt.Sprintf("I %d 0 0 %d %d 1", i+1, i*10, i*10+5))
	}
	for _, req := range reqs {
		if got := p.dispatch(req, owned); !strings.HasPrefix(got, "ok") {
			b.Fatalf("%s: %q", req, got)
		}
	}

	r, raddr := benchServe(b, WithReplicaOf(paddr))
	deadline := time.Now().Add(10 * time.Second)
	for r.mon.UpdateSeq() != p.mon.UpdateSeq() || r.replicaLagBytes() != 0 {
		if time.Now().After(deadline) {
			b.Fatal("replica never caught up")
		}
		time.Sleep(5 * time.Millisecond)
	}

	b.Run("servers=1", func(b *testing.B) { benchReads(b, []string{paddr}) })
	b.Run("servers=2", func(b *testing.B) { benchReads(b, []string{paddr, raddr}) })
}
