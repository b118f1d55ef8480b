package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deltanet/internal/core"
	"deltanet/internal/datasets"
	"deltanet/internal/ipnet"
	"deltanet/internal/journal"
	"deltanet/internal/server"
)

func TestParseCheckpoint(t *testing.T) {
	cases := []struct {
		in      string
		every   time.Duration
		updates uint64
		wantErr bool
	}{
		{in: "", every: 0, updates: 0},
		{in: "30s", every: 30 * time.Second},
		{in: "5m", every: 5 * time.Minute},
		{in: "1000u", updates: 1000},
		{in: "1u", updates: 1},
		{in: "0u", wantErr: true},
		{in: "0s", wantErr: true},
		{in: "-5s", wantErr: true},
		{in: "u", wantErr: true},
		{in: "soon", wantErr: true},
		{in: "12", wantErr: true}, // bare count: ambiguous, demand the suffix
	}
	for _, c := range cases {
		every, updates, err := parseCheckpoint(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("parseCheckpoint(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && (every != c.every || updates != c.updates) {
			t.Errorf("parseCheckpoint(%q) = (%v, %d), want (%v, %d)",
				c.in, every, updates, c.every, c.updates)
		}
	}
}

// TestCheckpointerWritesState: the background checkpointer saves a
// loadable state file through the atomic-rename path while the server
// is live, without waiting for shutdown.
func TestCheckpointerWritesState(t *testing.T) {
	s := server.New()
	defer s.Close()
	a := s.Graph().AddNode("a")
	b := s.Graph().AddNode("b")
	l := s.Graph().AddLink(a, b)
	var d core.Delta
	if err := s.Network().InsertRuleInto(core.Rule{
		ID: 1, Source: a, Link: l, Match: ipnet.Interval{Lo: 0, Hi: 100}, Priority: 1}, &d); err != nil {
		t.Fatal(err)
	}

	path := t.TempDir() + "/dn.state"
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		runCheckpointer(s, path, nil, 5*time.Millisecond, 0, stop)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	<-done

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restored := server.New()
	defer restored.Close()
	if err := restored.LoadState(strings.NewReader(string(data))); err != nil {
		t.Fatalf("checkpoint not loadable: %v\n%s", err, data)
	}
	if restored.Network().NumRules() != 1 || restored.Graph().NumNodes() != 2 {
		t.Fatalf("checkpoint content wrong: %d rules, %d nodes",
			restored.Network().NumRules(), restored.Graph().NumNodes())
	}
}

// TestJournaledPreloadRestarts: a journaled server that preloaded its
// topology and rules — a -trace file or a -feed — restarts from the
// journal alone to the same data plane (before preloads were journaled,
// replay failed on the first rule with "unknown node id"), and a -trace
// preload over the topology the journal rebuilt is refused.
func TestJournaledPreloadRestarts(t *testing.T) {
	dir := t.TempDir()
	tr, err := datasets.Build("4switch", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "4switch.txt")
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for name, preload := range map[string]func(*server.Server) error{
		"trace": func(s *server.Server) error { return preloadTrace(s, tracePath) },
		"feed": func(s *server.Server) error {
			fs, err := buildFeed("sdnip:4switch:0.05")
			if err != nil {
				return err
			}
			if err := installFeedTopology(s, fs); err != nil {
				return err
			}
			replayFeed(s, fs)
			return nil
		},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".j")
			j, err := journal.Open(path, journal.SyncNone)
			if err != nil {
				t.Fatal(err)
			}
			s := server.New(server.WithJournal(j))
			if err := preload(s); err != nil {
				t.Fatal(err)
			}
			rules, digest := s.Network().NumRules(), s.Network().BehaviourDigest()
			if rules == 0 {
				t.Fatal("the preload installed no rules")
			}
			s.Close()
			j.Close()

			j2, err := journal.Open(path, journal.SyncNone)
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			r := server.New(server.WithJournal(j2))
			defer r.Close()
			if _, err := r.ReplayJournal(j2); err != nil {
				t.Fatalf("restart from the journal: %v", err)
			}
			if r.Network().NumRules() != rules || r.Network().BehaviourDigest() != digest {
				t.Fatalf("restart from the journal: %d rules (want %d), digests equal %v",
					r.Network().NumRules(), rules, r.Network().BehaviourDigest() == digest)
			}
			if err := preloadTrace(r, tracePath); err == nil || !strings.Contains(err.Error(), "already has one") {
				t.Fatalf("-trace over the journal's topology: %v", err)
			}
		})
	}
}
