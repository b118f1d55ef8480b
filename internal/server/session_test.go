package server

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"deltanet/internal/core"
	"deltanet/internal/datasets"
	"deltanet/internal/monitor"
	"deltanet/internal/trace"
)

// TestDatasetSessionsThroughDispatch: a trace file is a line-protocol
// session. Every dataset, written as dngen writes it and sent line by
// line through a fresh server's dispatch — as `nc host 6633 < file`
// would — builds the same plane as replaying the dataset directly: the
// same BehaviourDigest halfway through the operations and at the end
// (the synthetic sets end empty), every node, link and update line
// answered ok, and the name comment, the file's one line outside the
// session grammar, refused as an unknown command. (trace.Read, the other
// reader, is held to the same digest by
// internal/integration.TestTraceFileRoundTripAllDatasets.)
func TestDatasetSessionsThroughDispatch(t *testing.T) {
	for _, name := range datasets.Names() {
		t.Run(name, func(t *testing.T) {
			tr, err := datasets.Build(name, 0.02)
			if err != nil {
				t.Fatal(err)
			}
			var file bytes.Buffer
			if err := tr.Write(&file); err != nil {
				t.Fatal(err)
			}
			direct := core.NewNetwork(tr.Graph.Clone(), core.Options{})
			var d core.Delta
			s := New()
			defer s.Close()
			same := func(when string) {
				t.Helper()
				if s.Network().BehaviourDigest() != direct.BehaviourDigest() || s.Network().NumRules() != direct.NumRules() {
					t.Fatalf("%s: session replay %d rules, direct replay %d; digests equal %v", when,
						s.Network().NumRules(), direct.NumRules(), s.Network().BehaviourDigest() == direct.BehaviourDigest())
				}
			}
			owned := map[monitor.ID]int{}
			sc := bufio.NewScanner(&file)
			lines, ops := 0, 0
			for sc.Scan() {
				line := strings.TrimSpace(sc.Text())
				if line == "" {
					continue
				}
				lines++
				resp := s.dispatch(line, owned)
				if strings.HasPrefix(line, "#") {
					if resp != "err unknown command #" {
						t.Fatalf("comment %q: %q", line, resp)
					}
				} else if !strings.HasPrefix(resp, "ok") {
					t.Fatalf("line %d %q: %q", lines, line, resp)
				}
				if line[0] != 'I' && line[0] != 'R' {
					continue
				}
				if err := trace.Apply(direct, tr.Ops[ops], &d); err != nil {
					t.Fatalf("direct replay, op %d: %v", ops, err)
				}
				if ops++; ops == len(tr.Ops)/2 {
					same("halfway")
				}
			}
			same("at the end")
			if want := 1 + tr.Graph.NumNodes() + tr.Graph.NumLinks() + len(tr.Ops); lines != want {
				t.Fatalf("%d lines, want %d", lines, want)
			}
		})
	}
}
