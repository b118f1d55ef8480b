package server

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deltanet/internal/journal"
	"deltanet/internal/metrics"
)

// TestOneCommitPath holds the write path to its shape: in this package's
// non-test source, the engine apply, the delta loop check, the monitor
// pass and the trace close-out each have exactly one call site, all in
// commitLocked, and the single-op engine entry points have none. A new
// entrance that applies an update by hand fails here, not in review.
// LoadState is the engine apply's one other caller: a state file is a
// state, not an update, so its rules are applied and nothing else runs
// (no loop check, monitor pass, journal append or update count).
func TestOneCommitPath(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	sites := map[string][]string{} // call class -> enclosing function, one entry per call site
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				onMonitor := false
				if recv, ok := sel.X.(*ast.SelectorExpr); ok {
					onMonitor = recv.Sel.Name == "mon"
				}
				switch callee := sel.Sel.Name; {
				case callee == "ApplyBatch", callee == "finishUpdateLocked":
					sites[callee] = append(sites[callee], fn.Name.Name)
				case strings.HasPrefix(callee, "FindLoopsDelta"):
					sites["FindLoopsDelta*"] = append(sites["FindLoopsDelta*"], fn.Name.Name)
				case onMonitor && strings.HasPrefix(callee, "Apply"):
					sites["mon.Apply*"] = append(sites["mon.Apply*"], fn.Name.Name)
				case callee == "InsertRuleInto", callee == "RemoveRuleInto":
					sites["single-op engine entry"] = append(sites["single-op engine entry"], fn.Name.Name)
				}
				return true
			})
		}
	}
	if got := sites["ApplyBatch"]; len(got) != 2 || got[0] != "commitLocked" || got[1] != "LoadState" {
		t.Errorf("ApplyBatch is called from %v, want one call site in commitLocked and one in LoadState", got)
	}
	for _, class := range []string{"FindLoopsDelta*", "mon.Apply*", "finishUpdateLocked"} {
		if got := sites[class]; len(got) != 1 || got[0] != "commitLocked" {
			t.Errorf("%s is called from %v, want exactly one call site, in commitLocked", class, got)
		}
	}
	if got := sites["single-op engine entry"]; len(got) != 0 {
		t.Errorf("InsertRuleInto/RemoveRuleInto are called from %v, want no call site: a one-op update is a one-op commit", got)
	}
}

// TestJournalAppendFailure pins what a failed journal append means, at
// the one place it can happen (commitLocked): the update is applied and
// acknowledged, the failure is counted, and journal subscribers are not
// sent the record.
func TestJournalAppendFailure(t *testing.T) {
	j, err := journal.Open(filepath.Join(t.TempDir(), "j"), journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	s, addr, cleanup := startServer(t, WithJournal(j), WithMetrics(reg))
	defer cleanup()
	c, sub := dial(t, addr), dial(t, addr)
	defer c.close()
	defer sub.close()
	buildTriangle(t, c)
	if got := sub.roundTrip(t, fmt.Sprintf("journal since %d", j.End())); !strings.HasPrefix(got, "ok journal ") {
		t.Fatalf("journal since: %q", got)
	}
	waitFor(t, func() bool {
		s.jsubMu.Lock()
		defer s.jsubMu.Unlock()
		return len(s.jsubs) == 1
	})
	// The journal fails under the live server.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	if got := c.roundTrip(t, "I 1 0 0 0 100 1"); got != "ok atoms=2 loops=0" {
		t.Fatalf("insert with a dead journal: %q", got)
	}
	if got := c.roundTrip(t, "stats"); !strings.Contains(got, " rules=1 ") {
		t.Fatalf("acknowledged rule is not present: %q", got)
	}
	if got := s.jrnlErrs.Load(); got != 1 {
		t.Fatalf("jrnlErrs = %d, want 1", got)
	}
	var exp bytes.Buffer
	if err := reg.WriteText(&exp); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, exp.String(), "dn_journal_append_errors_total"); got != 1 {
		t.Fatalf("dn_journal_append_errors_total = %v, want 1", got)
	}
	// The subscriber is still attached, and was sent nothing: fan-out
	// happens inside the commit, so a record would have been queued for
	// this stream before the reply above was written.
	sub.conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if sub.r.Scan() {
		t.Fatalf("subscriber was sent %q for an update the journal never took", sub.r.Text())
	}
	if err, ok := sub.r.Err().(interface{ Timeout() bool }); !ok || !err.Timeout() {
		t.Fatalf("journal stream ended with %v, want it open and idle", sub.r.Err())
	}
}
