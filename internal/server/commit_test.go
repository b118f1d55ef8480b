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
// LoadState (loadStateLocked) is the engine apply's one other caller: a
// state file is a state, not an update, so its rules are applied and
// nothing else runs (no loop check, monitor pass, journal append or
// update count).
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
	if got := sites["ApplyBatch"]; len(got) != 2 || got[0] != "commitLocked" || got[1] != "loadStateLocked" {
		t.Errorf("ApplyBatch is called from %v, want one call site in commitLocked and one in loadStateLocked", got)
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

// TestOneWriter holds the server to one writer: in this package's
// non-test source the engine lock is taken for writing in one function,
// the ring's consumer (coalesce); commitLocked has one call site, in
// applyLocked, which only the writer calls (coalesce, and the record
// decoder its barriers run); and the package ranks at most three locks,
// with no lockorder exemption.
func TestOneWriter(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var lockers []string             // enclosing function of each s.mu.Lock()
	callers := map[string][]string{} // callee -> enclosing function, one entry per call site
	ranks := 0
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "//deltanet:lockrank") {
					ranks++
				}
				if strings.HasPrefix(c.Text, "//deltanet:nolint lockorder") {
					t.Errorf("%s: %s", fset.Position(c.Pos()), c.Text)
				}
			}
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
				switch sel.Sel.Name {
				case "Lock":
					if mu, ok := sel.X.(*ast.SelectorExpr); ok && mu.Sel.Name == "mu" {
						if recv, ok := mu.X.(*ast.Ident); ok && recv.Name == "s" {
							lockers = append(lockers, fn.Name.Name)
						}
					}
				case "commitLocked", "applyLocked":
					callers[sel.Sel.Name] = append(callers[sel.Sel.Name], fn.Name.Name)
				}
				return true
			})
		}
	}
	if len(lockers) != 1 || lockers[0] != "coalesce" {
		t.Errorf("s.mu.Lock() is called from %v, want once, in coalesce", lockers)
	}
	if got := callers["commitLocked"]; len(got) != 1 || got[0] != "applyLocked" {
		t.Errorf("commitLocked is called from %v, want one call site, in applyLocked", got)
	}
	for _, caller := range callers["applyLocked"] {
		if caller != "coalesce" && caller != "applyRecordLocked" {
			t.Errorf("applyLocked is called from %s, want coalesce or applyRecordLocked", caller)
		}
	}
	if len(callers["applyLocked"]) == 0 {
		t.Error("applyLocked has no caller")
	}
	if ranks > 3 {
		t.Errorf("%d //deltanet:lockrank annotations, want at most 3", ranks)
	}
}

// TestJournalAppendFailure pins what a failed journal append means
// (commitLocked states the policy): the update is applied and
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
		n := 0
		s.barrier(func() { n = len(s.jsubs) })
		return n == 1
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
	// The subscriber is still attached, and was sent nothing: the writer
	// sends records before it releases the lock, so a record would have
	// been queued for this stream before the reply above was written.
	sub.conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if sub.r.Scan() {
		t.Fatalf("subscriber was sent %q for an update the journal never took", sub.r.Text())
	}
	if err, ok := sub.r.Err().(interface{ Timeout() bool }); !ok || !err.Timeout() {
		t.Fatalf("journal stream ended with %v, want it open and idle", sub.r.Err())
	}
}
