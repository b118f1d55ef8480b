package journal

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

func open(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := Open(path, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// drain flushes j and reads every record after `from`, re-anchoring the
// reader until it has caught up with the journal's current end.
func drain(t *testing.T, j *Journal, from uint64) []Record {
	t.Helper()
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	var out []Record
	cursor := from
	for cursor < j.End() {
		r, err := j.ReadFrom(cursor)
		if err != nil {
			t.Fatal(err)
		}
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			rec.Payload = append([]byte(nil), rec.Payload...) // Next reuses its buffer
			out = append(out, rec)
		}
		cursor = r.Cursor()
		r.Close()
	}
	return out
}

func TestAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j := open(t, path)
	defer j.Close()

	payloads := []string{"node a", "link 0 1", "I 1 0 0 0 100 1", "B 2\nI 2 0 0 0 50 2\nR 1"}
	var ends []uint64
	for i, p := range payloads {
		end, err := j.Append(uint64(i+1), p)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, end)
	}
	recs := drain(t, j, 0)
	if len(recs) != len(payloads) {
		t.Fatalf("read %d records, want %d", len(recs), len(payloads))
	}
	for i, rec := range recs {
		if string(rec.Payload) != payloads[i] {
			t.Errorf("record %d payload = %q, want %q", i, rec.Payload, payloads[i])
		}
		if rec.Seq != uint64(i+1) {
			t.Errorf("record %d seq = %d, want %d", i, rec.Seq, i+1)
		}
		if rec.End != ends[i] {
			t.Errorf("record %d end = %d, want %d", i, rec.End, ends[i])
		}
		if rec.Stamp == 0 {
			t.Errorf("record %d has no stamp", i)
		}
	}

	// Resume from the middle: exactly the suffix comes back.
	tail := drain(t, j, ends[1])
	if len(tail) != 2 || string(tail[0].Payload) != payloads[2] {
		t.Fatalf("suffix after %d = %v", ends[1], tail)
	}
}

// TestReopenContinues: offsets and contents survive a close/reopen, and
// appends continue where the previous incarnation stopped.
func TestReopenContinues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j := open(t, path)
	end1, _ := j.Append(1, "I 1 0 0 0 100 1")
	j.Close()

	j2 := open(t, path)
	defer j2.Close()
	if j2.End() != end1 {
		t.Fatalf("reopened end = %d, want %d", j2.End(), end1)
	}
	if j2.Dropped() != 0 {
		t.Fatalf("clean reopen dropped %d bytes", j2.Dropped())
	}
	j2.Append(2, "R 1")
	recs := drain(t, j2, 0)
	if len(recs) != 2 || string(recs[1].Payload) != "R 1" {
		t.Fatalf("after reopen: %v", recs)
	}
}

// TestTornTailDropped: a record half-written at crash time (truncated
// mid-payload) is detected on reopen and dropped; the intact prefix
// stays readable and new appends land after it.
func TestTornTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j := open(t, path)
	goodEnd, _ := j.Append(1, "I 1 0 0 0 100 1")
	j.Append(2, "I 2 0 0 200 300 1")
	j.Close()

	// Tear the final record: cut the file 5 bytes short.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	j2 := open(t, path)
	defer j2.Close()
	if j2.Dropped() == 0 {
		t.Fatal("torn tail not reported")
	}
	if j2.End() != goodEnd {
		t.Fatalf("recovered end = %d, want %d (end of last intact record)", j2.End(), goodEnd)
	}
	recs := drain(t, j2, 0)
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("recovered records: %v", recs)
	}
	// The journal keeps working after recovery.
	if _, err := j2.Append(3, "R 1"); err != nil {
		t.Fatal(err)
	}
	if got := drain(t, j2, 0); len(got) != 2 || got[1].Seq != 3 {
		t.Fatalf("after post-recovery append: %v", got)
	}
}

// TestCorruptTailDropped: a bit flip in the final record's payload fails
// the CRC and the record is dropped on reopen, like a torn write.
func TestCorruptTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j := open(t, path)
	goodEnd, _ := j.Append(1, "I 1 0 0 0 100 1")
	j.Append(2, "I 2 0 0 200 300 1")
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0xff // inside the final record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := open(t, path)
	defer j2.Close()
	if j2.End() != goodEnd {
		t.Fatalf("recovered end = %d, want %d", j2.End(), goodEnd)
	}
	if recs := drain(t, j2, 0); len(recs) != 1 {
		t.Fatalf("recovered records: %v", recs)
	}
}

// TestRotateKeepsOffsets: rotation discards the prefix but the logical
// offsets of surviving and future records are unchanged; a reader
// behind the new base gets ErrTruncated (the re-anchor signal).
func TestRotateKeepsOffsets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j := open(t, path)
	defer j.Close()
	end1, _ := j.Append(1, "I 1 0 0 0 100 1")
	end2, _ := j.Append(2, "I 2 0 0 200 300 1")
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}

	if err := j.Rotate(end1); err != nil {
		t.Fatal(err)
	}
	if j.Base() != end1 || j.End() != end2 {
		t.Fatalf("after rotate: base=%d end=%d, want %d/%d", j.Base(), j.End(), end1, end2)
	}
	// The survivor is still addressable at its old offset.
	recs := drain(t, j, end1)
	if len(recs) != 1 || recs[0].Seq != 2 || recs[0].End != end2 {
		t.Fatalf("post-rotate records: %v", recs)
	}
	// A cursor from before the rotation must re-anchor.
	if _, err := j.ReadFrom(0); !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadFrom(0) after rotate = %v, want ErrTruncated", err)
	}
	// Appends continue the same logical offset space.
	end3, err := j.Append(3, "R 1")
	if err != nil {
		t.Fatal(err)
	}
	if end3 <= end2 {
		t.Fatalf("offsets regressed after rotate: %d <= %d", end3, end2)
	}
	// And the rotated file survives a reopen with the same bounds.
	j.Close()
	j2 := open(t, path)
	defer j2.Close()
	if j2.Base() != end1 || j2.End() != end3 {
		t.Fatalf("reopened rotated journal: base=%d end=%d, want %d/%d", j2.Base(), j2.End(), end1, end3)
	}
}

// TestConcurrentAppendAndRead runs the server's pattern: one appender
// that flushes every few records, a follower reading the flushed suffix
// with ReadFrom, and a checkpointer rotating at flushed offsets. The
// follower sees every record exactly once, in order, except where a
// rotation passed it: then ReadFrom says ErrTruncated and it re-anchors
// at the new base.
func TestConcurrentAppendAndRead(t *testing.T) {
	j := open(t, filepath.Join(t.TempDir(), "j"))
	defer j.Close()

	const total = 500
	ends := make([]uint64, total+1) // ends[seq], written before flushed publishes seq
	var flushed atomic.Uint64       // the last seq the appender flushed
	appended := make(chan error, 1)
	go func() {
		for i := 1; i <= total; i++ {
			end, err := j.Append(uint64(i), "I 1 0 0 0 100 1")
			if err != nil {
				appended <- err
				return
			}
			ends[i] = end
			if i%7 == 0 || i == total {
				if err := j.Flush(); err != nil {
					appended <- err
					return
				}
				flushed.Store(uint64(i))
			}
		}
		appended <- nil
	}()
	stop, rotated := make(chan struct{}), make(chan error, 1)
	go func() {
		var last uint64
		for {
			select {
			case <-stop:
				rotated <- nil
				return
			default:
			}
			if s := flushed.Load(); s%3 == 1 && s != last {
				if err := j.Rotate(ends[s]); err != nil {
					rotated <- err
					return
				}
				last = s
			}
			runtime.Gosched()
		}
	}()

	var seen uint64 // seq of the last record read
	cursor, reanchors := uint64(0), 0
	for seen < total {
		r, err := j.ReadFrom(cursor)
		if errors.Is(err, ErrTruncated) {
			// Re-anchor at the new base, a flushed record's end.
			cursor, reanchors = j.Base(), reanchors+1
			seen = uint64(slices.Index(ends[:flushed.Load()+1], cursor))
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if rec.Seq != seen+1 || rec.End != ends[rec.Seq] {
				t.Fatalf("seq %d (end %d) after %d", rec.Seq, rec.End, seen)
			}
			seen = rec.Seq
		}
		cursor = r.Cursor()
		r.Close()
		runtime.Gosched()
	}
	close(stop)
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	if err := <-rotated; err != nil {
		t.Fatal(err)
	}
	t.Logf("follower re-anchored %d times, journal base %d", reanchors, j.Base())
}

// TestFlushFailureSticky pins the failure policy: a write that fails
// fails that Flush, drops the buffered records, rolls End back to the
// last offset the file holds, and fails every later Append and Flush
// with the same error.
func TestFlushFailureSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j := open(t, path)
	good, _ := j.Append(1, "I 1 0 0 0 100 1")
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	ro, err := os.Open(path) // writes through it fail
	if err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	rw := j.f
	j.f = ro
	j.mu.Unlock()
	defer rw.Close()

	j.Append(2, "I 2 0 0 200 300 1")
	j.Append(3, "R 1")
	ferr := j.Flush()
	if ferr == nil {
		t.Fatal("Flush through a read-only descriptor succeeded")
	}
	if j.End() != good {
		t.Fatalf("End after a failed Flush = %d, want %d (the last flushed record)", j.End(), good)
	}
	if _, err := j.Append(4, "R 2"); err != ferr {
		t.Fatalf("Append after a failed Flush = %v, want the sticky %v", err, ferr)
	}
	if err := j.Flush(); err != ferr {
		t.Fatalf("second Flush = %v, want the sticky %v", err, ferr)
	}
	if j.End() != good {
		t.Fatalf("End after refused appends = %d, want %d", j.End(), good)
	}
	if r, err := j.ReadFrom(good); err != nil {
		t.Fatalf("ReadFrom(End) on a failed journal: %v", err)
	} else if _, err := r.Next(); err != io.EOF {
		t.Fatalf("a failed journal reads past its last flushed record: %v", err)
	} else {
		r.Close()
	}
	if err := j.Close(); err != ferr {
		t.Fatalf("Close = %v, want the sticky %v", err, ferr)
	}
	j2 := open(t, path)
	defer j2.Close()
	if recs := drain(t, j2, 0); j2.End() != good || len(recs) != 1 {
		t.Fatalf("reopened: end %d with %d records, want %d with 1", j2.End(), len(recs), good)
	}
}

// TestOneAppender holds journal.go to its shape: the appender writes
// the file itself, so the package starts no goroutine, waits on no
// condition variable and yields to no scheduler.
func TestOneAppender(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "journal.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		if imp.Path.Value == `"runtime"` {
			t.Errorf("%s: journal.go imports runtime", fset.Position(imp.Pos()))
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			t.Errorf("%s: journal.go starts a goroutine", fset.Position(n.Pos()))
		case *ast.SelectorExpr:
			if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "sync" && (n.Sel.Name == "Cond" || n.Sel.Name == "NewCond") {
				t.Errorf("%s: journal.go uses sync.%s", fset.Position(n.Pos()), n.Sel.Name)
			}
		}
		return true
	})
}

// TestVersion1Refused: a file written by the text-payload format is
// refused by name with the remedy, and left exactly as it was — no
// header rewrite, no torn-tail truncation of records this build cannot
// judge.
func TestVersion1Refused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	old := "dnjournal 1 0\n" + "\x00\x00\x00\x16not a v2 record, left alone"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path, SyncNone)
	if err == nil {
		t.Fatal("Open accepted a dnjournal 1 file")
	}
	for _, want := range []string{`"dnjournal 1"`, `"dnjournal 2"`, "remove the journal"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	if got, _ := os.ReadFile(path); string(got) != old {
		t.Errorf("refused file was modified: %q", got)
	}
}
