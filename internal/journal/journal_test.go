package journal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
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

// drain reads every record after `from`, re-anchoring the reader until
// it has caught up with the journal's current end.
func drain(t *testing.T, j *Journal, from uint64) []Record {
	t.Helper()
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

// TestConcurrentAppendAndRead: a reader following the journal while a
// writer appends sees every record exactly once, in order.
func TestConcurrentAppendAndRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j := open(t, path)
	defer j.Close()

	const total = 500
	done := make(chan error, 1)
	go func() {
		for i := 1; i <= total; i++ {
			if _, err := j.Append(uint64(i), "I 1 0 0 0 100 1"); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	var seen uint64
	cursor := uint64(0)
	writerDone := false
	for !writerDone || cursor < j.End() {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			writerDone = true
		default:
		}
		if cursor == j.End() {
			continue
		}
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
			if rec.Seq != seen+1 {
				t.Fatalf("out-of-order: seq %d after %d", rec.Seq, seen)
			}
			seen = rec.Seq
		}
		cursor = r.Cursor()
		r.Close()
	}
	if seen != total {
		t.Fatalf("reader saw %d records, want %d", seen, total)
	}
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
