// Package journal is the append-only update journal underpinning the
// replication tier: the primary appends one record per applied mutation
// (a rule update, an atomic batch, or a topology change), and a read
// replica replays the records — a checkpoint plus the journal suffix
// after its offset is a complete recovery story, shrinking crash loss
// to zero between checkpoints (modulo the fsync policy).
//
// # On-disk format
//
// A journal file starts with a one-line header
//
//	dnjournal 2 <base>\n
//
// where base is the logical offset of the first record in this file.
// (Version 1 carried text payloads; Open refuses such a file by name
// rather than guess at its records — see readHeader.)
// Logical offsets are monotonic across rotation: Rotate discards a
// prefix of records but the surviving records keep their offsets, so a
// replica's resume cursor stays meaningful for as long as the records
// it names are retained — and when they are not, ErrTruncated says so
// explicitly instead of silently replaying the wrong suffix.
//
// Each record is length-prefixed and checksummed:
//
//	u32  length   (covers seq + stamp + payload = 16 + len(payload))
//	u64  seq      (the engine update sequence after the mutation applied)
//	i64  stamp    (unix nanoseconds when the record's batch landed on
//	              disk; replica lag source — coarse by design)
//	...  payload  (the mutation, opaque to this package: the server
//	              writes one dnbin frame, internal/binproto, per record —
//	              a whole batch is one frame, so replay is atomic)
//	u32  crc      (IEEE CRC-32 of seq + stamp + payload)
//
// A record's logical size is 4 + length + 4 bytes, and a record is
// addressed by its END offset (the cursor a consumer stores after
// applying it — "journal since <cursor>" then streams everything after).
//
// # Crash recovery
//
// Records reach the file in batch-sized sequential writes, so a crash
// can leave at most one torn record at the tail (a partial batch write
// is a run of intact records followed by the cut). Open scans the file
// and truncates back to
// the end of the last intact record (length plausible, payload present,
// CRC matching), reporting how many bytes were dropped; a torn tail is
// expected damage, not corruption, and the journal stays usable.
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrTruncated reports a read below the journal's retained base: the
// requested records were discarded by rotation, and the caller must
// re-anchor on a fresh checkpoint instead of resuming.
var ErrTruncated = errors.New("journal: offset below retained base (re-anchor on a checkpoint)")

// SyncPolicy says when Append fsyncs the file.
type SyncPolicy int

const (
	// SyncNone never fsyncs: a machine crash can lose the OS-buffered
	// tail (a process crash loses nothing — the write has happened).
	SyncNone SyncPolicy = iota
	// SyncAlways fsyncs after every append: crash loss is zero at the
	// cost of one disk flush per mutation.
	SyncAlways
)

// ParseSyncPolicy parses a policy flag value ("none" or "always").
func ParseSyncPolicy(v string) (SyncPolicy, error) {
	switch v {
	case "none":
		return SyncNone, nil
	case "always":
		return SyncAlways, nil
	default:
		return 0, fmt.Errorf("journal: unknown sync policy %q (want none or always)", v)
	}
}

// maxRecord bounds one record's length field; anything larger is
// treated as a torn/corrupt tail. The server's largest batch (65536
// ops) packs into about 4MB at worst, so 8MB leaves generous headroom.
const maxRecord = 8 << 20

// MaxPayload is the largest payload Append accepts — the bound a
// consumer of streamed records may hold a peer's length claim to.
const MaxPayload = maxRecord - 16

const (
	headerVersion   = "dnjournal 2"
	headerVersionV1 = "dnjournal 1"
)

// recordOverhead is the non-payload bytes of a record on disk.
const recordOverhead = 4 + 8 + 8 + 4

// writerLinger is how many scheduler yields the writer polls for the
// next record before parking on the condition variable.
const writerLinger = 128

// Record is one journaled mutation.
type Record struct {
	// Seq is the engine update sequence number after the mutation
	// applied (unchanged by topology-only mutations).
	Seq uint64
	// Stamp is the append time in unix nanoseconds.
	Stamp int64
	// End is the record's end offset: the consumer's cursor after
	// applying it.
	End uint64
	// Payload is the mutation as the appender encoded it (the server
	// writes one dnbin frame per record). A Reader reuses the backing
	// array: the slice is valid until its next call to Next.
	Payload []byte
}

// pendingRec is one queued append awaiting the group-commit writer; the
// payload string is retained until the record lands (strings are
// immutable, so callers cannot tear it). The stamp is taken by the
// writer, once per batch — record stamps feed coarse lag measurement,
// not ordering, so batch granularity is plenty and the ingest path
// skips a clock read.
type pendingRec struct {
	seq     uint64
	payload string
}

// Journal is an append-only journal file. All methods are safe for
// concurrent use; appends are serialized internally.
//
// Physical writes are group-committed by a background writer goroutine:
// Append encodes the record, advances the logical end, and returns —
// the hot ingest path pays memory cost, not a write syscall per update.
// The writer drains everything pending in one write (and, under
// SyncAlways, one fsync that every waiting appender shares — group
// commit makes per-record durability cheaper under load, and SyncAlways
// appends block until their record is on disk). Under SyncNone a
// process crash can lose the not-yet-written tail, which is the same
// durability class as the OS-buffered page cache that policy already
// accepts; Open's torn-tail recovery handles both.
type Journal struct {
	// mu guards the writer file and the base/end/pending bookkeeping;
	// readers run on their own descriptors and never hold it past
	// ReadFrom's setup. cond (on mu) is broadcast whenever the flushed
	// frontier advances, the writer errors, or work arrives.
	mu     sync.Mutex
	cond   *sync.Cond
	path   string
	f      *os.File
	policy SyncPolicy
	base   uint64 // logical offset of the first retained record
	end    uint64 // logical offset past the last record (incl. pending)
	phys   uint64 // logical offset flushed to the file; end-len(pending)
	// pending holds records awaiting the writer, unencoded — framing and
	// checksumming happen on the writer goroutine, off the ingest path.
	// spare recycles the writer's last drained batch so steady appending
	// settles into two reused slices; encBuf is the writer-owned encode
	// buffer. Invariant: end == phys + on-disk bytes of pending + (bytes
	// of a write in flight).
	pending []pendingRec
	spare   []pendingRec
	encBuf  []byte
	// idle is true while the writer goroutine is parked on cond; an
	// appender pays a wakeup only then. While the writer lingers
	// (yield-polling between batches), appends are queue-and-go.
	idle    bool
	werr    error // sticky writer error; fails subsequent Appends
	closing bool
	done    chan struct{} // closed when the writer goroutine exits
	// dropped is the torn-tail bytes Open discarded (diagnostics).
	dropped int64
}

// Open opens (or creates) the journal at path, recovering from a torn
// tail by truncating back to the last intact record.
func Open(path string, policy SyncPolicy) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{path: path, f: f, policy: policy, done: make(chan struct{})}
	j.cond = sync.NewCond(&j.mu)
	if err := j.recover(); err != nil {
		f.Close()
		return nil, err
	}
	go j.writer()
	return j, nil
}

// writer is the group-commit goroutine: it drains pending in one write
// per wakeup (plus one shared fsync under SyncAlways) and advances the
// flushed frontier. A write error is sticky: recorded, broadcast, and
// terminal for the goroutine — appends already acknowledged under
// SyncNone are lost exactly as an OS-cache loss would be.
func (j *Journal) writer() {
	defer close(j.done)
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		// Linger before parking: during an update stream the next record
		// arrives within a few scheduler yields, and picking it up here
		// keeps the ingest path free of futex wakeups. Park (and require
		// a Broadcast) only after the linger budget finds nothing.
		spins := 0
		for len(j.pending) == 0 && !j.closing && j.werr == nil {
			if spins < writerLinger {
				spins++
				j.mu.Unlock()
				runtime.Gosched()
				j.mu.Lock()
				continue
			}
			j.idle = true
			j.cond.Wait()
			j.idle = false
			spins = 0
		}
		if j.werr != nil || (j.closing && len(j.pending) == 0) {
			return
		}
		recs := j.pending
		j.pending = j.spare[:0]
		j.spare = nil
		// Pending is fully drained, so the logical end is exactly what
		// this batch lands.
		target := j.end
		f := j.f
		j.mu.Unlock()
		stamp := time.Now().UnixNano()
		buf := j.encBuf[:0]
		for _, r := range recs {
			n := uint32(16 + len(r.payload))
			start := len(buf)
			buf = binary.BigEndian.AppendUint32(buf, n)
			buf = binary.BigEndian.AppendUint64(buf, r.seq)
			buf = binary.BigEndian.AppendUint64(buf, uint64(stamp))
			buf = append(buf, r.payload...)
			buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start+4:]))
		}
		j.encBuf = buf // writer-owned; kept for the next batch
		_, err := f.Write(buf)
		if err == nil && j.policy == SyncAlways {
			err = f.Sync()
		}
		j.mu.Lock()
		j.spare = recs[:0]
		if err != nil {
			j.werr = err
		} else {
			j.phys = target
		}
		j.cond.Broadcast()
	}
}

// recover reads the header (writing one into an empty file), scans the
// records, and truncates a torn tail.
func (j *Journal) recover() error {
	info, err := j.f.Stat()
	if err != nil {
		return err
	}
	if info.Size() == 0 {
		return j.writeHeader(0)
	}
	hdr, hdrLen, err := readHeader(j.f)
	if err != nil {
		return err
	}
	j.base = hdr
	// Scan records from the header to find the last intact end.
	pos := int64(hdrLen)
	logical := j.base
	buf := make([]byte, 0, 4096)
	for {
		var lenb [4]byte
		if _, err := j.f.ReadAt(lenb[:], pos); err != nil {
			break // clean EOF or a torn length prefix: stop here
		}
		n := binary.BigEndian.Uint32(lenb[:])
		if n < 16 || n > maxRecord {
			break // implausible length: torn or corrupt tail
		}
		if cap(buf) < int(n)+4 {
			buf = make([]byte, n+4)
		}
		body := buf[:n+4]
		if _, err := io.ReadFull(io.NewSectionReader(j.f, pos+4, int64(n)+4), body); err != nil {
			break // record body truncated
		}
		if crc32.ChecksumIEEE(body[:n]) != binary.BigEndian.Uint32(body[n:]) {
			break // checksum mismatch: torn (or corrupted) record
		}
		pos += int64(recordOverhead) + int64(n) - 16
		logical += uint64(recordOverhead) + uint64(n) - 16
	}
	if drop := info.Size() - pos; drop > 0 {
		if err := j.f.Truncate(pos); err != nil {
			return fmt.Errorf("journal: truncating torn tail: %w", err)
		}
		j.dropped = drop
	}
	if _, err := j.f.Seek(0, io.SeekEnd); err != nil {
		return err
	}
	j.end, j.phys = logical, logical
	return nil
}

func (j *Journal) writeHeader(base uint64) error {
	if _, err := fmt.Fprintf(j.f, "%s %d\n", headerVersion, base); err != nil {
		return err
	}
	j.base, j.end, j.phys = base, base, base
	return nil
}

// readHeader parses the header line, returning the base offset and the
// header's byte length.
func readHeader(f *os.File) (base uint64, hdrLen int, err error) {
	buf := make([]byte, 64)
	n, err := f.ReadAt(buf, 0)
	if err != nil && err != io.EOF {
		return 0, 0, err
	}
	line, _, ok := strings.Cut(string(buf[:n]), "\n")
	if ok && strings.HasPrefix(line, headerVersionV1+" ") {
		// Version-1 payloads are text; reading them as frames would fail
		// record by record at best. Its records are covered by any state
		// file written after them, so the remedy loses nothing.
		return 0, 0, fmt.Errorf("journal: %s is a %q file and this build reads %q (dnbin record payloads): "+
			"checkpoint or stop the old build cleanly so its state file is current, then remove the journal — a fresh one is created",
			f.Name(), headerVersionV1, headerVersion)
	}
	if !ok || !strings.HasPrefix(line, headerVersion+" ") {
		return 0, 0, fmt.Errorf("journal: not a %q file", headerVersion)
	}
	base, err = strconv.ParseUint(strings.TrimPrefix(line, headerVersion+" "), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("journal: bad base offset in header: %v", err)
	}
	return base, len(line) + 1, nil
}

// Dropped returns the torn-tail bytes Open discarded during recovery.
func (j *Journal) Dropped() int64 { return j.dropped }

// Base returns the logical offset of the oldest retained record.
func (j *Journal) Base() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.base
}

// End returns the logical offset past the newest record — the cursor of
// a fully caught-up consumer.
func (j *Journal) End() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.end
}

// Append queues one record and returns its end offset. The record is
// handed to the group-commit writer, which lands each drained batch with
// a single write call — so a crash still tears at most one record-batch
// tail, which Open drops on restart. Under SyncNone Append returns as
// soon as the record is queued (its durability class is unchanged: the
// bytes were never fsynced anyway); under SyncAlways it blocks until the
// record is physically on disk, sharing the batch's one fsync with every
// other append that landed in it.
func (j *Journal) Append(seq uint64, payload string) (end uint64, err error) {
	if len(payload) > MaxPayload {
		return 0, fmt.Errorf("journal: record payload %d bytes exceeds %d", len(payload), MaxPayload)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.werr != nil {
		return 0, j.werr
	}
	if j.closing {
		return 0, errors.New("journal: closed")
	}
	// A record's on-disk size is deterministic, so the logical end
	// advances immediately; framing waits for the writer.
	j.pending = append(j.pending, pendingRec{seq: seq, payload: payload})
	j.end += uint64(recordOverhead + len(payload))
	end = j.end
	if j.idle {
		j.cond.Broadcast()
	}
	if j.policy == SyncAlways {
		for j.phys < end && j.werr == nil {
			j.cond.Wait()
		}
		if j.werr != nil {
			return 0, j.werr
		}
	}
	return end, nil
}

// flushLocked waits until every queued record is physically in the file
// (or the writer has failed). Callers hold j.mu.
func (j *Journal) flushLocked() error {
	j.cond.Broadcast()
	for j.phys < j.end && j.werr == nil {
		j.cond.Wait()
	}
	return j.werr
}

// Rotate discards records before the `from` offset: the retained suffix
// is copied into a fresh file whose header base is from, which then
// atomically replaces the journal. Offsets keep their meaning — a
// consumer at or past from is unaffected; one behind it gets
// ErrTruncated from ReadFrom and must re-anchor on a checkpoint. Call
// it after a checkpoint at offset from, so the journal stays bounded by
// the checkpoint interval's churn.
func (j *Journal) Rotate(from uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	// Land every queued record first: the copy below must see the full
	// suffix, and the writer must be idle while descriptors swap.
	if err := j.flushLocked(); err != nil {
		return err
	}
	if from < j.base || from > j.end {
		return fmt.Errorf("journal: rotate offset %d outside retained range [%d, %d]", from, j.base, j.end)
	}
	tmp := j.path + ".rotate"
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := fmt.Fprintf(nf, "%s %d\n", headerVersion, from); err != nil {
		return cleanup(err)
	}
	// Copy the surviving suffix byte-for-byte: record boundaries are
	// preserved because from is a record boundary offset (an Append
	// return value or Base/End).
	_, hdrLen, err := readHeader(j.f)
	if err != nil {
		return cleanup(err)
	}
	start := int64(hdrLen) + int64(from-j.base)
	if _, err := io.Copy(nf, io.NewSectionReader(j.f, start, int64(j.end-from))); err != nil {
		return cleanup(err)
	}
	if err := nf.Sync(); err != nil {
		return cleanup(err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		return cleanup(err)
	}
	// Readers holding the old descriptor keep a consistent view of the
	// old (now unlinked) file; new ReadFrom calls open the rotated one.
	j.f.Close()
	j.f, j.base = nf, from
	if _, err := nf.Seek(0, io.SeekEnd); err != nil {
		return err
	}
	return nil
}

// Close flushes queued records, stops the writer goroutine, and closes
// the journal file. It returns the writer's sticky error, if any.
func (j *Journal) Close() error {
	j.mu.Lock()
	if !j.closing {
		j.closing = true
		j.cond.Broadcast()
	}
	j.mu.Unlock()
	<-j.done // writer drains pending (or has failed) before exiting
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.werr
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Reader iterates the records of one journal snapshot, from a starting
// offset up to the end the journal had when the Reader was created.
// Records appended later need a fresh ReadFrom (compare cursor against
// End to know when to stop).
type Reader struct {
	f      *os.File
	br     *bufio.Reader // sequential read-ahead over the snapshot's bytes
	body   []byte        // record buffer, reused across Next calls
	cursor uint64        // logical offset of the next record
	limit  uint64        // logical end at snapshot time
}

// ReadFrom returns a Reader over the records after the `from` offset.
// It fails with ErrTruncated (wrapped) when rotation has discarded the
// requested suffix — the caller's cursor predates the retained base.
// Records queued but not yet landed by the group-commit writer are
// flushed first, so the snapshot always covers the journal's logical
// end as of the call.
func (j *Journal) ReadFrom(from uint64) (*Reader, error) {
	j.mu.Lock()
	if from > j.end {
		end := j.end
		j.mu.Unlock()
		return nil, fmt.Errorf("journal: offset %d past end %d", from, end)
	}
	if err := j.flushLocked(); err != nil {
		j.mu.Unlock()
		return nil, err
	}
	base, end, path := j.base, j.phys, j.path
	j.mu.Unlock()
	if from < base {
		return nil, fmt.Errorf("%w: offset %d, base %d", ErrTruncated, from, base)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// Re-validate against the descriptor actually opened: a concurrent
	// Rotate between the snapshot above and the Open lands us on the
	// rotated file, whose base may now exceed from.
	fbase, hdrLen, err := readHeader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if from < fbase {
		f.Close()
		return nil, fmt.Errorf("%w: offset %d, base %d", ErrTruncated, from, fbase)
	}
	span := io.NewSectionReader(f, int64(hdrLen)+int64(from-fbase), int64(end-from))
	return &Reader{f: f, br: bufio.NewReaderSize(span, 64<<10), cursor: from, limit: end}, nil
}

// Next returns the next record, or io.EOF at the snapshot's end.
func (r *Reader) Next() (Record, error) {
	if r.cursor >= r.limit {
		return Record{}, io.EOF
	}
	var lenb [4]byte
	if _, err := io.ReadFull(r.br, lenb[:]); err != nil {
		return Record{}, fmt.Errorf("journal: reading record length at %d: %w", r.cursor, err)
	}
	n := binary.BigEndian.Uint32(lenb[:])
	if n < 16 || n > maxRecord {
		return Record{}, fmt.Errorf("journal: implausible record length %d at offset %d", n, r.cursor)
	}
	if cap(r.body) < int(n)+4 {
		r.body = make([]byte, n+4)
	}
	body := r.body[:n+4]
	if _, err := io.ReadFull(r.br, body); err != nil {
		return Record{}, fmt.Errorf("journal: reading record at %d: %w", r.cursor, err)
	}
	if crc32.ChecksumIEEE(body[:n]) != binary.BigEndian.Uint32(body[n:]) {
		return Record{}, fmt.Errorf("journal: checksum mismatch at offset %d", r.cursor)
	}
	r.cursor += uint64(recordOverhead) + uint64(n) - 16
	return Record{
		Seq:     binary.BigEndian.Uint64(body[0:8]),
		Stamp:   int64(binary.BigEndian.Uint64(body[8:16])),
		End:     r.cursor,
		Payload: body[16:n],
	}, nil
}

// Cursor returns the logical offset of the next record Next would
// return — after io.EOF, the caller's resume cursor.
func (r *Reader) Cursor() uint64 { return r.cursor }

// Close closes the reader's descriptor.
func (r *Reader) Close() error { return r.f.Close() }
