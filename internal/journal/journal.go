// Package journal is the append-only update journal underpinning the
// replication tier: the primary appends one record per applied mutation
// (a rule update, an atomic batch, or a topology change), and a read
// replica replays the records — a checkpoint plus the journal suffix
// after its offset is a complete recovery story, shrinking crash loss
// to zero between checkpoints (modulo the fsync policy).
//
// A journal has one appender. Append frames a record into an in-memory
// buffer and Flush lands everything buffered with one write call (plus
// one fsync under SyncAlways): Flush is the durability point, and a
// caller that flushes once per batch of work gets group commit by
// construction. Readers (ReadFrom) and Rotate see the flushed records
// only. There is no background goroutine.
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
//	i64  stamp    (unix nanoseconds when the record was appended;
//	              replica lag source)
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
// Records reach the file in one sequential write per Flush, so a crash
// can leave at most one torn record at the tail (a partial write is a
// run of intact records followed by the cut). Open scans the file and
// truncates back to the end of the last intact record (length
// plausible, payload present, CRC matching), reporting how many bytes
// were dropped; a torn tail is expected damage, not corruption, and the
// journal stays usable.
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrTruncated reports a read below the journal's retained base: the
// requested records were discarded by rotation, and the caller must
// re-anchor on a fresh checkpoint instead of resuming.
var ErrTruncated = errors.New("journal: offset below retained base (re-anchor on a checkpoint)")

// SyncPolicy says whether Flush fsyncs the file.
type SyncPolicy int

const (
	// SyncNone never fsyncs: a machine crash can lose the OS-buffered
	// tail (a process crash loses nothing that was flushed — the write
	// has happened).
	SyncNone SyncPolicy = iota
	// SyncAlways fsyncs at every Flush: crash loss is zero for flushed
	// records at the cost of one disk flush per Flush.
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

// flushAt is the buffer size past which Append flushes on its own, so an
// appender that never calls Flush still holds a bounded buffer.
const flushAt = 64 << 10

// errClosed is the sticky error of a closed journal.
var errClosed = errors.New("journal: closed")

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

// Journal is an append-only journal file with one appender: Append and
// Flush must not be called concurrently with each other. Rotate,
// ReadFrom, Base, End and Close may run on any goroutine.
//
// Append frames the record into buf and advances end; Flush writes buf
// with one call and, under SyncAlways, fsyncs. A failed write or fsync
// is sticky: the buffered records are dropped, end rolls back to the
// flushed frontier (so End never names bytes the file may not hold), and
// every later Append and Flush returns the same error.
type Journal struct {
	// mu orders the appender against Rotate, ReadFrom and Close (which
	// swap or read the descriptor and the flushed frontier); readers run
	// on their own descriptors and never hold it past ReadFrom's setup.
	mu     sync.Mutex
	path   string
	f      *os.File
	policy SyncPolicy
	// buf holds the framed records not yet written, the bytes between the
	// flushed frontier and end.
	buf []byte
	err error // sticky: the first failed write or fsync, or errClosed
	// base is the logical offset of the first retained record and end the
	// offset past the last appended one; written under mu, read without it.
	base, end atomic.Uint64
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
	j := &Journal{path: path, f: f, policy: policy}
	if err := j.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
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
	j.base.Store(hdr)
	// Scan records from the header to find the last intact end.
	pos := int64(hdrLen)
	logical := hdr
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
	j.end.Store(logical)
	return nil
}

func (j *Journal) writeHeader(base uint64) error {
	if _, err := fmt.Fprintf(j.f, "%s %d\n", headerVersion, base); err != nil {
		return err
	}
	j.base.Store(base)
	j.end.Store(base)
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
func (j *Journal) Base() uint64 { return j.base.Load() }

// End returns the logical offset past the newest appended record — once
// the appender has flushed, the cursor of a fully caught-up consumer.
func (j *Journal) End() uint64 { return j.end.Load() }

// flushedLocked returns the flushed frontier: the offset past the last
// record in the file. Callers hold j.mu.
func (j *Journal) flushedLocked() uint64 { return j.end.Load() - uint64(len(j.buf)) }

// Append frames one record into the journal's buffer and returns its end
// offset. The record reaches the file at the next Flush — or within
// Append, once the buffer passes flushAt; a failed write there fails this
// Append and drops the records buffered before it (see Journal). Append
// copies payload and does not retain it.
func (j *Journal) Append(seq uint64, payload string) (end uint64, err error) {
	if len(payload) > MaxPayload {
		return 0, fmt.Errorf("journal: record payload %d bytes exceeds %d", len(payload), MaxPayload)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return 0, j.err
	}
	start := len(j.buf)
	j.buf = binary.BigEndian.AppendUint32(j.buf, uint32(16+len(payload)))
	j.buf = binary.BigEndian.AppendUint64(j.buf, seq)
	j.buf = binary.BigEndian.AppendUint64(j.buf, uint64(time.Now().UnixNano()))
	j.buf = append(j.buf, payload...)
	j.buf = binary.BigEndian.AppendUint32(j.buf, crc32.ChecksumIEEE(j.buf[start+4:]))
	end = j.end.Add(uint64(recordOverhead + len(payload)))
	if len(j.buf) >= flushAt {
		if err := j.writeLocked(); err != nil {
			return 0, err
		}
	}
	return end, nil
}

// Flush lands every buffered record with one write call and, under
// SyncAlways, one fsync: the records Append returned before it are then
// in the file, and readable by ReadFrom. It returns the sticky error of
// a failed journal (see Journal).
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.writeLocked()
}

// writeLocked is Flush's body. Callers hold j.mu.
func (j *Journal) writeLocked() error {
	if j.err != nil || len(j.buf) == 0 {
		return j.err
	}
	_, err := j.f.Write(j.buf)
	if err == nil && j.policy == SyncAlways {
		err = j.f.Sync()
	}
	if err != nil {
		j.err = fmt.Errorf("journal: %w", err)
		j.end.Store(j.flushedLocked())
	}
	j.buf = j.buf[:0]
	return j.err
}

// Rotate discards records before the `from` offset: the flushed suffix
// is copied into a fresh file whose header base is from, which then
// atomically replaces the journal (records still buffered land in the
// fresh file at the next Flush). Offsets keep their meaning — a consumer
// at or past from is unaffected; one behind it gets ErrTruncated from
// ReadFrom and must re-anchor on a checkpoint. Call it after a checkpoint
// at offset from, so the journal stays bounded by the checkpoint
// interval's churn; from must be flushed.
func (j *Journal) Rotate(from uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	base, flushed := j.base.Load(), j.flushedLocked()
	if from < base || from > flushed {
		return fmt.Errorf("journal: rotate offset %d outside flushed range [%d, %d]", from, base, flushed)
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
	start := int64(hdrLen) + int64(from-base)
	if _, err := io.Copy(nf, io.NewSectionReader(j.f, start, int64(flushed-from))); err != nil {
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
	j.f = nf
	j.base.Store(from)
	if _, err := nf.Seek(0, io.SeekEnd); err != nil {
		return err
	}
	return nil
}

// Close flushes buffered records and closes the journal file. It returns
// the sticky error of a failed journal, if any.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.writeLocked()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.err = errClosed
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

// ReadFrom returns a Reader over the flushed records after the `from`
// offset. It fails with ErrTruncated (wrapped) when rotation has
// discarded the requested suffix — the caller's cursor predates the
// retained base. Records the appender has not flushed yet are not in
// the snapshot.
func (j *Journal) ReadFrom(from uint64) (*Reader, error) {
	j.mu.Lock()
	base, end, path := j.base.Load(), j.flushedLocked(), j.path
	j.mu.Unlock()
	if from > end {
		return nil, fmt.Errorf("journal: offset %d past flushed end %d", from, end)
	}
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
