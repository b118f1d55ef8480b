// Package binproto is the length-prefixed binary batch framing of the
// high-rate ingestion front end. A client upgrades a line-protocol
// connection with the "dnbin 1" handshake verb; from then on the
// client→server direction carries binary frames of packed rule
// operations while server→client replies stay text lines ("ok sync
// ...", "busy depth=...", "err frame ..."), so the server's guarded
// single-writer funnel is unchanged.
//
// The same frames are the update journal's record payloads, the
// replication stream's record bodies and the state checkpoint
// (internal/server): a mutation is decoded from its wire form once and
// stays a frame from then on, so the primary's journal append, crash
// replay, every replica and every checkpoint share this one encoder and
// this one decoder.
//
// Frame layout (all multi-byte integers little-endian or unsigned
// varint as noted):
//
//	u32 length   — payload byte count, ≤ MaxFrame on a stream
//	u8  kind     — KindOps, KindSync, KindNode, KindLink or KindMeta
//	payload body
//
// KindOps body: uvarint op count, then count packed ops. Each op opens
// with a u8 tag (TagInsert / TagRemove):
//
//	TagInsert: uvarint ruleID, uvarint srcNode, uvarint link+1
//	           (0 encodes the -1 drop link), uvarint lo,
//	           uvarint hi-lo, uvarint priority
//	TagRemove: uvarint ruleID
//
// KindSync body: uvarint token. A sync frame is a barrier: the server
// replies "ok sync <token> applied=<n>" once every op framed before it
// has been applied to the data plane, which is how a feeder bounds its
// outstanding window and how tests and benchmarks get a quiesce point.
//
// KindNode body: the node name, raw bytes to the end of the frame
// (non-empty, no ASCII whitespace — a line-protocol token). KindLink
// body: uvarint srcNode, uvarint dstNode. These two are journal-record
// kinds ("node <name>", "link <src> <dst>"): topology changes are rare
// and ordered against rule updates, so they travel the line protocol
// live and a client stream carrying them is refused.
//
// KindMeta body: uvarint drop node+1 (0: none), uvarint last event seq,
// uvarint update seq, uvarint journal offset, then invariant specs to
// the end of the frame, each a uvarint length and its bytes. It ends a
// checkpoint (a compacted journal: node, link and insert frames, then
// one meta frame), and no client stream or journal carries it.
//
// The varint packing is what makes the format fast, not clever: a
// typical insert is ~15 bytes against ~40 for its text line, and
// decoding is a handful of branch-predictable byte loads with no
// allocation, so parsing moves off the engine lock entirely (the
// server decodes frames on the connection goroutine and hands finished
// ops to the ingest ring).
package binproto

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"deltanet/internal/core"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
)

// Version is the only handshake version this package speaks; the
// "dnbin 1" verb names it.
const Version = 1

// MaxFrame bounds one frame's payload on a stream — a client's, or a
// state file's — so a bad length prefix cannot make the reader buffer
// unbounded input (mirrors the line protocol's maxLine). Decode, which
// is handed a frame already in memory, is bounded by its argument
// instead.
const MaxFrame = 1 << 20

// Frame kinds.
const (
	KindOps  = 1 // packed rule operations
	KindSync = 2 // barrier: reply when everything before it is applied
	KindNode = 3 // journal record: add a node by name
	KindLink = 4 // journal record: add a link between two node ids
	KindMeta = 5 // checkpoint trailer: counters and invariant specs
)

// Op tags inside a KindOps frame.
const (
	TagInsert = 0
	TagRemove = 1
)

// minOpBytes is the smallest packed op (a remove: tag + one-byte id),
// which bounds the op count a body of a given size can honestly declare.
const minOpBytes = 2

// Bounds for the wire's narrowing casts: rule ids are int64, node/link
// ids and priorities int32 (links shifted by one for the -1 drop link).
const (
	maxInt63 = 1<<63 - 1
	maxInt31 = 1<<31 - 1
)

// AppendOps appends one KindOps frame carrying ops to dst and returns
// the extended slice. Ops must satisfy the wire's ranges: non-negative
// rule ids, sources, priorities, and links ≥ -1 (the caller owns
// semantic validation against a topology).
func AppendOps(dst []byte, ops []core.BatchOp) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, KindOps)
	dst = binary.AppendUvarint(dst, uint64(len(ops)))
	for i := range ops {
		dst = appendOp(dst, &ops[i])
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// AppendSync appends one KindSync barrier frame carrying token.
func AppendSync(dst []byte, token uint64) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, KindSync)
	dst = binary.AppendUvarint(dst, token)
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// AppendNode appends one KindNode frame recording "node <name>".
func AppendNode(dst []byte, name string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(1+len(name)))
	dst = append(dst, KindNode)
	return append(dst, name...)
}

// AppendLink appends one KindLink frame recording "link <src> <dst>".
func AppendLink(dst []byte, src, to netgraph.NodeID) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, KindLink)
	dst = binary.AppendUvarint(dst, uint64(src))
	dst = binary.AppendUvarint(dst, uint64(to))
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// Meta is a KindMeta frame's body.
type Meta struct {
	Drop    netgraph.NodeID // the drop sink, or netgraph.NoNode
	Seq     uint64          // last published event sequence number
	Upd     uint64          // update sequence counter
	Journal uint64          // journal offset the checkpoint is current through
	Specs   []string        // standing invariants, monitor.FormatSpec form
}

// AppendMeta appends one KindMeta frame carrying m.
func AppendMeta(dst []byte, m *Meta) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, KindMeta)
	dst = binary.AppendUvarint(dst, uint64(m.Drop+1))
	dst = binary.AppendUvarint(dst, m.Seq)
	dst = binary.AppendUvarint(dst, m.Upd)
	dst = binary.AppendUvarint(dst, m.Journal)
	for _, spec := range m.Specs {
		dst = binary.AppendUvarint(dst, uint64(len(spec)))
		dst = append(dst, spec...)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

func appendOp(dst []byte, op *core.BatchOp) []byte {
	if !op.Insert {
		dst = append(dst, TagRemove)
		return binary.AppendUvarint(dst, uint64(op.Rule.ID))
	}
	dst = append(dst, TagInsert)
	dst = binary.AppendUvarint(dst, uint64(op.Rule.ID))
	dst = binary.AppendUvarint(dst, uint64(op.Rule.Source))
	dst = binary.AppendUvarint(dst, uint64(op.Rule.Link+1))
	dst = binary.AppendUvarint(dst, op.Rule.Match.Lo)
	dst = binary.AppendUvarint(dst, op.Rule.Match.Hi-op.Rule.Match.Lo)
	return binary.AppendUvarint(dst, uint64(op.Rule.Priority))
}

// Frame is one decoded frame: Ops (KindOps), a sync barrier (KindSync,
// Token set), a node record (KindNode, Name set), a link record
// (KindLink, Src and Dst set) or a checkpoint trailer (KindMeta, Meta
// set).
type Frame struct {
	Kind     uint8
	Token    uint64
	Ops      []core.BatchOp
	Name     string
	Src, Dst netgraph.NodeID
	Meta     *Meta
}

// Reader decodes frames from a byte stream. It reuses its payload and
// op buffers across frames, so a returned Frame (and its Ops slice) is
// only valid until the next Read — the decode loop hands ops onward
// before reading again.
type Reader struct {
	r    io.Reader
	head [5]byte // length prefix + kind
	buf  []byte
	ops  []core.BatchOp
}

// NewReader returns a frame decoder over r. The server passes the
// connection's buffered reader so bytes buffered before the handshake
// upgrade are not lost.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Read decodes the next frame. io.EOF means a clean end of stream at a
// frame boundary; any other error (including io.ErrUnexpectedEOF for a
// truncated frame) means the stream is corrupt or dead.
func (fr *Reader) Read() (Frame, error) {
	if _, err := io.ReadFull(fr.r, fr.head[:4]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF // a clean close can land mid-prefix read on some transports
		}
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint32(fr.head[:4])
	if n < 1 || n > MaxFrame {
		return Frame{}, fmt.Errorf("frame length %d outside 1..%d", n, MaxFrame)
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	f, err := decodePayload(fr.buf, fr.ops[:0])
	if f.Kind == KindOps {
		fr.ops = f.Ops // keep the grown op buffer for the next frame
	}
	return f, err
}

// Decode decodes one complete frame held in p, length prefix included —
// a journal record payload or a replication stream body. Decoded ops
// are appended to ops[:0], so a caller that passes the previous call's
// Frame.Ops back decodes a steady stream without allocating. The frame
// must fill p exactly.
func Decode(p []byte, ops []core.BatchOp) (Frame, error) {
	if len(p) < 5 || uint64(binary.LittleEndian.Uint32(p)) != uint64(len(p)-4) {
		return Frame{}, fmt.Errorf("frame length prefix does not match its %d bytes", len(p))
	}
	return decodePayload(p[4:], ops[:0])
}

// decodePayload decodes a frame's kind byte and body (p is non-empty),
// appending any ops to ops.
func decodePayload(p []byte, ops []core.BatchOp) (Frame, error) {
	kind, p := p[0], p[1:]
	switch kind {
	case KindSync:
		token, sz := binary.Uvarint(p)
		if sz <= 0 || sz != len(p) {
			return Frame{}, fmt.Errorf("malformed sync frame")
		}
		return Frame{Kind: KindSync, Token: token}, nil
	case KindOps:
		// A count the body cannot hold is rejected before any decoding.
		count, sz := binary.Uvarint(p)
		if sz <= 0 || count > uint64(len(p)-sz)/minOpBytes {
			return Frame{}, fmt.Errorf("bad op count in frame")
		}
		p = p[sz:]
		for i := uint64(0); i < count; i++ {
			op, rest, err := decodeOp(p)
			if err != nil {
				return Frame{}, fmt.Errorf("op %d: %v", i, err)
			}
			ops = append(ops, op)
			p = rest
		}
		if len(p) != 0 {
			return Frame{}, fmt.Errorf("%d trailing bytes after %d ops", len(p), count)
		}
		return Frame{Kind: KindOps, Ops: ops}, nil
	case KindNode:
		if len(p) == 0 || bytes.ContainsAny(p, " \t\n\v\f\r") {
			return Frame{}, fmt.Errorf("node frame name is not one token")
		}
		return Frame{Kind: KindNode, Name: string(p)}, nil
	case KindLink:
		src, n1 := binary.Uvarint(p)
		if n1 <= 0 {
			return Frame{}, fmt.Errorf("malformed link frame")
		}
		to, n2 := binary.Uvarint(p[n1:])
		if n2 <= 0 || n1+n2 != len(p) || src > maxInt31 || to > maxInt31 {
			return Frame{}, fmt.Errorf("malformed link frame")
		}
		return Frame{Kind: KindLink, Src: netgraph.NodeID(src), Dst: netgraph.NodeID(to)}, nil
	case KindMeta:
		var v [4]uint64
		for i := range v {
			x, sz := binary.Uvarint(p)
			if sz <= 0 || (i == 0 && x > maxInt31+1) {
				return Frame{}, fmt.Errorf("malformed meta frame")
			}
			v[i], p = x, p[sz:]
		}
		m := &Meta{Drop: netgraph.NodeID(int64(v[0]) - 1), Seq: v[1], Upd: v[2], Journal: v[3]}
		for len(p) > 0 {
			n, sz := binary.Uvarint(p)
			if sz <= 0 || n > uint64(len(p)-sz) {
				return Frame{}, fmt.Errorf("malformed meta frame spec")
			}
			m.Specs, p = append(m.Specs, string(p[sz:sz+int(n)])), p[sz+int(n):]
		}
		return Frame{Kind: KindMeta, Meta: m}, nil
	default:
		return Frame{}, fmt.Errorf("unknown frame kind %d", kind)
	}
}

func decodeOp(p []byte) (core.BatchOp, []byte, error) {
	if len(p) == 0 {
		return core.BatchOp{}, nil, fmt.Errorf("missing tag")
	}
	tag, p := p[0], p[1:]
	switch tag {
	case TagRemove:
		id, sz := binary.Uvarint(p)
		if sz <= 0 || id > maxInt63 {
			return core.BatchOp{}, nil, fmt.Errorf("bad rule id")
		}
		return core.RemoveOp(core.RuleID(id)), p[sz:], nil
	case TagInsert:
		var v [6]uint64
		for i := range v {
			x, sz := binary.Uvarint(p)
			if sz <= 0 {
				return core.BatchOp{}, nil, fmt.Errorf("truncated insert field %d", i)
			}
			v[i] = x
			p = p[sz:]
		}
		// Range checks keep the narrowing casts below honest: a huge
		// varint must not alias into a valid id through truncation.
		if v[0] > maxInt63 || v[1] > maxInt31 || v[2] > maxInt31 || v[5] > maxInt31 {
			return core.BatchOp{}, nil, fmt.Errorf("insert field out of range")
		}
		lo, span := v[3], v[4]
		if lo+span < lo {
			return core.BatchOp{}, nil, fmt.Errorf("interval overflows")
		}
		return core.InsertOp(core.Rule{
			ID:       core.RuleID(v[0]),
			Source:   netgraph.NodeID(v[1]),
			Link:     netgraph.LinkID(int32(v[2]) - 1),
			Match:    ipnet.Interval{Lo: lo, Hi: lo + span},
			Priority: core.Priority(v[5]),
		}), p, nil
	default:
		return core.BatchOp{}, nil, fmt.Errorf("unknown op tag %d", tag)
	}
}
