// Package openflow implements a compact OpenFlow-inspired binary wire
// format for flow-table modifications. The paper's experimental setup
// drives Delta-net from OpenFlow rule install/remove messages emitted by
// ONOS toward Open vSwitch (§4.2.2, Figure 7); this package provides the
// equivalent wire layer for this reproduction: a fixed-size FlowMod
// record with marshal/unmarshal, stream framing over io.Reader/Writer,
// and converters to and from the engine's operations.
//
// The format is deliberately minimal (single match field, as Veriflow-RI
// and the paper's datasets are single-field), versioned for forward
// compatibility, and fixed-size so a stream needs no length prefixes:
//
//	offset  size  field
//	0       1     version (currently 1)
//	1       1     command (0 = add, 1 = delete)
//	2       2     priority, big endian
//	4       8     rule id (cookie), big endian
//	12      4     switch node id, big endian
//	16      4     out link id, big endian (0xFFFFFFFF = drop)
//	20      8     match lower bound, big endian
//	28      8     match upper bound (exclusive), big endian
package openflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"deltanet/internal/core"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
)

// Version is the current wire version.
const Version = 1

// MessageSize is the fixed encoded size of one FlowMod.
const MessageSize = 36

// Command distinguishes flow additions from deletions.
type Command uint8

const (
	// CmdAdd installs a flow rule.
	CmdAdd Command = 0
	// CmdDelete removes a flow rule by cookie.
	CmdDelete Command = 1
)

// dropLinkWire encodes "no out link" (a drop rule) on the wire.
const dropLinkWire = 0xFFFFFFFF

// FlowMod is one flow-table modification.
type FlowMod struct {
	Command  Command
	Priority uint16
	Cookie   uint64 // rule id
	Switch   uint32
	OutLink  int32 // -1 = drop
	MatchLo  uint64
	MatchHi  uint64
}

// Errors returned by the codec.
var (
	ErrShort    = errors.New("openflow: buffer shorter than message size")
	ErrVersion  = errors.New("openflow: unsupported version")
	ErrCommand  = errors.New("openflow: unknown command")
	ErrBadMatch = errors.New("openflow: match upper bound not greater than lower")
)

// Marshal encodes the FlowMod into a fresh MessageSize-byte slice.
func (m *FlowMod) Marshal() []byte {
	buf := make([]byte, MessageSize)
	m.MarshalTo(buf)
	return buf
}

// MarshalTo encodes into buf, which must hold MessageSize bytes.
func (m *FlowMod) MarshalTo(buf []byte) {
	_ = buf[MessageSize-1]
	buf[0] = Version
	buf[1] = byte(m.Command)
	binary.BigEndian.PutUint16(buf[2:], m.Priority)
	binary.BigEndian.PutUint64(buf[4:], m.Cookie)
	binary.BigEndian.PutUint32(buf[12:], m.Switch)
	if m.OutLink < 0 {
		binary.BigEndian.PutUint32(buf[16:], dropLinkWire)
	} else {
		binary.BigEndian.PutUint32(buf[16:], uint32(m.OutLink))
	}
	binary.BigEndian.PutUint64(buf[20:], m.MatchLo)
	binary.BigEndian.PutUint64(buf[28:], m.MatchHi)
}

// Unmarshal decodes one FlowMod from buf.
func Unmarshal(buf []byte) (FlowMod, error) {
	if len(buf) < MessageSize {
		return FlowMod{}, ErrShort
	}
	if buf[0] != Version {
		return FlowMod{}, fmt.Errorf("%w: %d", ErrVersion, buf[0])
	}
	cmd := Command(buf[1])
	if cmd != CmdAdd && cmd != CmdDelete {
		return FlowMod{}, fmt.Errorf("%w: %d", ErrCommand, buf[1])
	}
	m := FlowMod{
		Command:  cmd,
		Priority: binary.BigEndian.Uint16(buf[2:]),
		Cookie:   binary.BigEndian.Uint64(buf[4:]),
		Switch:   binary.BigEndian.Uint32(buf[12:]),
		MatchLo:  binary.BigEndian.Uint64(buf[20:]),
		MatchHi:  binary.BigEndian.Uint64(buf[28:]),
	}
	if raw := binary.BigEndian.Uint32(buf[16:]); raw == dropLinkWire {
		m.OutLink = -1
	} else {
		m.OutLink = int32(raw)
	}
	if m.Command == CmdAdd && m.MatchHi <= m.MatchLo {
		return FlowMod{}, ErrBadMatch
	}
	return m, nil
}

// Writer streams FlowMods onto an io.Writer.
type Writer struct {
	w   io.Writer
	buf [MessageSize]byte
}

// NewWriter returns a stream encoder.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Write encodes one message.
func (sw *Writer) Write(m *FlowMod) error {
	m.MarshalTo(sw.buf[:])
	_, err := sw.w.Write(sw.buf[:])
	return err
}

// Reader decodes a stream of FlowMods from an io.Reader.
type Reader struct {
	r   io.Reader
	buf [MessageSize]byte
}

// NewReader returns a stream decoder.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Read decodes the next message; io.EOF signals a clean end of stream and
// io.ErrUnexpectedEOF a truncated record.
func (sr *Reader) Read() (FlowMod, error) {
	if _, err := io.ReadFull(sr.r, sr.buf[:]); err != nil {
		return FlowMod{}, err
	}
	return Unmarshal(sr.buf[:])
}

// FromOp converts an engine operation to a FlowMod.
func FromOp(op core.BatchOp) FlowMod {
	if !op.Insert {
		return FlowMod{Command: CmdDelete, Cookie: uint64(op.Rule.ID)}
	}
	return FlowMod{
		Command:  CmdAdd,
		Priority: uint16(op.Rule.Priority),
		Cookie:   uint64(op.Rule.ID),
		Switch:   uint32(op.Rule.Source),
		OutLink:  int32(op.Rule.Link),
		MatchLo:  op.Rule.Match.Lo,
		MatchHi:  op.Rule.Match.Hi,
	}
}

// ToOp converts a FlowMod to an engine operation.
func ToOp(m FlowMod) core.BatchOp {
	if m.Command == CmdDelete {
		return core.RemoveOp(core.RuleID(m.Cookie))
	}
	return core.InsertOp(core.Rule{
		ID:       core.RuleID(m.Cookie),
		Source:   netgraph.NodeID(m.Switch),
		Link:     netgraph.LinkID(m.OutLink),
		Match:    ipnet.Interval{Lo: m.MatchLo, Hi: m.MatchHi},
		Priority: core.Priority(m.Priority),
	})
}

// EncodeOps writes a whole operation stream in wire format.
func EncodeOps(w io.Writer, ops []core.BatchOp) error {
	sw := NewWriter(w)
	for i := range ops {
		m := FromOp(ops[i])
		if err := sw.Write(&m); err != nil {
			return err
		}
	}
	return nil
}

// DecodeOps reads a whole operation stream until EOF.
func DecodeOps(r io.Reader) ([]core.BatchOp, error) {
	sr := NewReader(r)
	var ops []core.BatchOp
	for {
		m, err := sr.Read()
		if err == io.EOF {
			return ops, nil
		}
		if err != nil {
			return nil, err
		}
		ops = append(ops, ToOp(m))
	}
}
