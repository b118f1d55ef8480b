package openflow

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"deltanet/internal/core"
	"deltanet/internal/datasets"
	"deltanet/internal/netgraph"
	"deltanet/internal/trace"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	m := FlowMod{
		Command:  CmdAdd,
		Priority: 1234,
		Cookie:   0xDEADBEEFCAFE,
		Switch:   42,
		OutLink:  7,
		MatchLo:  100,
		MatchHi:  1 << 32,
	}
	got, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("round trip: %+v != %+v", got, m)
	}
	// Drop link sentinel survives.
	m.OutLink = -1
	got, err = Unmarshal(m.Marshal())
	if err != nil || got.OutLink != -1 {
		t.Fatalf("drop round trip: %+v, %v", got, err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	m := FlowMod{Command: CmdAdd, MatchLo: 0, MatchHi: 10}
	buf := m.Marshal()

	if _, err := Unmarshal(buf[:10]); err != ErrShort {
		t.Fatalf("short: %v", err)
	}
	bad := append([]byte(nil), buf...)
	bad[0] = 99
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("bad version accepted")
	}
	bad = append([]byte(nil), buf...)
	bad[1] = 7
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("bad command accepted")
	}
	empty := FlowMod{Command: CmdAdd, MatchLo: 10, MatchHi: 10}
	if _, err := Unmarshal(empty.Marshal()); err == nil {
		t.Fatal("empty match accepted")
	}
	// Deletes carry no match; an empty interval is fine there.
	del := FlowMod{Command: CmdDelete, Cookie: 5}
	if _, err := Unmarshal(del.Marshal()); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary valid FlowMods round-trip bit-exactly.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(prio uint16, cookie uint64, sw uint32, link int32, lo uint32, size uint16) bool {
		m := FlowMod{
			Command:  CmdAdd,
			Priority: prio,
			Cookie:   cookie,
			Switch:   sw,
			OutLink:  link,
			MatchLo:  uint64(lo),
			MatchHi:  uint64(lo) + uint64(size) + 1,
		}
		if m.OutLink < -1 {
			m.OutLink = -1
		}
		got, err := Unmarshal(m.Marshal())
		return err == nil && got == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamReaderWriter(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var want []FlowMod
	for i := 0; i < 100; i++ {
		m := FlowMod{Command: CmdAdd, Cookie: uint64(i), MatchLo: uint64(i), MatchHi: uint64(i + 1)}
		if i%3 == 0 {
			m = FlowMod{Command: CmdDelete, Cookie: uint64(i)}
		}
		if err := w.Write(&m); err != nil {
			t.Fatal(err)
		}
		want = append(want, m)
	}
	r := NewReader(&buf)
	for i := range want {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if got != want[i] {
			t.Fatalf("msg %d: %+v != %+v", i, got, want[i])
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
	// Truncated stream.
	half := bytes.NewReader(want[0].Marshal()[:MessageSize/2])
	if _, err := NewReader(half).Read(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated: %v", err)
	}
}

func TestOpConversion(t *testing.T) {
	ins := core.InsertOp(core.Rule{
		ID: 9, Source: 3, Link: netgraph.NoLink,
		Match: ivl(5, 500), Priority: 77,
	})
	m := FromOp(ins)
	if m.Command != CmdAdd || m.OutLink != -1 {
		t.Fatalf("FromOp: %+v", m)
	}
	back := ToOp(m)
	if !back.Insert || back.Rule != ins.Rule {
		t.Fatalf("ToOp: %+v", back)
	}
	del := core.RemoveOp(4)
	if got := ToOp(FromOp(del)); got.Insert || got.Rule.ID != 4 {
		t.Fatalf("delete conversion: %+v", got)
	}
}

// TestBinaryTraceReplay encodes a whole dataset in wire format, decodes
// it, and verifies the replayed behaviour matches the original trace.
func TestBinaryTraceReplay(t *testing.T) {
	tr, err := datasets.Build("4switch", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw := NewWriter(&buf)
	for i := range tr.Ops {
		m := FromOp(tr.Ops[i])
		if err := sw.Write(&m); err != nil {
			t.Fatal(err)
		}
	}
	if buf.Len() != len(tr.Ops)*MessageSize {
		t.Fatalf("encoded %d bytes for %d ops", buf.Len(), len(tr.Ops))
	}
	ops, err := DecodeOps(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != len(tr.Ops) {
		t.Fatalf("ops %d != %d", len(ops), len(tr.Ops))
	}
	a := core.NewNetwork(tr.Graph, core.Options{})
	b := core.NewNetwork(tr.Graph.Clone(), core.Options{})
	var d core.Delta
	for i := range tr.Ops {
		if err := trace.Apply(a, tr.Ops[i], &d); err != nil {
			t.Fatal(err)
		}
		if err := trace.Apply(b, ops[i], &d); err != nil {
			t.Fatal(err)
		}
	}
	if a.BehaviourDigest() != b.BehaviourDigest() {
		t.Fatal("binary round trip changed behaviour")
	}
}

func ivl(lo, hi uint64) (iv struct{ Lo, Hi uint64 }) {
	iv.Lo, iv.Hi = lo, hi
	return
}
