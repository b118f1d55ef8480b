package binproto

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"deltanet/internal/core"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
)

func randomOps(rng *rand.Rand, n int) []core.BatchOp {
	ops := make([]core.BatchOp, n)
	for i := range ops {
		if rng.Intn(3) == 0 {
			ops[i] = core.RemoveOp(core.RuleID(rng.Int63()))
			continue
		}
		lo := rng.Uint64() >> 1
		ops[i] = core.InsertOp(core.Rule{
			ID:       core.RuleID(rng.Int63()),
			Source:   netgraph.NodeID(rng.Int31()),
			Link:     netgraph.LinkID(rng.Int31() - 1), // includes the -1 drop link
			Match:    ipnet.Interval{Lo: lo, Hi: lo + uint64(rng.Int63n(1<<32))},
			Priority: core.Priority(rng.Int31()),
		})
	}
	return ops
}

// TestRoundTrip encodes streams of ops and sync frames and decodes them
// back, op for op, across a range of frame sizes including empty frames.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	var want [][]core.BatchOp
	for _, n := range []int{0, 1, 7, 256, 1000} {
		ops := randomOps(rng, n)
		want = append(want, ops)
		buf = AppendOps(buf, ops)
	}
	buf = AppendSync(buf, 424242)

	fr := NewReader(bytes.NewReader(buf))
	for i, ops := range want {
		f, err := fr.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Kind != KindOps {
			t.Fatalf("frame %d: kind %d, want ops", i, f.Kind)
		}
		if len(f.Ops) != len(ops) {
			t.Fatalf("frame %d: %d ops, want %d", i, len(f.Ops), len(ops))
		}
		for j := range ops {
			if !reflect.DeepEqual(f.Ops[j], ops[j]) {
				t.Fatalf("frame %d op %d: got %+v want %+v", i, j, f.Ops[j], ops[j])
			}
		}
	}
	f, err := fr.Read()
	if err != nil || f.Kind != KindSync || f.Token != 424242 {
		t.Fatalf("sync frame: %+v, %v", f, err)
	}
	if _, err := fr.Read(); err != io.EOF {
		t.Fatalf("after last frame: %v, want EOF", err)
	}
}

// TestRecordKinds round-trips the two topology record kinds and the
// in-memory Decode the journal and the replica stream use: the frame
// must fill its slice exactly, the op buffer is reused, and names that
// are not one line-protocol token are refused.
func TestRecordKinds(t *testing.T) {
	f, err := Decode(AppendNode(nil, "core-1"), nil)
	if err != nil || f.Kind != KindNode || f.Name != "core-1" {
		t.Fatalf("node frame: %+v, %v", f, err)
	}
	f, err = Decode(AppendLink(nil, 7, 1<<30), nil)
	if err != nil || f.Kind != KindLink || f.Src != 7 || f.Dst != 1<<30 {
		t.Fatalf("link frame: %+v, %v", f, err)
	}

	ops := randomOps(rand.New(rand.NewSource(4)), 40)
	raw := AppendOps(nil, ops)
	f, err = Decode(raw, nil)
	if err != nil || !reflect.DeepEqual(f.Ops, ops) {
		t.Fatalf("ops frame: %d ops, %v", len(f.Ops), err)
	}
	again, err := Decode(AppendOps(nil, ops[:10]), f.Ops)
	if err != nil || len(again.Ops) != 10 || &again.Ops[0] != &f.Ops[0] {
		t.Fatalf("Decode did not reuse the op buffer: %d ops, %v", len(again.Ops), err)
	}

	for name, p := range map[string][]byte{
		"short":          raw[:3],
		"cut":            raw[:len(raw)-1],
		"trailing":       append(append([]byte(nil), raw...), 0),
		"empty name":     AppendNode(nil, ""),
		"spaced name":    AppendNode(nil, "a b"),
		"newline name":   AppendNode(nil, "a\nrule 1 0 0 0 1 1"),
		"link one field": {2, 0, 0, 0, KindLink, 1},
		"link trailing":  {4, 0, 0, 0, KindLink, 1, 2, 3},
		"link too big":   AppendLink(nil, 1, netgraph.NodeID(-1)),
	} {
		if _, err := Decode(p, nil); err == nil {
			t.Errorf("%s: Decode accepted %v", name, p)
		}
	}
}

// TestMetaFrame round-trips a checkpoint trailer, with and without a
// drop node and specs, and refuses bodies whose fields or spec lengths
// run past the frame.
func TestMetaFrame(t *testing.T) {
	for _, m := range []Meta{
		{Drop: netgraph.NoNode},
		{Drop: 0, Seq: 1, Upd: 2, Journal: 3},
		{Drop: 1 << 30, Seq: 1 << 62, Upd: 7, Journal: 1 << 40, Specs: []string{"loopfree", "", "reach a b"}},
	} {
		f, err := Decode(AppendMeta(nil, &m), nil)
		if err != nil || f.Kind != KindMeta || !reflect.DeepEqual(*f.Meta, m) {
			t.Fatalf("meta %+v: decoded %+v, %v", m, f.Meta, err)
		}
	}
	full := AppendMeta(nil, &Meta{Drop: 2, Specs: []string{"reach a b"}})
	for name, p := range map[string][]byte{
		"no counters":  {1, 0, 0, 0, KindMeta},
		"one counter":  {2, 0, 0, 0, KindMeta, 0},
		"drop too big": AppendMeta(nil, &Meta{Drop: netgraph.NodeID(-2)}),
		"spec cut":     append(binary.LittleEndian.AppendUint32(nil, uint32(len(full)-5)), full[4:len(full)-1]...),
		"spec length":  {7, 0, 0, 0, KindMeta, 0, 0, 0, 0, 5, 'a'},
	} {
		if _, err := Decode(p, nil); err == nil {
			t.Errorf("%s: Decode accepted %v", name, p)
		}
	}
}

// TestTruncated checks that a frame cut at any byte boundary surfaces
// as an error (or a clean EOF only at the very start), never a panic or
// a silently short decode.
func TestTruncated(t *testing.T) {
	ops := randomOps(rand.New(rand.NewSource(2)), 5)
	full := AppendOps(nil, ops)
	for cut := 0; cut < len(full); cut++ {
		fr := NewReader(bytes.NewReader(full[:cut]))
		_, err := fr.Read()
		if err == nil {
			t.Fatalf("cut at %d of %d: decode succeeded", cut, len(full))
		}
	}
}

// TestRejects covers malformed payloads: bad lengths, kinds, tags,
// counts, trailing bytes, and values that would alias through the
// narrowing casts.
func TestRejects(t *testing.T) {
	frame := func(payload []byte) []byte {
		var b []byte
		b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
		return append(b, payload...)
	}
	cases := map[string][]byte{
		"zero length":     {0, 0, 0, 0},
		"oversize length": binary.LittleEndian.AppendUint32(nil, MaxFrame+1),
		"unknown kind":    frame([]byte{99}),
		"bad tag":         frame([]byte{KindOps, 1, 7}),
		"trailing bytes":  frame([]byte{KindOps, 0, 0xff}),
		"huge count":      frame(append([]byte{KindOps}, binary.AppendUvarint(nil, 1<<40)...)),
		"sync trailing":   frame([]byte{KindSync, 1, 2}),
		"link too big": frame(func() []byte {
			p := []byte{KindOps, 1, TagInsert}
			p = binary.AppendUvarint(p, 1)     // id
			p = binary.AppendUvarint(p, 0)     // src
			p = binary.AppendUvarint(p, 1<<40) // link+1, aliases int32
			p = binary.AppendUvarint(p, 0)     // lo
			p = binary.AppendUvarint(p, 1)     // span
			return binary.AppendUvarint(p, 0)  // prio
		}()),
		"interval overflow": frame(func() []byte {
			p := []byte{KindOps, 1, TagInsert}
			p = binary.AppendUvarint(p, 1)
			p = binary.AppendUvarint(p, 0)
			p = binary.AppendUvarint(p, 1)
			p = binary.AppendUvarint(p, 1<<63) // lo
			p = binary.AppendUvarint(p, 1<<63) // span; lo+span wraps
			return binary.AppendUvarint(p, 0)
		}()),
	}
	for name, raw := range cases {
		fr := NewReader(bytes.NewReader(raw))
		if _, err := fr.Read(); err == nil || err == io.EOF {
			t.Errorf("%s: want a decode error, got %v", name, err)
		}
	}
}

// BenchmarkDecodeOps pins the decode cost the connection goroutine pays
// per op — the work the binary path moves off the engine lock.
func BenchmarkDecodeOps(b *testing.B) {
	ops := randomOps(rand.New(rand.NewSource(3)), 256)
	raw := AppendOps(nil, ops)
	r := bytes.NewReader(raw)
	fr := NewReader(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(raw)
		if _, err := fr.Read(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ops)), "ns/op-decoded")
}
