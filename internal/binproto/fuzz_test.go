package binproto

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzBinaryFrame throws arbitrary bytes at the frame decoder: it must
// never panic, never allocate proportionally to a lying length prefix
// beyond MaxFrame, and every frame it does accept must re-encode and
// re-decode to the same value (so the accepted language round-trips).
func FuzzBinaryFrame(f *testing.F) {
	// Well-formed seeds: empty ops frame, a small mixed frame, a large
	// frame, a sync barrier, two frames back to back, and topology records.
	rng := rand.New(rand.NewSource(7))
	f.Add(AppendOps(nil, nil))
	f.Add(AppendOps(nil, randomOps(rng, 3)))
	f.Add(AppendOps(nil, randomOps(rng, 300)))
	f.Add(AppendSync(nil, 12345))
	f.Add(AppendSync(AppendOps(nil, randomOps(rng, 5)), 1))
	f.Add(AppendLink(AppendNode(nil, "edge-7"), 3, 1<<20))
	// Malformed seeds: truncations, bad kinds and tags, huge counts.
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 99})
	f.Add([]byte{3, 0, 0, 0, KindOps, 1, 7})
	f.Add([]byte{255, 255, 255, 255})
	f.Add(AppendOps(nil, randomOps(rng, 2))[:9])
	f.Add([]byte{4, 0, 0, 0, KindNode, 'a', ' ', 'b'})
	f.Add([]byte{2, 0, 0, 0, KindLink, 1})
	// Checkpoint trailers: a full one behind an ops frame, and one whose
	// spec length runs past the frame.
	f.Add(AppendMeta(AppendOps(nil, randomOps(rng, 4)), &Meta{Drop: 3, Seq: 9, Upd: 12, Journal: 4096,
		Specs: []string{"loopfree", "reach a b", "blackholefree sinks=c"}}))
	f.Add([]byte{7, 0, 0, 0, KindMeta, 0, 0, 0, 0, 5, 'a'})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewReader(bytes.NewReader(data))
		for {
			frame, err := fr.Read()
			if err != nil {
				if err != io.EOF && err == nil {
					t.Fatal("unreachable")
				}
				return
			}
			// Round-trip what was accepted: encode the decoded frame and
			// decode it again; the two frames must agree.
			var re []byte
			switch frame.Kind {
			case KindSync:
				re = AppendSync(nil, frame.Token)
			case KindNode:
				re = AppendNode(nil, frame.Name)
			case KindLink:
				re = AppendLink(nil, frame.Src, frame.Dst)
			case KindMeta:
				re = AppendMeta(nil, frame.Meta)
			default:
				re = AppendOps(nil, frame.Ops)
			}
			// The in-memory decoder (journal records, replica frames) and
			// the stream decoder must accept the same language.
			again, err := Decode(re, nil)
			if err != nil {
				t.Fatalf("re-decode of accepted frame failed: %v", err)
			}
			if again.Kind != frame.Kind || again.Token != frame.Token || again.Name != frame.Name ||
				again.Src != frame.Src || again.Dst != frame.Dst || len(again.Ops) != len(frame.Ops) {
				t.Fatalf("round trip diverged: %+v vs %+v", frame, again)
			}
			for i := range frame.Ops {
				if !reflect.DeepEqual(again.Ops[i], frame.Ops[i]) {
					t.Fatalf("round trip diverged at op %d: %+v vs %+v", i, frame.Ops[i], again.Ops[i])
				}
			}
		}
	})
}
