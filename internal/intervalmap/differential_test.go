package intervalmap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"deltanet/internal/ipnet"
)

// diffCompare asserts every observable of the arena-backed Map matches
// the rbtree oracle: bounds, per-bound atom ids, counters, allocation
// stamps, and both structures' internal invariants. Split-pair and
// release results are compared at the call sites.
func diffCompare(t testing.TB, m *Map, o *oracleMap) {
	t.Helper()
	if m.NumAtoms() != o.NumAtoms() {
		t.Fatalf("NumAtoms: arena %d, oracle %d", m.NumAtoms(), o.NumAtoms())
	}
	if m.MaxID() != o.MaxID() {
		t.Fatalf("MaxID: arena %d, oracle %d", m.MaxID(), o.MaxID())
	}
	if m.AllocSeq() != o.AllocSeq() {
		t.Fatalf("AllocSeq: arena %d, oracle %d", m.AllocSeq(), o.AllocSeq())
	}
	mb, ob := m.Bounds(), o.Bounds()
	if len(mb) != len(ob) {
		t.Fatalf("bounds count: arena %d, oracle %d", len(mb), len(ob))
	}
	ov := o.Values()
	for i, b := range mb {
		if b != ob[i] {
			t.Fatalf("bound %d: arena %#x, oracle %#x", i, b, ob[i])
		}
		if b < m.Space().Max() {
			if got := m.AtomOf(b); got != ov[i] {
				t.Fatalf("atom at bound %#x: arena %d, oracle %d", b, got, ov[i])
			}
		}
	}
	for id := AtomID(0); int(id) < m.MaxID(); id++ {
		if m.BornSeq(id) != o.BornSeq(id) {
			t.Fatalf("BornSeq(%d): arena %d, oracle %d", id, m.BornSeq(id), o.BornSeq(id))
		}
	}
	if msg := m.CheckInvariants(); msg != "" {
		t.Fatalf("arena invariants: %s", msg)
	}
	if msg := o.tree.CheckInvariants(); msg != "" {
		t.Fatalf("oracle invariants: %s", msg)
	}
}

// runDifferential interprets data as an operation script and drives the
// arena map and the oracle in lockstep. Byte 0 is a flag byte (bit 0:
// garbage collection enabled — whether release ops run at all); each
// subsequent 5-byte chunk is one operation:
//
//	chunk[0]&3 ∈ {0,1}: CreateAtoms over an interval built from two
//	  16-bit bounds (little-endian chunk[1:3], chunk[3:5]) — the small
//	  key space forces bound collisions, re-splits of recycled ids, and
//	  duplicate inserts;
//	chunk[0]&3 == 2: ReleaseBound of the k-th current bound (k from
//	  chunk[1:3]) — real merges that push ids onto the free list, so
//	  later creates exercise LIFO id recycling;
//	chunk[0]&3 == 3: full-state comparison checkpoint, plus the bound
//	  handle contract (checkHandles).
//
// Creates go through CreateBounds, whose handles are kept per key: a key
// created again must get the handle it already has, and a released key's
// handle must stop being live. A final comparison always runs, so any
// divergence in atoms, splits, stamps, handles or structure is caught no
// matter how the script ends.
func runDifferential(t testing.TB, data []byte) {
	if len(data) == 0 {
		return
	}
	gc := data[0]&1 == 1
	data = data[1:]

	m := New(ipnet.IPv4)
	o := newOracle(ipnet.IPv4)
	handles := map[uint64]Bound{} // each key in M ↦ the handle CreateBounds gave it
	var made []ipnet.Interval     // created intervals, oldest first
	for len(data) >= 5 {
		chunk := data[:5]
		data = data[5:]
		switch chunk[0] & 3 {
		case 0, 1:
			a := uint64(binary.LittleEndian.Uint16(chunk[1:3]))
			b := uint64(binary.LittleEndian.Uint16(chunk[3:5]))
			if a > b {
				a, b = b, a
			}
			if a == b {
				b++
			}
			iv := ipnet.Interval{Lo: a, Hi: b}
			ms, lo, hi := m.CreateBounds(iv, nil)
			os := o.CreateAtoms(iv)
			if fmt.Sprint(ms) != fmt.Sprint(os) {
				t.Fatalf("CreateAtoms(%v) splits: arena %v, oracle %v", iv, ms, os)
			}
			for i, h := range [2]Bound{lo, hi} {
				key := [2]uint64{a, b}[i]
				if old, ok := handles[key]; ok && old != h {
					t.Fatalf("CreateBounds(%v): key %#x moved from handle %d to %d", iv, key, old, h)
				}
				handles[key] = h
			}
			made = append(made, iv)
		case 2:
			if !gc {
				continue
			}
			bounds := m.Bounds()
			k := int(binary.LittleEndian.Uint16(chunk[1:3])) % len(bounds)
			mid, mok := m.ReleaseBound(bounds[k])
			oid, ook := o.ReleaseBound(bounds[k])
			if mid != oid || mok != ook {
				t.Fatalf("ReleaseBound(%#x): arena (%d,%v), oracle (%d,%v)",
					bounds[k], mid, mok, oid, ook)
			}
			if h, ok := handles[bounds[k]]; ok && mok {
				if m.Live(h) {
					t.Fatalf("ReleaseBound(%#x): its handle %d is still live", bounds[k], h)
				}
				delete(handles, bounds[k])
			}
		case 3:
			diffCompare(t, m, o)
			checkHandles(t, m, handles, made, 4)
		}
	}
	diffCompare(t, m, o)
	checkHandles(t, m, handles, made, 64)
}

// checkHandles asserts the handle contract: every key still in M is named
// by the handle CreateBounds last returned for it, across merges and
// recycled tree slots, and for the newest k created intervals whose bounds
// are both still keys, AtomsBetween over their handles equals Atoms.
func checkHandles(t testing.TB, m *Map, handles map[uint64]Bound, made []ipnet.Interval, k int) {
	t.Helper()
	for key, h := range handles {
		if !m.Live(h) || m.Key(h) != key {
			t.Fatalf("handle %d of key %#x: live %v, names %#x", h, key, m.Live(h), m.Key(h))
		}
	}
	for i := len(made) - 1; i >= 0 && k > 0; i-- {
		iv := made[i]
		lo, okLo := handles[iv.Lo]
		hi, okHi := handles[iv.Hi]
		if !okLo || !okHi {
			continue
		}
		k--
		if got, want := m.AtomsBetween(lo, hi, nil), m.Atoms(iv, nil); !slices.Equal(got, want) {
			t.Fatalf("AtomsBetween(%d, %d) = %v, Atoms(%v) = %v", lo, hi, got, iv, want)
		}
	}
}

// TestDifferentialRandom hammers the arena map against the oracle with
// long random scripts, both with and without garbage collection.
func TestDifferentialRandom(t *testing.T) {
	for _, gc := range []byte{0, 1} {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			script := make([]byte, 1+5*2000)
			rng.Read(script)
			script[0] = gc
			t.Run(fmt.Sprintf("gc-%d/seed-%d", gc, seed), func(t *testing.T) {
				runDifferential(t, script)
			})
		}
	}
}

// TestDifferentialRecycleChurn forces heavy free-list traffic: split the
// same narrow region, release all its interior bounds, and repeat, so
// ids cycle through the free list and are re-minted with fresh stamps.
func TestDifferentialRecycleChurn(t *testing.T) {
	var script bytes.Buffer
	script.WriteByte(1) // gc on
	chunk := make([]byte, 5)
	for round := 0; round < 50; round++ {
		for i := 0; i < 8; i++ {
			chunk[0] = 0
			binary.LittleEndian.PutUint16(chunk[1:3], uint16(100+10*i))
			binary.LittleEndian.PutUint16(chunk[3:5], uint16(105+10*i))
			script.Write(chunk)
		}
		chunk[0] = 3 // checkpoint between split and merge phases
		script.Write(chunk)
		for i := 0; i < 20; i++ {
			chunk[0] = 2
			binary.LittleEndian.PutUint16(chunk[1:3], uint16(1+round+3*i))
			script.Write(chunk)
		}
	}
	runDifferential(t, script.Bytes())
}

// FuzzIntervalMapFlat is the differential fuzzer for the arena-backed
// boundary map: random operation scripts (see runDifferential for the
// encoding) run against both the flat implementation and the retained
// rbtree oracle, asserting identical atoms, split pairs, bounds, and
// allocation stamps, and that every bound handle keeps naming its key.
// Seed corpus under testdata/fuzz/FuzzIntervalMapFlat covers GC on/off,
// id recycling, and re-split-after-merge histories.
func FuzzIntervalMapFlat(f *testing.F) {
	f.Add([]byte{})
	// gc off: pure splits, duplicate bounds.
	f.Add([]byte{0,
		0, 10, 0, 20, 0,
		1, 10, 0, 30, 0,
		0, 20, 0, 20, 0,
		3, 0, 0, 0, 0,
	})
	// gc on: split then merge then re-split recycled ids.
	f.Add([]byte{1,
		0, 10, 0, 20, 0,
		0, 30, 0, 40, 0,
		2, 1, 0, 0, 0,
		2, 1, 0, 0, 0,
		0, 10, 0, 40, 0,
		3, 0, 0, 0, 0,
	})
	rng := rand.New(rand.NewSource(99))
	long := make([]byte, 1+5*200)
	rng.Read(long)
	long[0] = 1
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		runDifferential(t, data)
	})
}
