package server

// Tests of the durable write path's one record format: a journal record
// is a dnbin frame, encoded at every append site and decoded by
// applyRecordLocked on the writer, for crash replay (ReplayJournal, one
// barrier) and for replicas (one barrier per record) alike.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"deltanet/internal/binproto"
	"deltanet/internal/core"
	"deltanet/internal/journal"
	"deltanet/internal/monitor"
	"deltanet/internal/netgraph"
)

// planeState is everything two servers holding the same prefix of the
// update history must agree on.
type planeState struct {
	digest       uint64
	upd, evseq   uint64
	rules        int
	nodes, links int
	verdicts     string // "spec status" per registered invariant, sorted
}

func stateOf(s *Server) planeState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var v []string
	for _, info := range s.mon.Invariants() {
		v = append(v, fmt.Sprintf("%s %s", s.formatSpec(info.Spec), info.Status))
	}
	sort.Strings(v)
	return planeState{
		digest: s.net.BehaviourDigest(), upd: s.mon.UpdateSeq(), evseq: s.mon.LastSeq(),
		rules: s.net.NumRules(), nodes: s.graph.NumNodes(), links: s.graph.NumLinks(),
		verdicts: strings.Join(v, "; "),
	}
}

// journalHeaderLen is the byte length of a fresh journal's header line:
// a record ending at logical offset o ends at byte journalHeaderLen+o.
const journalHeaderLen = len("dnjournal 2 0\n")

// recoverPrefix boots a fresh server from a state dump plus the first
// cut bytes of a journal file, the way dnserve restarts, and returns its
// state, the records replayed and the torn-tail bytes Open dropped.
func recoverPrefix(t *testing.T, dir string, file []byte, cut int, dump []byte) (planeState, int, int64) {
	t.Helper()
	path := filepath.Join(dir, "prefix.j")
	if err := os.WriteFile(path, file[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := journal.Open(path, journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	s := New(WithJournal(j))
	defer s.Close()
	if err := s.LoadState(bytes.NewReader(dump)); err != nil {
		t.Fatal(err)
	}
	n, err := s.ReplayJournal(j)
	if err != nil {
		t.Fatalf("replaying the first %d bytes: %v", cut, err)
	}
	return stateOf(s), n, j.Dropped()
}

// TestEveryEntranceEveryRecordBoundary is the differential test of the
// durable path. A journalling primary is driven through every entrance
// — line I and R, a B batch, binary frames through the ring (one of
// them a batch the engine refuses, which falls back to per-op applies),
// and node/link commands in mid-stream. The journal it wrote is then
// the specification: a reference server is fed the decoded records one
// at a time through the live apply path, and must equal the primary
// after every step, which pins that the journal holds exactly what the
// primary did (the refused batch's dropped ops included). Against that
// reference, at EVERY record boundary, a fresh server recovered from a
// checkpoint plus the journal prefix must agree — digest, update seq,
// event seq, verdicts — and so must a live replica after every step.
// A torn tail lands on the last intact record; a version-1 journal is
// refused before any engine sees it.
func TestEveryEntranceEveryRecordBoundary(t *testing.T) {
	dir := t.TempDir()
	primary, j, addr, stopPrimary := startJournaledPrimary(t, dir)
	replica, replicaAddr, stopReplica := startReplica(t, addr)
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			stopReplica() // first, or it spends the rest of the test redialing
			stopPrimary() // closes the journal: every record is in the file
		}
	}
	defer stop()
	ref := New()
	defer ref.Close()

	pc := dial(t, addr) // owns the primary's W registrations for the whole test
	defer pc.close()
	rc := dial(t, replicaAddr)
	defer rc.close()
	bc := dial(t, addr) // upgraded to the binary protocol below
	defer bc.close()
	must := func(c *client, req string) string {
		t.Helper()
		got := c.roundTrip(t, req)
		if !strings.HasPrefix(got, "ok") {
			t.Fatalf("%s: %q", req, got)
		}
		return got
	}
	// add sends a node or link command and returns the id it was given
	// (drop rules create a sink node and links behind the client's back,
	// so ids are read, not assumed).
	add := func(format string, args ...any) int32 {
		t.Helper()
		var kind string
		var id int32
		if _, err := fmt.Sscanf(must(pc, fmt.Sprintf(format, args...)), "ok %s %d", &kind, &id); err != nil {
			t.Fatal(err)
		}
		return id
	}

	expected := map[uint64]planeState{} // by record end offset
	var boundaries []uint64
	cursor := uint64(0)
	var jops []core.BatchOp
	// settle feeds the records the last step appended to the reference,
	// one at a time, then holds reference, primary and replica equal.
	settle := func(step string) {
		t.Helper()
		r, err := j.ReadFrom(cursor)
		if err != nil {
			t.Fatal(err)
		}
		for {
			rec, err := r.Next()
			if err != nil {
				break // io.EOF at the snapshot's end
			}
			f, err := binproto.Decode(rec.Payload, jops)
			if err != nil {
				t.Fatalf("%s: record at %d is not a frame: %v", step, rec.End, err)
			}
			switch f.Kind {
			case binproto.KindNode:
				ref.dispatch("node "+f.Name, nil)
			case binproto.KindLink:
				ref.dispatch(fmt.Sprintf("link %d %d", f.Src, f.Dst), nil)
			default:
				jops = f.Ops[:0]
				if got := ref.update(f.Ops, "ok", 0); !strings.HasPrefix(got, "ok") {
					t.Fatalf("%s: record at %d: %q", step, rec.End, got)
				}
			}
			expected[rec.End] = stateOf(ref)
			boundaries = append(boundaries, rec.End)
			cursor = rec.End
		}
		r.Close()
		want := stateOf(primary)
		if got := expected[cursor]; got != want {
			t.Fatalf("%s: the journal does not describe the primary:\n  replayed live %+v\n  primary       %+v", step, got, want)
		}
		deadline := time.Now().Add(10 * time.Second)
		for replica.replCursor.Load() != cursor {
			if time.Now().After(deadline) {
				t.Fatalf("%s: replica stuck at %d of %d", step, replica.replCursor.Load(), cursor)
			}
			time.Sleep(time.Millisecond)
		}
		if got := stateOf(replica); got != want {
			t.Fatalf("%s: replica diverged:\n  replica %+v\n  primary %+v", step, got, want)
		}
	}

	// Topology, then the invariants — registered on all three servers
	// at the same point of the history.
	a, b, c, d := add("node a"), add("node b"), add("node c"), add("node d")
	// outLinks[v] are node v's out-links; every generated insert forwards
	// on one of its source's links (or drops), so the engine accepts it
	// unless the step means it not to.
	outLinks := map[int32][]int32{
		a: {add("link %d %d", a, b), add("link %d %d", a, d)},
		b: {add("link %d %d", b, c)},
		c: {add("link %d %d", c, a), add("link %d %d", c, d)},
	}
	sources := []int32{a, b, c}
	settle("topology")
	specs := []string{"loopfree", "reach a c", "reach a d", "waypoint a c b", "blackholefree"}
	for _, spec := range specs {
		must(pc, "W "+spec)
		must(rc, "W "+spec)
		parsed, err := monitor.ParseSpecNamed(spec, ref.lookupName)
		if err != nil {
			t.Fatal(err)
		}
		ref.mon.Register(parsed)
	}
	type dump struct {
		offset uint64
		bytes  []byte
	}
	checkpoint := func() dump {
		var b bytes.Buffer
		off, err := primary.CheckpointTo(&b, primary.Monitor().SnapshotSpecs())
		if err != nil {
			t.Fatal(err)
		}
		return dump{off, b.Bytes()}
	}
	dumps := []dump{checkpoint()}

	if got := bc.roundTrip(t, "dnbin 1"); got != "ok dnbin 1" {
		t.Fatalf("handshake: %q", got)
	}
	syncs := uint64(0)
	sendFrame := func(ops []core.BatchOp) {
		t.Helper()
		syncs++
		buf := binproto.AppendSync(binproto.AppendOps(nil, ops), syncs)
		if _, err := bc.conn.Write(buf); err != nil {
			t.Fatal(err)
		}
		if !bc.r.Scan() || !strings.HasPrefix(bc.r.Text(), fmt.Sprintf("ok sync %d ", syncs)) {
			t.Fatalf("sync %d: %q %v", syncs, bc.r.Text(), bc.r.Err())
		}
	}

	rng := rand.New(rand.NewSource(12))
	var live []int64
	nextID := int64(1)
	insert := func() core.BatchOp {
		src := sources[rng.Intn(len(sources))]
		link := int32(-1)
		if rng.Intn(6) > 0 {
			link = outLinks[src][rng.Intn(len(outLinks[src]))]
		}
		lo := uint64(rng.Intn(1 << 10))
		op := insOp(nextID, src, link, lo, lo+1+uint64(rng.Intn(1<<10)), int32(rng.Intn(8)))
		live = append(live, nextID)
		nextID++
		return op
	}
	remove := func() core.BatchOp {
		i := rng.Intn(len(live))
		id := live[i]
		live = append(live[:i], live[i+1:]...)
		return core.RemoveOp(core.RuleID(id))
	}
	mixed := func(n int) []core.BatchOp {
		ops := make([]core.BatchOp, n)
		for i := range ops {
			if len(live) > 4 && rng.Intn(3) == 0 {
				ops[i] = remove()
			} else {
				ops[i] = insert()
			}
		}
		return ops
	}

	for round := 0; round < 6; round++ {
		for i := 0; i < 4; i++ {
			must(pc, opText(insert()))
			settle("line I")
		}
		must(pc, opText(remove()))
		settle("line R")

		// A line R that closes a loop: b->c and c->a carry the range, and
		// at a the rule towards d shadows the one towards b. Removing the
		// shadow exposes a->b->c->a — in the reply, and in every server
		// downstream of the record. A batch then clears it.
		shadow, loop := nextID, []int64{nextID + 1, nextID + 2, nextID + 3}
		nextID += 4
		for _, op := range []core.BatchOp{
			insOp(loop[0], b, outLinks[b][0], 5000, 5100, 5),
			insOp(loop[1], c, outLinks[c][0], 5000, 5100, 5),
			insOp(shadow, a, outLinks[a][1], 5000, 5100, 9),
			insOp(loop[2], a, outLinks[a][0], 5000, 5100, 5),
		} {
			if got := must(pc, opText(op)); !strings.Contains(got, " loops=0") {
				t.Fatalf("%s: %q", opText(op), got)
			}
			settle("loop set-up")
		}
		if got := must(pc, fmt.Sprintf("R %d", shadow)); !strings.HasSuffix(got, " loops=1 loop 5000:5100") {
			t.Fatalf("line R exposing a loop: %q", got)
		}
		settle("loop-exposing line R")
		var clear []core.BatchOp
		for _, id := range loop {
			clear = append(clear, core.RemoveOp(core.RuleID(id)))
		}
		if got := pc.sendOpsBatch(t, clear); !strings.HasPrefix(got, "ok batch") {
			t.Fatalf("clearing the loop: %q", got)
		}
		settle("loop cleared")
		if got := pc.sendOpsBatch(t, mixed(5+rng.Intn(12))); !strings.HasPrefix(got, "ok batch") {
			t.Fatalf("B batch: %q", got)
		}
		settle("B batch")
		sendFrame(mixed(1 + rng.Intn(40)))
		settle("binary frame")

		// A frame the engine refuses as a batch: a duplicate of a live id
		// and a removal of an id that never existed ride between good
		// ops. The fallback applies the good ones one by one — one record
		// each — and drops the two bad ones.
		rejected := primary.ing.rejected.Load()
		first, last := insert(), insert()
		dup := insOp(live[0], a, outLinks[a][0], 0, 1, 1)
		sendFrame([]core.BatchOp{first, dup, core.RemoveOp(1 << 40), last})
		if got := primary.ing.rejected.Load() - rejected; got != 2 {
			t.Fatalf("refused frame: %d ops rejected, want 2", got)
		}
		settle("refused frame")

		if round == 2 {
			// Topology in mid-stream: later rules use the new node and links.
			e := add("node e")
			settle("node e")
			outLinks[d] = []int32{add("link %d %d", d, e)}
			settle("link d e")
			outLinks[e] = []int32{add("link %d %d", e, a)}
			settle("link e a")
			outLinks[b] = append(outLinks[b], add("link %d %d", b, e))
			settle("link b e")
			sources = append(sources, d, e)
			dumps = append(dumps, checkpoint())
		}
	}
	final := stateOf(primary)
	if final.rules == 0 || final.evseq == 0 || !strings.Contains(final.verdicts, "violated") {
		t.Fatalf("the history is too tame to tell servers apart: %+v", final)
	}

	stop()
	file, err := os.ReadFile(dir + "/primary.j")
	if err != nil {
		t.Fatal(err)
	}
	if len(file) != journalHeaderLen+int(cursor) {
		t.Fatalf("journal file is %d bytes, want header + %d", len(file), cursor)
	}

	// Every record boundary, from every checkpoint at or before it.
	for _, cp := range dumps {
		replayed := 0
		for _, end := range boundaries {
			if end <= cp.offset {
				continue
			}
			replayed++
			got, n, _ := recoverPrefix(t, dir, file, journalHeaderLen+int(end), cp.bytes)
			if n != replayed || got != expected[end] {
				t.Fatalf("checkpoint@%d + journal through %d (%d records, want %d):\n  recovered %+v\n  want      %+v",
					cp.offset, end, n, replayed, got, expected[end])
			}
		}
	}
	t.Logf("%d records, %d checkpoints, final %+v", len(boundaries), len(dumps), final)

	// A crash mid-write: the file ends inside the last record, at every
	// possible byte. Open drops the torn record and recovery lands on
	// the one before it.
	last, prev := boundaries[len(boundaries)-1], boundaries[len(boundaries)-2]
	cp := dumps[len(dumps)-1]
	for cut := journalHeaderLen + int(prev) + 1; cut < journalHeaderLen+int(last); cut++ {
		got, _, dropped := recoverPrefix(t, dir, file, cut, cp.bytes)
		if want := int64(cut - journalHeaderLen - int(prev)); dropped != want || got != expected[prev] {
			t.Fatalf("cut at byte %d: dropped %d (want %d), recovered %+v, want %+v", cut, dropped, want, got, expected[prev])
		}
	}

	// A journal written by the text-record format: refused by name at
	// Open, so no engine is ever handed its records, and not rewritten.
	old := []byte("dnjournal 1 0\n\x00\x00\x00\x1f" + "0000000000000000" + "I 1 0 0 0 100 1")
	oldPath := filepath.Join(dir, "old.j")
	if err := os.WriteFile(oldPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := journal.Open(oldPath, journal.SyncNone); err == nil || !strings.Contains(err.Error(), "dnjournal 1") {
		t.Fatalf("dnjournal 1 file: Open returned %v", err)
	}
	if got, _ := os.ReadFile(oldPath); !bytes.Equal(got, old) {
		t.Fatal("refused dnjournal 1 file was modified")
	}
}

// TestCheckpointEveryFrameBoundary holds a checkpoint to its shape and
// its all-or-nothing load. The dump is node and link frames, insert
// frames of at most checkpointChunk ops, and one trailing meta frame; it
// loads into a fresh server equal to the one it was cut from, drop sink
// included. Cut short anywhere — inside the header, at any frame
// boundary, inside any frame — it is refused rather than loaded as a
// smaller plane.
func TestCheckpointEveryFrameBoundary(t *testing.T) {
	s := recordFixture(t)
	defer s.Close()
	ops := []core.BatchOp{insOp(99, 1, -1, 50, 60, 3)} // a drop rule: the meta frame names a sink
	for i := 0; i < 2*checkpointChunk+100; i++ {
		ops = append(ops, insOp(int64(100+i), int32(i%3), int32(i%3), uint64(1000+4*i), uint64(1002+4*i), 1))
	}
	if !s.IngestOps(ops) {
		t.Fatal("IngestOps refused the plane")
	}
	s.IngestBarrier()
	want := stateOf(s)
	var buf bytes.Buffer
	if err := s.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.Bytes()

	// Walk the frames: their kinds in order, and where each one ends.
	var kinds []byte
	var ends []int
	for off := len(stateHeader); off < len(dump); {
		f, err := binproto.Decode(dump[off:off+4+int(binary.LittleEndian.Uint32(dump[off:]))], nil)
		if err != nil {
			t.Fatalf("frame at byte %d: %v", off, err)
		}
		if f.Kind == binproto.KindOps && len(f.Ops) > checkpointChunk {
			t.Fatalf("ops frame of %d ops, want at most %d", len(f.Ops), checkpointChunk)
		}
		off += 4 + int(binary.LittleEndian.Uint32(dump[off:]))
		kinds, ends = append(kinds, f.Kind), append(ends, off)
	}
	shape := strings.Repeat("N", want.nodes) + strings.Repeat("L", want.links) + "OOOM"
	got := ""
	for _, k := range kinds {
		got += string("?OSNLM"[k])
	}
	if got != shape {
		t.Fatalf("checkpoint frames %s, want %s", got, shape)
	}

	loaded := New()
	defer loaded.Close()
	if err := loaded.LoadState(bytes.NewReader(dump)); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(loaded); got != want || loaded.graph.DropNode() != s.graph.DropNode() {
		t.Fatalf("loaded %+v (drop %d), want %+v (drop %d)", got, loaded.graph.DropNode(), want, s.graph.DropNode())
	}

	cuts := []int{0, len(stateHeader) / 2, len(stateHeader)}
	start := len(stateHeader)
	for _, end := range ends {
		cuts = append(cuts, start+4+(end-start-4)/2) // mid-frame
		if end < len(dump) {
			cuts = append(cuts, end)
		}
		start = end
	}
	for _, cut := range cuts {
		r := New()
		err := r.LoadState(bytes.NewReader(dump[:cut]))
		r.Close()
		if err == nil {
			t.Fatalf("checkpoint cut at byte %d of %d loaded", cut, len(dump))
		}
		if slices.Contains(ends, cut) && !strings.Contains(err.Error(), "truncated") {
			t.Errorf("cut at frame boundary %d: %v, want a truncation", cut, err)
		}
	}
	t.Logf("%d frames, %d cuts refused", len(ends), len(cuts))
}

// applyRecord hands one journal record to the writer, as the replica
// stream does.
func applyRecord(s *Server, payload []byte, seq uint64) error {
	err := errClosing
	s.barrier(func() { err = s.applyRecordLocked(payload, seq) })
	return err
}

// TestMetaFrameIsOnlyACheckpointRecord pins the two default branches
// that keep a checkpoint trailer out of the update paths: a client dnbin
// stream refuses it (and stays usable), and the journal record decoder
// refuses it with the server untouched.
func TestMetaFrameIsOnlyACheckpointRecord(t *testing.T) {
	meta := binproto.AppendMeta(nil, &binproto.Meta{Drop: netgraph.NoNode, Upd: 99, Specs: []string{"loopfree"}})

	s := recordFixture(t)
	defer s.Close()
	before := stateOf(s)
	err := applyRecord(s, meta, before.upd)
	if err == nil || !strings.Contains(err.Error(), "not a journal record") {
		t.Fatalf("meta frame as a journal record: %v", err)
	}
	if after := stateOf(s); after != before {
		t.Fatalf("refused meta record changed the server:\n  before %+v\n  after  %+v", before, after)
	}

	_, addr, cleanup := startServer(t)
	defer cleanup()
	c := dial(t, addr)
	defer c.close()
	buildTriangle(t, c)
	if got := c.roundTrip(t, "dnbin 1"); got != "ok dnbin 1" {
		t.Fatalf("handshake: %q", got)
	}
	if _, err := c.conn.Write(binproto.AppendSync(append(meta, binproto.AppendOps(nil, []core.BatchOp{insOp(1, 0, 0, 0, 100, 1)})...), 1)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"err frame kind 5 not accepted on a client stream", "ok sync 1 applied=1"} {
		if !c.r.Scan() || c.r.Text() != want {
			t.Fatalf("got %q (%v), want %q", c.r.Text(), c.r.Err(), want)
		}
	}
}

// FuzzLoadState feeds arbitrary bytes to the state loader — the path a
// restart and every replica anchor run on whatever a state file or a
// primary's checkpoint holds. It must never panic, and a stream it
// accepts must be a state: the engine's invariants hold, and the loaded
// server's own checkpoint loads back to the same state.
func FuzzLoadState(f *testing.F) {
	fixture := recordFixture(f)
	var real bytes.Buffer
	if err := fixture.SaveState(&real); err != nil {
		f.Fatal(err)
	}
	fixture.Close()
	header := []byte(stateHeader)
	withHeader := func(frames ...[]byte) []byte { return bytes.Join(append([][]byte{header}, frames...), nil) }
	for _, seed := range [][]byte{
		real.Bytes(),
		real.Bytes()[:real.Len()-1],
		header,
		withHeader(binproto.AppendMeta(nil, &binproto.Meta{Drop: netgraph.NoNode})),
		withHeader(binproto.AppendNode(nil, "a"), binproto.AppendMeta(nil, &binproto.Meta{Drop: 0, Seq: 4, Upd: 9, Journal: 77, Specs: []string{"reach 0 0", "loopfree"}})),
		withHeader(binproto.AppendNode(nil, "a"), binproto.AppendMeta(nil, &binproto.Meta{Drop: 7, Specs: []string{"reach 0 9"}})),
		withHeader(binproto.AppendNode(nil, "a"), binproto.AppendNode(nil, "a"), binproto.AppendMeta(nil, &binproto.Meta{Drop: netgraph.NoNode})),
		withHeader(binproto.AppendNode(nil, "a"), binproto.AppendLink(nil, 0, 0), binproto.AppendOps(nil, []core.BatchOp{insOp(1, 0, 0, 0, 10, 1), core.RemoveOp(1)}),
			binproto.AppendMeta(nil, &binproto.Meta{Drop: netgraph.NoNode})),
		withHeader(binproto.AppendSync(nil, 1), binproto.AppendMeta(nil, &binproto.Meta{Drop: netgraph.NoNode})),
		append(real.Bytes()[:real.Len():real.Len()], binproto.AppendMeta(nil, &binproto.Meta{Drop: netgraph.NoNode})...),
		[]byte("deltanet-state 3\nnode a\n"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // keep iterations fast
		}
		s := New()
		defer s.Close()
		if err := s.LoadState(bytes.NewReader(data)); err != nil {
			return
		}
		if msg := s.net.CheckInvariants(); msg != "" {
			t.Fatalf("engine invariants broken by an accepted state: %s", msg)
		}
		var again bytes.Buffer
		if err := s.SaveState(&again); err != nil {
			t.Fatal(err)
		}
		r := New()
		defer r.Close()
		if err := r.LoadState(&again); err != nil {
			t.Fatalf("an accepted state's own checkpoint does not load: %v", err)
		}
		if got, want := stateOf(r), stateOf(s); got != want {
			t.Fatalf("checkpoint round trip diverged:\n  got  %+v\n  want %+v", got, want)
		}
	})
}

// recordFixture is a server with a three-node cycle topology, two live
// rules and two standing invariants: enough state for a bad record to
// damage.
func recordFixture(tb testing.TB, opts ...Option) *Server {
	tb.Helper()
	s := New(opts...)
	for _, req := range []string{"node a", "node b", "node c", "link 0 1", "link 1 2", "link 2 0",
		"I 1 0 0 0 100 1", "I 2 1 1 0 100 1", "W loopfree", "W reach a c"} {
		if got := s.dispatch(req, map[monitor.ID]int{}); !strings.HasPrefix(got, "ok") {
			tb.Fatalf("%s: %q", req, got)
		}
	}
	return s
}

// FuzzJournalRecord feeds arbitrary bytes to the one record decoder —
// the path crash replay and every replica run on whatever the journal
// file or the primary's stream holds. It must never panic, and a record
// it refuses (hostile counts, ids, lengths, unknown kinds, a batch the
// engine rejects) must leave the server exactly as it was.
func FuzzJournalRecord(f *testing.F) {
	// The binproto corpus, plus frames that decode but name things this
	// topology does not have.
	rng := rand.New(rand.NewSource(7))
	good := []core.BatchOp{insOp(10, 0, 0, 200, 300, 2), insOp(11, 2, -1, 0, 50, 3), core.RemoveOp(1)}
	var big []core.BatchOp
	for i := 0; i < 300; i++ {
		big = append(big, insOp(int64(100+i), int32(i%3), int32(i%3), uint64(rng.Intn(1<<20)), uint64(1<<20+rng.Intn(1<<20)), int32(i%5)))
	}
	for _, seed := range [][]byte{
		binproto.AppendOps(nil, nil),
		binproto.AppendOps(nil, good),
		binproto.AppendOps(nil, big),
		binproto.AppendSync(nil, 12345),
		binproto.AppendSync(binproto.AppendOps(nil, good), 1),
		binproto.AppendNode(nil, "d"),
		binproto.AppendNode(nil, "a b"),
		binproto.AppendLink(nil, 0, 2),
		binproto.AppendLink(nil, 0, 99),
		binproto.AppendOps(nil, []core.BatchOp{insOp(10, 42, 0, 0, 1, 1)}),                         // unknown node
		binproto.AppendOps(nil, []core.BatchOp{insOp(10, 0, 77, 0, 1, 1)}),                         // unknown link
		binproto.AppendOps(nil, []core.BatchOp{insOp(10, 0, 1, 0, 1, 1)}),                          // link not at its source
		binproto.AppendOps(nil, []core.BatchOp{insOp(10, 0, 0, 0, 1, 1), insOp(1, 0, 0, 5, 6, 1)}), // duplicate id
		binproto.AppendOps(nil, []core.BatchOp{insOp(10, 0, -1, 0, 1, 1), core.RemoveOp(99)}),      // unknown removal after a drop rule
		binproto.AppendOps(nil, []core.BatchOp{insOp(10, 0, 0, 0, 1<<40, 1)}),                      // outside the match space
		{0, 0, 0, 0},
		{1, 0, 0, 0, 99},
		{3, 0, 0, 0, binproto.KindOps, 1, 7},
		{255, 255, 255, 255},
		{11, 0, 0, 0, binproto.KindOps, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1}, // count 2⁶³
		binproto.AppendOps(nil, good)[:9],
		binproto.AppendMeta(nil, &binproto.Meta{Drop: netgraph.NoNode, Upd: 1 << 20, Specs: []string{"loopfree"}}), // a checkpoint trailer
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := recordFixture(t)
		defer s.Close()
		before := stateOf(s)
		err := applyRecord(s, data, before.upd+1)
		if after := stateOf(s); err != nil && after != before {
			t.Fatalf("refused record (%v) changed the server:\n  before %+v\n  after  %+v", err, before, after)
		}
		s.mu.RLock()
		msg := s.net.CheckInvariants()
		s.mu.RUnlock()
		if msg != "" {
			t.Fatalf("engine invariants broken after record (err=%v): %s", err, msg)
		}
	})
}

// TestJournalledCoalesceAllocs pins what taking text off the write path
// bought: journalling a 256-op batch costs a constant number of
// allocations on top of the same batch unjournalled (the payload string
// the journal keeps until its writer lands it), not one render per op.
func TestJournalledCoalesceAllocs(t *testing.T) {
	j, err := journal.Open(filepath.Join(t.TempDir(), "j"), journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	const n = 256
	ins, del := make([]core.BatchOp, n), make([]core.BatchOp, n)
	for i := range ins {
		ins[i] = insOp(int64(1000+i), 0, 0, uint64(1000+8*i), uint64(1004+8*i), 4)
		del[i] = core.RemoveOp(core.RuleID(1000 + i))
	}
	// One cycle is two batches, so two records when journalled.
	cycleAllocs := func(s *Server) float64 {
		defer s.Close()
		cycle := func() {
			s.update(ins, "ok", 0)
			s.update(del, "ok", 0)
		}
		for i := 0; i < 8; i++ { // warm the engine's arenas and the journal's queues
			cycle()
		}
		return testing.AllocsPerRun(50, cycle)
	}
	bare := cycleAllocs(recordFixture(t))
	journalled := cycleAllocs(recordFixture(t, WithJournal(j)))
	if j.End() < 100*n {
		t.Fatalf("the journalled cycles wrote only %d bytes", j.End())
	}
	// One payload string per record (measured: 2.0 extra per cycle), plus
	// room for the journal's pending queue doubling and for the race
	// detector's own bookkeeping (15 under -race); a per-op render costs
	// 512 and more.
	if extra := journalled - bare; extra > 64 {
		t.Fatalf("journalling a 2×%d-op cycle adds %.1f allocations (%.1f vs %.1f bare), want O(1)", n, extra, journalled, bare)
	}
	t.Logf("%.1f allocs per 2×%d-op cycle journalled, %.1f bare", journalled, n, bare)
}
