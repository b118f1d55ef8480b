package trace

import (
	"bytes"
	"strings"
	"testing"

	"deltanet/internal/core"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
)

func sampleTrace() *Trace {
	g := netgraph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	ab := g.AddLink(a, b)
	return &Trace{
		Name:  "sample",
		Graph: g,
		Ops: []core.BatchOp{
			core.InsertOp(core.Rule{ID: 1, Source: a, Link: ab,
				Match: ipnet.Interval{Lo: 10, Hi: 20}, Priority: 5}),
			core.InsertOp(core.Rule{ID: 2, Source: a, Link: netgraph.NoLink,
				Match: ipnet.Interval{Lo: 0, Hi: 1 << 32}, Priority: 1}),
			core.RemoveOp(1),
		},
	}
}

func TestRoundTrip(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# sample\nnode a\nnode b\nlink 0 1\nI 1 0 0 10 20 5\nI 2 0 -1 0 4294967296 1\nR 1\n"
	if buf.String() != want {
		t.Fatalf("written trace is not a line-protocol session:\n%s\nwant\n%s", buf.String(), want)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "sample" {
		t.Fatalf("name=%q", got.Name)
	}
	if got.Graph.NumNodes() != 2 || got.Graph.NumLinks() != 1 {
		t.Fatalf("graph %d/%d", got.Graph.NumNodes(), got.Graph.NumLinks())
	}
	if got.Graph.NodeName(0) != "a" {
		t.Fatal("node names lost")
	}
	if len(got.Ops) != 3 {
		t.Fatalf("ops=%d", len(got.Ops))
	}
	for i := range orig.Ops {
		if got.Ops[i] != orig.Ops[i] {
			t.Fatalf("op %d: %+v, want %+v", i, got.Ops[i], orig.Ops[i])
		}
	}
	if got.NumInserts() != 2 {
		t.Fatalf("NumInserts=%d", got.NumInserts())
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",                                     // empty
		"# only a name\n",                      // nothing but comments
		"bogus header\n",                       // unknown directive
		"node\n",                               // short node line
		"node a b\n",                           // node name is one token
		"node a\nnode a\n",                     // duplicate name: ids would shift
		"node a\nlink 0\n",                     // short link line
		"node a\nlink 0 1\n",                   // unknown node
		"node a\nlink 0 -1\n",                  // negative node id
		"node a\nnode b\nlink 0 1\nlink 0 1\n", // duplicate link
		"I 1 2\n",                              // short insert
		"I a 0 0 0 1 1\n",                      // non-numeric
		"I 1 0 0 0 1 1 9\n",                    // trailing field
		"I 1 4294967296 0 0 1 1\n",             // source does not fit a node id
		"R\n",                                  // short remove
		"R x\n",                                // non-numeric remove
		"R 1 2\n",                              // trailing field
		"what 1\n",                             // unknown directive
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("input %q accepted", c)
		}
	}
}

// TestReadRefusesV1 pins the refusal of the format older builds wrote:
// by name, with the remedy.
func TestReadRefusesV1(t *testing.T) {
	_, err := Read(strings.NewReader("# old\ndeltanet-trace v1\nnode 0 a\nI 1 0 -1 0 10 1\n"))
	if err == nil || !strings.Contains(err.Error(), "deltanet-trace v1") || !strings.Contains(err.Error(), "regenerate it with dngen") {
		t.Fatalf("v1 trace: %v", err)
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# my trace\n\n# interlude\nnode a\n\nR 3\n"
	got, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "my trace" || len(got.Ops) != 1 || got.Graph.NumNodes() != 1 {
		t.Fatalf("%+v", got)
	}
}

// TestParseOpZeroAlloc pins the hot-path property the field scanner
// exists for: parsing an I or R line allocates nothing.
func TestParseOpZeroAlloc(t *testing.T) {
	for _, line := range []string{"I 7 0 0 0 4096 9", "R 7", "I\t8 1 -1 5 6 0\r"} {
		allocs := testing.AllocsPerRun(200, func() {
			if _, msg := ParseOp(line); msg != "" {
				t.Fatal(msg)
			}
		})
		if allocs != 0 {
			t.Errorf("ParseOp(%q): %.1f allocs/op, want 0", line, allocs)
		}
	}
}

func TestApply(t *testing.T) {
	tr := sampleTrace()
	n := core.NewNetwork(tr.Graph, core.Options{})
	var d core.Delta
	for i, op := range tr.Ops {
		if err := Apply(n, op, &d); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if n.NumRules() != 1 { // two inserts, one removal
		t.Fatalf("rules=%d", n.NumRules())
	}
	if msg := n.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}
