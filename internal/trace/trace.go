// Package trace is the one text grammar for an operation stream: the
// line protocol's update scanner (ParseOp, which the server's line
// protocol calls too) and the trace files the paper's datasets are
// distributed as (§4.2: "each line denotes an operation … so all
// operations can be easily replayed"). A trace file is a line-protocol
// session, so it replays into an empty dnserve with nothing but nc;
// comments, the first of which names the trace, are its one addition:
//
//	# <name>
//	node <name>                                (one per node, in id order)
//	link <srcID> <dstID>                       (one per link, in id order)
//	I <ruleID> <srcID> <linkID|-1> <lo> <hi> <prio>
//	R <ruleID>
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"deltanet/internal/core"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
)

// Trace is a topology plus an operation stream.
type Trace struct {
	Name  string
	Graph *netgraph.Graph
	Ops   []core.BatchOp
}

// NumInserts returns the number of insert operations.
func (t *Trace) NumInserts() int {
	n := 0
	for _, op := range t.Ops {
		if op.Insert {
			n++
		}
	}
	return n
}

// Write serializes the trace to w as a line-protocol session.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	fmt.Fprintf(bw, "# %s\n", t.Name)
	g := t.Graph
	for v := netgraph.NodeID(0); int(v) < g.NumNodes(); v++ {
		fmt.Fprintf(bw, "node %s\n", g.NodeName(v))
	}
	for _, l := range g.Links() {
		fmt.Fprintf(bw, "link %d %d\n", l.Src, l.Dst)
	}
	for _, op := range t.Ops {
		if op.Insert {
			r := op.Rule
			fmt.Fprintf(bw, "I %d %d %d %d %d %d\n", r.ID, r.Source, r.Link, r.Match.Lo, r.Match.Hi, r.Priority)
		} else {
			fmt.Fprintf(bw, "R %d\n", op.Rule.ID)
		}
	}
	return bw.Flush()
}

// Read parses a trace file. Each node and each link is named once, so
// ids come out in line order. A "deltanet-trace v1" file, the format
// older builds wrote, is refused by name.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	t := &Trace{Graph: netgraph.New()}
	g := t.Graph
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		f, msg := strings.Fields(line), ""
		switch {
		case len(f) == 0:
		case line[0] == '#':
			if t.Name == "" {
				t.Name = strings.TrimSpace(line[1:])
			}
		case f[0] == "I" || f[0] == "R":
			var op core.BatchOp
			op, msg = ParseOp(line)
			t.Ops = append(t.Ops, op)
		case f[0] == "node" && len(f) == 2:
			if n := g.NumNodes(); int(g.AddNode(f[1])) != n {
				msg = "duplicate node name"
			}
		case f[0] == "link" && len(f) == 3:
			src, err1 := strconv.Atoi(f[1])
			dst, err2 := strconv.Atoi(f[2])
			if err1 != nil || err2 != nil || src < 0 || dst < 0 || src >= g.NumNodes() || dst >= g.NumNodes() {
				msg = "unknown node id"
			} else if n := g.NumLinks(); int(g.AddLink(netgraph.NodeID(src), netgraph.NodeID(dst))) != n {
				msg = "duplicate link"
			}
		case f[0] == "deltanet-trace":
			msg = "a deltanet-trace v1 file; this build reads line-protocol sessions: regenerate it with dngen"
		default:
			msg = "want node <name>, link <srcID> <dstID>, I or R"
		}
		if msg != "" {
			return nil, fmt.Errorf("trace: line %d: %s: %q", lineNo, msg, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g.NumNodes() == 0 && len(t.Ops) == 0 {
		return nil, fmt.Errorf("trace: empty input")
	}
	return t, nil
}

// ParseOp parses an I or R line — the line protocol's update grammar —
// into a batch operation, or returns what is wrong with it. It only
// parses: a number is refused when the rule's field cannot hold it, and
// what the numbers refer to is the caller's to judge against a
// topology. Tokens are scanned in place, so a well-formed line costs no
// allocation (the batch ingest hot path).
func ParseOp(line string) (core.BatchOp, string) {
	i := 0
	switch verb, _ := nextField(line, &i); verb {
	case "I":
		r, msg := scanRule(line, &i)
		if msg != "" {
			return core.BatchOp{}, msg
		}
		return core.InsertOp(r), ""
	case "R":
		f, ok := nextField(line, &i)
		if !ok {
			return core.BatchOp{}, "usage: R <ruleID>"
		}
		id, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return core.BatchOp{}, "bad rule id"
		}
		if _, extra := nextField(line, &i); extra {
			return core.BatchOp{}, "usage: R <ruleID>"
		}
		return core.RemoveOp(core.RuleID(id)), ""
	default:
		return core.BatchOp{}, "want an I or R line, got " + verb
	}
}

// nextField returns the next whitespace-delimited token of line
// starting at *i, advancing *i past it. Tokens are substrings of line,
// so scanning costs no allocation.
func nextField(line string, i *int) (string, bool) {
	for *i < len(line) && (line[*i] == ' ' || line[*i] == '\t' || line[*i] == '\r') {
		*i++
	}
	if *i >= len(line) {
		return "", false
	}
	start := *i
	for *i < len(line) && line[*i] != ' ' && line[*i] != '\t' && line[*i] != '\r' {
		*i++
	}
	return line[start:*i], true
}

// scanRule scans an I line's six numbers — id, source node, link (-1
// for the drop link), lo, hi, priority — from line at *i, which must
// end there.
func scanRule(line string, i *int) (core.Rule, string) {
	const usage = "usage: I <ruleID> <srcID> <linkID|-1> <lo> <hi> <prio>"
	var nums [6]int64
	for k := range nums {
		f, ok := nextField(line, i)
		if !ok {
			return core.Rule{}, usage
		}
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return core.Rule{}, "bad number: " + f
		}
		nums[k] = v
	}
	if _, extra := nextField(line, i); extra {
		return core.Rule{}, usage
	}
	r := core.Rule{
		ID:       core.RuleID(nums[0]),
		Source:   netgraph.NodeID(nums[1]),
		Link:     netgraph.LinkID(nums[2]),
		Match:    ipnet.Interval{Lo: uint64(nums[3]), Hi: uint64(nums[4])},
		Priority: core.Priority(nums[5]),
	}
	if int64(r.Source) != nums[1] || int64(r.Link) != nums[2] || int64(r.Priority) != nums[5] {
		return core.Rule{}, "node id, link id or priority out of range"
	}
	return r, ""
}

// Apply replays one operation into the engine, returning its delta.
func Apply(n *core.Network, op core.BatchOp, d *core.Delta) error {
	if op.Insert {
		return n.InsertRuleInto(op.Rule, d)
	}
	return n.RemoveRuleInto(op.Rule.ID, d)
}
