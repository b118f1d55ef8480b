// Command deltanet replays a trace file — a line-protocol session as
// dngen writes it (see internal/trace) — through the Delta-net checker,
// verifying loop freedom on every rule update and printing a summary:
// the paper's per-update checking pipeline (§4.3.1) as a standalone tool.
//
// Usage:
//
//	deltanet [-gc] [-quiet] trace.txt
//	dngen 4switch | deltanet -        # read from stdin
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"deltanet/internal/check"
	"deltanet/internal/core"
	"deltanet/internal/stats"
	"deltanet/internal/trace"
)

func main() {
	gc := flag.Bool("gc", false, "enable atom garbage collection")
	quiet := flag.Bool("quiet", false, "suppress per-loop diagnostics")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: deltanet [-gc] [-quiet] <trace.txt | ->")
		os.Exit(2)
	}
	var in io.Reader = os.Stdin
	if name := flag.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	tr, err := trace.Read(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	n := core.NewNetwork(tr.Graph, core.Options{GC: *gc})
	lat := stats.NewLatencies(len(tr.Ops))
	loops := 0
	var d core.Delta
	for i, op := range tr.Ops {
		t0 := time.Now()
		if err := trace.Apply(n, op, &d); err != nil {
			fmt.Fprintf(os.Stderr, "op %d: %v\n", i, err)
			os.Exit(1)
		}
		found := check.FindLoopsDelta(n, &d)
		lat.Add(time.Since(t0))
		if len(found) > 0 {
			loops += len(found)
			if !*quiet {
				for _, l := range found {
					iv, _ := n.AtomInterval(l.Atom)
					fmt.Printf("op %d (rule %d): forwarding loop for %v via %d nodes\n",
						i, d.Rule, iv, len(l.Nodes)-1)
				}
			}
		}
	}

	fmt.Printf("trace:      %s\n", tr.Name)
	fmt.Printf("operations: %d (%d inserts)\n", len(tr.Ops), tr.NumInserts())
	fmt.Printf("rules live: %d\n", n.NumRules())
	fmt.Printf("atoms:      %d (splits %d, merges %d)\n", n.NumAtoms(), n.Splits(), n.Merges())
	fmt.Printf("loops:      %d update(s) flagged\n", loops)
	fmt.Printf("latency:    median %s, average %s, p99 %s, max %s\n",
		stats.FormatMicros(lat.Median()), stats.FormatMicros(lat.Mean()),
		stats.FormatMicros(lat.Percentile(99)), stats.FormatMicros(lat.Max()))
	fmt.Printf("< 250µs:    %.2f%%\n", lat.FractionBelow(250*time.Microsecond)*100)
}
