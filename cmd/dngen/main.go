// Command dngen generates the paper's datasets (§4.2, Table 2) as
// replayable trace files: line-protocol sessions (node and link lines,
// then I and R lines; see internal/trace) that deltanet, dnquery -trace
// and dnserve -trace read, and that replay into an empty dnserve as they
// are (nc host 6633 < file).
//
// Usage:
//
//	dngen [-scale f] [-out file] berkeley|inet|rf1755|rf3257|rf6461|airtel1|airtel2|4switch
//
// With no -out the trace is written to stdout. Generation is deterministic
// per (dataset, scale).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"deltanet/internal/datasets"
)

func main() {
	scale := flag.Float64("scale", 1.0, "dataset scale factor (1.0 = laptop default)")
	out := flag.String("out", "", "output file (default stdout)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "usage: dngen [-scale f] [-out file] <%s>\n",
			strings.Join(datasets.Names(), "|"))
		os.Exit(2)
	}
	name := flag.Arg(0)
	tr, err := datasets.Build(name, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := tr.Write(w); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	info := datasets.Describe(tr)
	fmt.Fprintf(os.Stderr, "%s: %d nodes, %d links, %d operations (%d inserts)\n",
		info.Name, info.Nodes, info.Links, info.Operations, info.Inserts)
}
