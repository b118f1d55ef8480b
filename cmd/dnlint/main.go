// Command dnlint runs deltanet's custom static-analysis suite (see
// internal/analysis) over the requested packages and exits non-zero on
// any finding:
//
//	go run ./cmd/dnlint ./...
//
// With no arguments it checks ./... . CI gates on the same suite through
// internal/analysis.TestDnlintClean, which `go test ./...` runs. dnlint is a standalone driver
// rather than a `go vet -vettool` unitchecker because the module is
// dependency-free: the vet plugin protocol lives in golang.org/x/tools,
// which deltanet deliberately does not import.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"deltanet/internal/analysis"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := dnlintRun(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnlint:", err)
		os.Exit(2)
	}
	for _, line := range diags {
		fmt.Println(line)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "dnlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func dnlintRun(patterns []string) ([]string, error) {
	diags, err := analysis.Run(patterns)
	if err != nil {
		return nil, err
	}
	cwd, _ := os.Getwd()
	out := make([]string, 0, len(diags))
	for _, d := range diags {
		pos := d.Position
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && len(rel) < len(pos.Filename) {
				pos.Filename = rel
			}
		}
		out = append(out, fmt.Sprintf("%s: [%s] %s", pos, d.Analyzer, d.Message))
	}
	return out, nil
}
