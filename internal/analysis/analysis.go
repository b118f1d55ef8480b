// Package analysis aggregates deltanet's custom lint suite: the checks
// that neither the compiler, go vet nor a test in the owning package can
// make. One analyzer is left (see its package doc):
//
//   - lockorder: //deltanet:lockrank mutexes must be acquired in
//     increasing rank order, never leak past a return, never be copied
//
// Its proving seed, a violation only it catches, is in its package doc.
//
// What other analyzers checked is now pinned by tests in the packages
// that own the code: testutil.PointerFree (pointer-free long-lived
// types). Two test-only packages here check internal/server's source with
// go/parser and go/types, each with a clean and a flagged fixture case:
// wireproto (dispatch, command registry, README table and fuzz seeds
// agree) and guardedwriter (connection writes go through connWriter with
// errors checked).
//
// cmd/dnlint runs the suite from the command line; TestDnlintClean runs
// it as part of `go test ./...`.
package analysis

import (
	"deltanet/internal/analysis/dnlint"
	"deltanet/internal/analysis/lockorder"
)

// Suite returns the deltanet analyzers in a stable order.
func Suite() []*dnlint.Analyzer {
	return []*dnlint.Analyzer{lockorder.Analyzer}
}

// Run applies the full suite to the packages matched by patterns
// (resolved from the current directory) and returns the surviving
// diagnostics, sorted by position.
func Run(patterns []string) ([]dnlint.Diagnostic, error) {
	return dnlint.Run("", patterns, Suite())
}
