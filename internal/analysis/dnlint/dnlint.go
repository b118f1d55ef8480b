// Package dnlint is deltanet's in-tree static-analysis driver: a small,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// driver shape on top of the standard library's go/ast, go/types and
// go/importer.
//
// The repo's lint suite (internal/analysis/...) enforces what neither
// the compiler, go vet nor a test in the owning package can see: today
// one analyzer, lockorder, and its lock-rank hierarchy. Analyzers are
// written against the types in this package; cmd/dnlint is the
// multichecker binary and internal/analysis.TestDnlintClean is the
// in-repo gate.
//
// Why not x/tools? deltanet is deliberately zero-dependency (see go.mod),
// so the usual go/analysis + analysistest + `go vet -vettool` stack is
// unavailable. dnlint mirrors its essentials: an Analyzer runs over one
// type-checked package at a time (a Pass), reports Diagnostics, and is
// tested against analysistest-style fixtures with `// want "regexp"`
// comments (see RunTest). Packages are loaded via `go list -export`, so
// imports are resolved from the build cache's export data exactly as the
// compiler saw them.
//
// # Annotation grammar
//
// Analyzers are driven by //deltanet:* marker comments. A marker is a
// single //-comment line (no space after the slashes, like //go:build)
// inside the doc comment or trailing comment of the declaration it
// annotates:
//
//	//deltanet:lockrank <n>
//	    On a sync.Mutex or sync.RWMutex struct field: declares the
//	    field's rank in the package's lock hierarchy. Locks must be
//	    acquired in strictly increasing rank order. Checked by the
//	    lockorder analyzer.
//
//	//deltanet:nolint <analyzer>[,<analyzer>] <reason>
//	    Suppresses diagnostics from the named analyzers on the marker's
//	    line and on the line directly below it (so the marker works both
//	    trailing the offending line and standing on its own line above
//	    it). The reason is mandatory; a missing reason or an unknown
//	    analyzer name is itself reported (and cannot be suppressed).
//
// Any other //deltanet:<word> marker in a loaded file whose word no
// analyzer of the run claims (Analyzer.Markers) is reported as stale:
// a marker whose checker was deleted must go with it, or it promises a
// check that no longer runs.
package dnlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static check. It is invoked once per loaded
// package via Run (or once per fixture package via RunTest).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //deltanet:nolint comments. Lower-case, no spaces.
	Name string

	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string

	// Markers are the //deltanet:<word> marker words the analyzer reads.
	// A marker no analyzer of the run claims is reported as stale.
	Markers []string

	// Run applies the analyzer to one package. Findings go through
	// pass.Reportf; the error return is for operational failures only
	// (it aborts the whole run, it is not a finding).
	Run func(*Pass) error
}

// A Pass is one (analyzer, package) unit of work, mirroring
// golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer *Analyzer

	Fset  *token.FileSet
	Files []*ast.File // the package's compiled (non-test) files, with comments
	Pkg   *types.Package
	Info  *types.Info
	Dir   string // the package's directory on disk

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Position: p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Position token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Position, d.Analyzer, d.Message)
}

// Marker extracts the argument text of a //deltanet:<name> marker
// comment. The marker must start the comment ("//deltanet:lockrank 10"),
// and whatever follows the name is returned with surrounding space
// trimmed. ok reports whether c is a marker for name.
func Marker(c *ast.Comment, name string) (args string, ok bool) {
	text, found := strings.CutPrefix(c.Text, "//deltanet:")
	if !found {
		return "", false
	}
	rest, found := strings.CutPrefix(text, name)
	if !found {
		return "", false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false // a longer marker name, e.g. "lockranks"
	}
	return strings.TrimSpace(rest), true
}

// GroupMarker scans a comment group (a declaration's Doc or trailing
// Comment) for a //deltanet:<name> marker.
func GroupMarker(g *ast.CommentGroup, name string) (args string, ok bool) {
	if g == nil {
		return "", false
	}
	for _, c := range g.List {
		if args, ok := Marker(c, name); ok {
			return args, true
		}
	}
	return "", false
}

// FieldObj resolves a struct-field AST name to its types.Var.
func FieldObj(info *types.Info, name *ast.Ident) (*types.Var, bool) {
	v, ok := info.Defs[name].(*types.Var)
	return v, ok
}

// SelectedVar resolves the object an expression refers to, seeing
// through selections (x.f, pkg.V) and plain identifiers. It returns nil
// for anything that is not a *types.Var.
func SelectedVar(info *types.Info, e ast.Expr) *types.Var {
	switch e := e.(type) {
	case *ast.Ident:
		v, _ := info.Uses[e].(*types.Var)
		return v
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			v, _ := sel.Obj().(*types.Var)
			return v
		}
		v, _ := info.Uses[e.Sel].(*types.Var)
		return v
	case *ast.ParenExpr:
		return SelectedVar(info, e.X)
	}
	return nil
}

// NamedType reports whether t (after unaliasing) is the named type
// pkgPath.name, e.g. NamedType(t, "sync", "Mutex").
func NamedType(t types.Type, pkgPath, name string) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}
