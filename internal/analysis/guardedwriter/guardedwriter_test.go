// Package guardedwriter pins internal/server's connection writes. The
// request loop and the watch streamer share a served connection, so only
// connWriter, whose mutex keeps lines whole, writes to it or wraps it (the
// replica's requests go out on its own conn to the primary). No call to a
// connWriter method, in one, or to a conn discards its error: that error
// is how a dead client is found.
package guardedwriter

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestClean(t *testing.T) {
	for _, f := range check(t, "../../server", "deltanet/internal/server") {
		t.Error(f)
	}
}

// TestFlagged runs the check over a fixture with one seed of each kind.
func TestFlagged(t *testing.T) {
	want := []string{
		"a.go:24: the error of fmt.Fprintln is discarded", "a.go:25: the error of Flush is discarded",
		"a.go:29: fmt.Fprintf writes to a net.Conn outside connWriter", "a.go:29: the error of fmt.Fprintf is discarded",
		"a.go:30: Write writes to a net.Conn outside connWriter",
		"a.go:36: bufio.NewWriter writes to a net.Conn outside connWriter", // each wrap, whatever writes through it
		"a.go:41: bufio.NewWriter writes to a net.Conn outside connWriter",
		"a.go:46: bufio.NewWriterSize writes to a net.Conn outside connWriter",
		"a.go:50: the error of writeLine is discarded", "a.go:51: the error of writeLine is discarded",
		"a.go:58: Write writes to a net.Conn outside connWriter", "a.go:58: the error of Write is discarded",
	}
	if got := check(t, "testdata/src/a", "a"); !slices.Equal(got, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// check type-checks the non-test files of dir as package path and
// returns its unguarded conn writes and dropped write errors.
func check(t *testing.T, dir, path string) (out []string) {
	exempt := map[string]bool{"newConnWriter": true, "replicaAnchor": true, "replicaStream": true}
	writes := " Write WriteString WriteByte WriteRune Flush ReadFrom fmt.Fprint fmt.Fprintf fmt.Fprintln " +
		"io.WriteString io.Copy bufio.NewWriter bufio.NewWriterSize "
	fset, files := token.NewFileSet(), []*ast.File{}
	names, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, name := range names {
		if !strings.HasSuffix(name, "_test.go") {
			f, _ := parser.ParseFile(fset, name, nil, 0) // a parse error fails Check below
			files = append(files, f)
		}
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check(path, fset, files, info); err != nil {
		t.Fatal(err)
	}
	netPkg, _ := conf.Importer.Import("net")
	conn := netPkg.Scope().Lookup("Conn").Type().Underlying().(*types.Interface)
	errType, dropped := types.Universe.Lookup("error").Type(), map[ast.Expr]bool{}
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: ", filepath.Base(p.Filename), p.Line)+fmt.Sprintf(format, args...))
	}
	for _, f := range files {
		var fd *ast.FuncDecl
		inWriter := false
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.FuncDecl:
				fd, inWriter = s, s.Recv != nil && strings.HasSuffix(types.ExprString(s.Recv.List[0].Type), "connWriter")
			case *ast.ExprStmt: // calls whose result, or last result, is discarded
				dropped[s.X] = true
			case *ast.GoStmt:
				dropped[s.Call] = true
			case *ast.DeferStmt:
				dropped[s.Call] = true
			case *ast.AssignStmt:
				last, _ := s.Lhs[len(s.Lhs)-1].(*ast.Ident)
				dropped[s.Rhs[0]] = len(s.Rhs) == 1 && last != nil && last.Name == "_"
			case *ast.CallExpr:
				sel, ok := s.Fun.(*ast.SelectorExpr)
				if !ok || fd == nil {
					break
				}
				fn, ok := info.Uses[sel.Sel].(*types.Func)
				if !ok {
					break
				}
				sig, dst, name := fn.Type().(*types.Signature), sel.X, fn.Name()
				if sig.Recv() == nil && len(s.Args) > 0 {
					dst, name = s.Args[0], fn.Pkg().Name()+"."+name
				}
				toConn := strings.Contains(writes, " "+name+" ") && info.TypeOf(dst) != nil && types.Implements(info.TypeOf(dst), conn)
				if toConn && !inWriter && !exempt[fd.Name.Name] {
					report(s.Pos(), "%s writes to a net.Conn outside connWriter", name)
				}
				onWriter, res := sig.Recv() != nil && strings.HasSuffix(sig.Recv().Type().String(), ".connWriter"), sig.Results()
				if dropped[s] && res.Len() > 0 && types.Identical(res.At(res.Len()-1).Type(), errType) && (onWriter || inWriter || toConn) {
					report(s.Pos(), "the error of %s is discarded", name)
				}
			}
			return true
		})
	}
	return out
}
