// Package wireproto pins internal/server's wire protocol: no command
// ships undocumented or unfuzzed. Every string handle and dispatch switch
// on or compare against is in protocolCommands, which is sorted and
// unique, equals the README's "| Request" table and starts a line of
// some dispatchSeeds entry (FuzzDispatch's seeds).
package wireproto

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestClean(t *testing.T) {
	for _, f := range check("../../server", "../../../README.md") {
		t.Error(f)
	}
}

// TestFlagged runs the check over a fixture with one seed of each kind.
func TestFlagged(t *testing.T) {
	want := []string{
		`a.go:32: dispatch handles "new", which is not in protocolCommands`,
		`protocolCommands is not sorted and unique: ["get" "del" "put" "put"]`, // a swapped and a duplicate entry
		`the README protocol table lists ["get" "put" "quux"], protocolCommands ["get" "del" "put" "put"]`,
		`command "del" starts no line of a FuzzDispatch seed`,
	}
	if got := check("testdata/src/a", "testdata/src/a/README.md"); !slices.Equal(got, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// check reads the Go files of dir, tests included, and the README at
// readme, and returns what they disagree on.
func check(dir, readme string) (out []string) {
	report := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	names, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	fset, lists, funcs := token.NewFileSet(), map[string][]string{}, []*ast.FuncDecl{}
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			return []string{err.Error()}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.ValueSpec: // the string lists protocolCommands and dispatchSeeds
				if name := d.Names[0].Name; len(d.Values) == 1 && (name == "protocolCommands" || name == "dispatchSeeds") {
					for _, e := range d.Values[0].(*ast.CompositeLit).Elts {
						s, _ := strconv.Unquote(e.(*ast.BasicLit).Value)
						lists[name] = append(lists[name], s)
					}
				}
			case *ast.FuncDecl:
				if d.Recv != nil && (d.Name.Name == "handle" || d.Name.Name == "dispatch") {
					funcs = append(funcs, d)
				}
				return false
			}
			return true
		})
	}
	commands := lists["protocolCommands"]
	if len(funcs) != 2 || len(commands) == 0 {
		return []string{fmt.Sprintf("found %d of the methods handle and dispatch and %d commands", len(funcs), len(commands))}
	}
	for _, fd := range funcs {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			var cmds []ast.Expr // a tagless switch's cases are caught as == operands
			if cc, ok := n.(*ast.CaseClause); ok {
				cmds = cc.List
			} else if be, ok := n.(*ast.BinaryExpr); ok && be.Op == token.EQL {
				cmds = []ast.Expr{be.X, be.Y}
			}
			for _, e := range cmds {
				if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if cmd, _ := strconv.Unquote(lit.Value); cmd != "" && !slices.Contains(commands, cmd) {
						p := fset.Position(lit.Pos())
						report("%s:%d: %s handles %q, which is not in protocolCommands", filepath.Base(p.Filename), p.Line, fd.Name.Name, cmd)
					}
				}
			}
			return true
		})
	}
	if !slices.IsSorted(commands) || len(slices.Compact(slices.Clone(commands))) != len(commands) {
		report("protocolCommands is not sorted and unique: %q", commands)
	}
	text, _ := os.ReadFile(readme) // unreadable reads as an empty table
	var table []string
	inTable := false
	for _, line := range strings.Split(string(text), "\n") {
		if inTable = strings.HasPrefix(line, "|") && (inTable || strings.Contains(line, "| Request")); inTable {
			cell := strings.Fields(strings.Trim(strings.Split(line, "|")[1], " `"))
			if len(cell) > 0 && cell[0] != "Request" && !strings.HasPrefix(cell[0], "-") && !slices.Contains(table, cell[0]) {
				table = append(table, cell[0]) // the first word of the Request cell
			}
		}
	}
	slices.Sort(table)
	if !slices.Equal(table, commands) {
		report("the README protocol table lists %q, protocolCommands %q", table, commands)
	}
	seeds := "\n" + strings.Join(lists["dispatchSeeds"], "\n") + "\n"
	for _, c := range slices.Compact(slices.Sorted(slices.Values(commands))) {
		if !strings.Contains(seeds, "\n"+c+" ") && !strings.Contains(seeds, "\n"+c+"\n") {
			report("command %q starts no line of a FuzzDispatch seed", c)
		}
	}
	return out
}
