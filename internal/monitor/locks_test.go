package monitor

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestTwoLocks pins the single-writer design structurally: across the
// package's non-test files the only mutex fields are Monitor.mu and
// Monitor.eventMu, each carries its //deltanet:lockrank (so dnlint
// orders them), there is no third rank, and nothing suppresses the
// lock-order analyzer. A per-invariant, per-subgoal or per-shard lock
// coming back fails here before it can deadlock anywhere.
func TestTwoLocks(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var mutexes []string
	ranks := 0
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "//deltanet:lockrank") {
					ranks++
				}
				if strings.HasPrefix(c.Text, "//deltanet:nolint lockorder") {
					t.Errorf("%s: %s", fset.Position(c.Pos()), c.Text)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				typ := field.Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				sel, ok := typ.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Mutex" && sel.Sel.Name != "RWMutex") {
					continue
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "sync" {
					continue
				}
				fieldName := "(embedded)"
				if len(field.Names) > 0 {
					fieldName = field.Names[0].Name
				}
				mutexes = append(mutexes, ts.Name.Name+"."+fieldName)
				if field.Doc == nil || !strings.Contains(commentText(field.Doc), "//deltanet:lockrank") {
					t.Errorf("%s.%s has no //deltanet:lockrank", ts.Name.Name, fieldName)
				}
			}
			return true
		})
	}
	slices.Sort(mutexes)
	if want := []string{"Monitor.eventMu", "Monitor.mu"}; !slices.Equal(mutexes, want) {
		t.Errorf("mutex fields %v, want exactly %v", mutexes, want)
	}
	if ranks != 2 {
		t.Errorf("%d //deltanet:lockrank annotations, want 2", ranks)
	}
}

// commentText joins a comment group's raw lines: CommentGroup.Text drops
// //directive lines, which is what a lockrank annotation is.
func commentText(cg *ast.CommentGroup) string {
	var b strings.Builder
	for _, c := range cg.List {
		b.WriteString(c.Text)
	}
	return b.String()
}
