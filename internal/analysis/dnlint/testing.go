package dnlint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// wantRe matches the expectation arguments of a `// want` comment:
// a sequence of double-quoted or backquoted regular expressions.
var wantRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// RunTest applies one analyzer to an analysistest-style fixture package
// and compares its diagnostics (after //deltanet:nolint filtering, so
// fixtures can exercise suppression too) against `// want` comments:
//
//	p := &T{} // want `regexp matching the message`
//
// A want may also end a marker comment, as in
// //deltanet:word // want `stale marker`. A diagnostic with no matching
// want on its line, and a want with no matching diagnostic, both fail
// the test. pkgDir is relative to the test's working directory, e.g.
// "testdata/src/a".
func RunTest(t *testing.T, pkgDir string, a *Analyzer) {
	t.Helper()
	pkgs, err := Load("", "./"+filepath.ToSlash(pkgDir))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgDir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: loaded %d packages, want 1", pkgDir, len(pkgs))
	}
	pkg := pkgs[0]
	diags, err := runPackage(pkg, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, pkgDir, err)
	}

	wants := collectWants(t, pkg)
	for _, d := range diags {
		key := posKey{filepath.Base(d.Position.Filename), d.Position.Line}
		matched := false
		for i, w := range wants[key] {
			if w.used {
				continue
			}
			if w.re.MatchString(d.Message) {
				wants[key][i].used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", d.Position, d.Analyzer, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s:%d: no diagnostic matching %q", key.file, key.line, w.re)
			}
		}
	}
}

type posKey struct {
	file string
	line int
}

type want struct {
	re   *regexp.Regexp
	used bool
}

func collectWants(t *testing.T, pkg *LoadedPackage) map[posKey][]want {
	t.Helper()
	wants := make(map[posKey][]want)
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				// A want may trail a marker in the same comment.
				_, rest, ok := strings.Cut(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := posKey{filepath.Base(pos.Filename), pos.Line}
				for _, m := range wantRe.FindAllString(rest, -1) {
					pat, err := unquoteWant(m)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", pos, m, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants[key] = append(wants[key], want{re: re})
				}
			}
		}
	}
	return wants
}

func unquoteWant(m string) (string, error) {
	if strings.HasPrefix(m, "`") {
		return strings.Trim(m, "`"), nil
	}
	s, err := strconv.Unquote(m)
	if err != nil {
		return "", fmt.Errorf("unquote: %w", err)
	}
	return s, nil
}
