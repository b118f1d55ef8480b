package dnlint

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"
)

// Run loads the packages matched by patterns (resolved relative to dir,
// or the current directory when dir is empty) and applies every analyzer
// to every package. Diagnostics suppressed by a well-formed
// //deltanet:nolint marker are dropped; malformed nolint markers
// (analyzer name "nolint") and stale markers, whose word no analyzer
// claims (analyzer name "marker"), are themselves diagnostics and cannot
// be suppressed. The result is sorted by position.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var all []Diagnostic
	for _, pkg := range pkgs {
		diags, err := runPackage(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all, nil
}

func runPackage(pkg *LoadedPackage, analyzers []*Analyzer) ([]Diagnostic, error) {
	sup, diags := scanMarkers(pkg, analyzers)
	for _, a := range analyzers {
		var raw []Diagnostic
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Dir:      pkg.Dir,
			diags:    &raw,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
		}
		for _, d := range raw {
			if !sup.suppressed(d) {
				diags = append(diags, d)
			}
		}
	}
	return diags, nil
}

// suppressions maps file -> line -> analyzer names suppressed there.
type suppressions map[string]map[int]map[string]bool

func (s suppressions) suppressed(d Diagnostic) bool {
	lines := s[d.Position.Filename]
	if lines == nil {
		return false
	}
	// A nolint marker covers its own line, or the line below when the
	// marker stands alone on its line.
	for _, line := range []int{d.Position.Line, d.Position.Line - 1} {
		if names := lines[line]; names != nil && (names[d.Analyzer] || names["all"]) {
			return true
		}
	}
	return false
}

// scanMarkers collects //deltanet:nolint markers across the package and
// validates them: the analyzer list must name known analyzers and the
// trailing reason is mandatory. Every other marker's word must be
// claimed by one of the analyzers. Malformed and stale markers become
// diagnostics.
func scanMarkers(pkg *LoadedPackage, analyzers []*Analyzer) (suppressions, []Diagnostic) {
	known, claimed := map[string]bool{"all": true}, map[string]bool{"nolint": true}
	for _, a := range analyzers {
		known[a.Name] = true
		for _, m := range a.Markers {
			claimed[m] = true
		}
	}
	sup := make(suppressions)
	var diags []Diagnostic
	report := func(c *ast.Comment, analyzer, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Position: pkg.Fset.Position(c.Pos()),
			Analyzer: analyzer,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				if rest, ok := strings.CutPrefix(c.Text, "//deltanet:"); ok {
					word, _, _ := strings.Cut(strings.ReplaceAll(rest, "\t", " "), " ")
					if !claimed[word] {
						report(c, "marker", "stale marker //deltanet:%s: no analyzer checks it; delete it", word)
					}
				}
				args, ok := Marker(c, "nolint")
				if !ok {
					continue
				}
				names, reason, _ := strings.Cut(args, " ")
				if names == "" {
					report(c, "nolint", "nolint needs an analyzer list: //deltanet:nolint <analyzer>[,<analyzer>] <reason>")
					continue
				}
				if strings.TrimSpace(reason) == "" {
					report(c, "nolint", "nolint needs a reason: //deltanet:nolint %s <reason>", names)
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				set := map[string]bool{}
				ok = true
				for _, name := range strings.Split(names, ",") {
					if !known[name] {
						report(c, "nolint", "nolint names unknown analyzer %q", name)
						ok = false
						break
					}
					set[name] = true
				}
				if !ok {
					continue
				}
				lines := sup[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					sup[pos.Filename] = lines
				}
				if lines[pos.Line] == nil {
					lines[pos.Line] = set
				} else {
					for n := range set {
						lines[pos.Line][n] = true
					}
				}
			}
		}
	}
	return sup, diags
}
