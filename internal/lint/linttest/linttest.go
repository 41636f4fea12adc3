// Package linttest is the fixture harness for the determinism analyzers —
// the working subset of golang.org/x/tools/go/analysis/analysistest. A
// fixture is an ordinary compilable package committed under the
// analyzer's testdata/src/ directory whose lines carry expectations as
// trailing comments:
//
//	json.NewEncoder(w).Encode(m) // want `range over map`
//	ks = append(ks, k)           // no comment: no diagnostic expected here
//
// Each `want` comment lists one or more quoted or backquoted regular
// expressions; Run loads the fixture with the real loader, applies the
// analyzer, and requires an exact line-by-line correspondence between
// expectations and diagnostics — a missing finding and a surprise finding
// are both failures, so fixtures pin behavior in both directions.
package linttest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/absmac/absmac/internal/lint/analysis"
	"github.com/absmac/absmac/internal/lint/load"
)

// wantRE matches one `// want` expectation comment and captures its
// pattern list.
var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// patRE matches one quoted ("...") or backquoted (`...`) pattern inside a
// `want` comment's pattern list.
var patRE = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

type lineKey struct {
	file string // base name; fixtures never repeat base names
	line int
}

// Run loads the fixture package at dir (relative to the test's working
// directory, e.g. "testdata/src/maporder"), runs the analyzer over it
// ignoring the analyzer's package Scope (fixtures are in scope by
// definition), and checks every diagnostic against the fixture's `want`
// comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	pkgs, err := load.Load(".", "./"+filepath.ToSlash(dir))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}

	for _, pkg := range pkgs {
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			t.Fatalf("%s on %s: %v", a.Name, pkg.PkgPath, err)
		}

		got := map[lineKey][]string{}
		for _, d := range diags {
			p := pkg.Fset.Position(d.Pos)
			k := lineKey{filepath.Base(p.Filename), p.Line}
			got[k] = append(got[k], d.Message)
		}
		want, err := expectations(pkg)
		if err != nil {
			t.Fatal(err)
		}

		for k, pats := range want {
			msgs := got[k]
			if len(msgs) != len(pats) {
				t.Errorf("%s:%d: want %d diagnostic(s) %q, got %d %q",
					k.file, k.line, len(pats), pats, len(msgs), msgs)
				continue
			}
			// Match greedily: each pattern must claim a distinct message.
			used := make([]bool, len(msgs))
			for _, pat := range pats {
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", k.file, k.line, pat, err)
				}
				found := false
				for i, m := range msgs {
					if !used[i] && re.MatchString(m) {
						used[i] = true
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%s:%d: no diagnostic matching %q among %q", k.file, k.line, pat, msgs)
				}
			}
		}
		for k, msgs := range got {
			if _, ok := want[k]; !ok {
				t.Errorf("%s:%d: unexpected diagnostic(s) %q", k.file, k.line, msgs)
			}
		}
	}
}

// expectations scans the fixture's files for `want` comments.
func expectations(pkg *load.Package) (map[lineKey][]string, error) {
	want := map[lineKey][]string{}
	for _, f := range pkg.Syntax {
		name := pkg.Fset.Position(f.Pos()).Filename
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("reading fixture %s: %w", name, err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			k := lineKey{filepath.Base(name), i + 1}
			for _, pm := range patRE.FindAllStringSubmatch(m[1], -1) {
				pat := pm[1]
				if pat == "" {
					pat = pm[2]
				}
				want[k] = append(want[k], pat)
			}
			if len(want[k]) == 0 {
				return nil, fmt.Errorf("%s:%d: want comment with no quoted patterns", k.file, k.line)
			}
		}
	}
	return want, nil
}
