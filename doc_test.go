package absmac

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocBudgets holds the standing line budgets of the two maps a reader
// starts from: past them, dated detail belongs in CHANGES.md or bench/.
func TestDocBudgets(t *testing.T) {
	for path, limit := range map[string]int{
		"doc.go":                         250,
		".claude/skills/verify/SKILL.md": 150,
	} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(b), "\n"); n > limit {
			t.Errorf("%s has %d lines, over its budget of %d", path, n, limit)
		}
	}
}

// TestDocNamesExistingCommands: every cmd/<name> that the package map,
// SKILL.md, CI or a Go comment names is a directory, so a deleted or
// renamed command cannot linger in the docs. (bench/ is its own module,
// with its own docs.)
func TestDocNamesExistingCommands(t *testing.T) {
	cmd := regexp.MustCompile(`\bcmd/([a-z][a-z0-9_]*)`)
	for path, text := range docTexts(t) {
		for _, m := range cmd.FindAllStringSubmatch(text, -1) {
			if fi, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, which is not a directory", path, m[0])
			}
		}
	}
}

// TestDocNamesExistingFlags: every -name on a line that runs amacsim (a
// line ending in \ continues on the next) in the package map, SKILL.md, CI
// or a Go comment is a flag that
// cmd/amacsim/main.go defines, so a deleted or renamed flag cannot linger
// in a documented command.
func TestDocNamesExistingFlags(t *testing.T) {
	src, err := os.ReadFile("cmd/amacsim/main.go")
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	for _, m := range regexp.MustCompile(`fs\.\w+\((?:&c\.\w+, )?"(\w+)"`).FindAllStringSubmatch(string(src), -1) {
		defined[m[1]] = true
	}
	if len(defined) == 0 {
		t.Fatal("found no flag definition in cmd/amacsim/main.go")
	}
	flagRE := regexp.MustCompile(`(?:^|[^\w-])-([a-zA-Z]\w*)`)
	for path, text := range docTexts(t) {
		for _, line := range strings.Split(strings.ReplaceAll(text, "\\\n", " "), "\n") {
			if !strings.Contains(line, "amacsim") {
				continue
			}
			for _, m := range flagRE.FindAllStringSubmatch(line, -1) {
				if !defined[m[1]] {
					t.Errorf("%s runs amacsim with -%s, which cmd/amacsim/main.go does not define: %s",
						path, m[1], strings.TrimSpace(line))
				}
			}
		}
	}
}

// docTexts returns the package map, SKILL.md and ci.yml whole, and the
// comments of every Go file under cmd/, internal/ and examples/ (testdata
// aside), by path.
func docTexts(t *testing.T) map[string]string {
	t.Helper()
	texts := map[string]string{}
	for _, path := range []string{"doc.go", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		texts[path] = string(b)
	}
	fset := token.NewFileSet()
	for _, root := range []string{"cmd", "internal", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() && d.Name() == "testdata" {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			var comments strings.Builder
			for _, g := range f.Comments {
				comments.WriteString(g.Text())
			}
			texts[path] = comments.String()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return texts
}

// TestCINamesExistingTests: every alternative of a -run, -bench or -fuzz
// pattern in ci.yml matches a function declared in a _test.go file of the
// packages its go test command names. A deleted or renamed test would
// otherwise leave its step running nothing, and passing. (-run '^$' is
// the deliberate run-nothing of a benchmark or fuzz step.)
func TestCINamesExistingTests(t *testing.T) {
	b, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	commands := 0
	for _, line := range strings.Split(strings.ReplaceAll(string(b), "\\\n", " "), "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		commands++
		var pkgs, patterns []string
		fields := strings.Fields(cmd)
		for i, f := range fields {
			switch {
			case strings.HasPrefix(f, "./"):
				pkgs = append(pkgs, f)
			case (f == "-run" || f == "-bench" || f == "-fuzz") && i+1 < len(fields):
				if p := strings.Trim(fields[i+1], "'"); p != "^$" {
					patterns = append(patterns, strings.Split(p, "|")...)
				}
			}
		}
		if len(patterns) == 0 {
			continue
		}
		funcs := testFuncs(t, pkgs)
		for _, p := range patterns {
			re, err := regexp.Compile(p)
			if err != nil {
				t.Errorf("ci.yml pattern %q: %v", p, err)
				continue
			}
			if !slices.ContainsFunc(funcs, re.MatchString) {
				t.Errorf("ci.yml pattern %q matches no test function in %v", p, pkgs)
			}
		}
	}
	if commands == 0 {
		t.Fatal("found no go test command in ci.yml")
	}
}

// testFuncs lists the top-level functions declared in the _test.go files
// of the package directories pkgs names (./... is every package).
func testFuncs(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	for _, pkg := range pkgs {
		root, recursive := strings.CutSuffix(pkg, "...")
		err := filepath.WalkDir(filepath.Clean(root), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				// go test skips testdata, dot and underscore directories,
				// and bench/ is a module of its own.
				name := d.Name()
				if path != filepath.Clean(root) && (!recursive || name == "testdata" || name == "bench" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					names = append(names, fn.Name.Name)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}
