package absmac

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
// SKILL.md, CI or a Go comment under internal/ names is a directory, so a
// deleted or renamed command cannot linger in the docs. (bench/ is its own
// module, with its own docs.)
func TestDocNamesExistingCommands(t *testing.T) {
	texts := map[string]string{}
	for _, path := range []string{"doc.go", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		texts[path] = string(b)
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
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
	cmd := regexp.MustCompile(`\bcmd/([a-z][a-z0-9_]*)`)
	for path, text := range texts {
		for _, m := range cmd.FindAllStringSubmatch(text, -1) {
			if fi, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, which is not a directory", path, m[0])
			}
		}
	}
}
