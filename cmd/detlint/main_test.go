package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/absmac/absmac/internal/lint"
)

// TestRun runs the suite from the module root: the tree must be clean
// (exit 0), each analyzer must still trip on its committed fixture under
// its own package Scope (exit 1; 0 would mean the analyzer or its scope
// rotted), and an unknown analyzer name is a usage error (exit 2).
func TestRun(t *testing.T) {
	t.Chdir("../..")
	type row struct {
		name string
		args []string
		code int
	}
	rows := []row{
		{"the tree is clean", []string{"./..."}, 0},
		{"unknown analyzer", []string{"-only", "nosuch", "./..."}, 2},
	}
	for _, a := range lint.Analyzers() {
		fixture := "./internal/lint/" + a.Name + "/testdata/src/" + a.Name
		rows = append(rows, row{a.Name + " fixture fails", []string{"-only", a.Name, fixture}, 1})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(r.args, &stdout, &stderr); got != r.code {
				t.Errorf("detlint %s exited %d, want %d\nstdout:\n%s\nstderr:\n%s",
					strings.Join(r.args, " "), got, r.code, stdout.String(), stderr.String())
			}
		})
	}
}
