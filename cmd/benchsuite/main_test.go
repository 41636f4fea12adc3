package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"github.com/absmac/absmac/internal/harness"
)

// TestCommandLine drives the command in-process: the canonical grid must
// run clean (exit 1 is a violating cell), each mode refuses the other's
// flags, and a profile that cannot be written fails the run.
func TestCommandLine(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing", "x.out")
	for _, r := range []struct {
		name string
		args []string
		code int
	}{
		{"canonical grid", []string{"-grid"}, 0},
		{"one experiment", []string{"-q", "-only", "E5"}, 0},
		{"grid refuses -q", []string{"-grid", "-q"}, 2},
		{"experiments refuse -json", []string{"-only", "E5", "-json"}, 2},
		{"unknown experiment", []string{"-only", "E0"}, 2},
		{"unwritable -memprofile", []string{"-q", "-only", "E5", "-memprofile", missing}, 2},
	} {
		t.Run(r.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(r.args, &stdout, &stderr); got != r.code {
				t.Errorf("benchsuite %s exited %d, want %d; stderr:\n%s",
					strings.Join(r.args, " "), got, r.code, stderr.String())
			}
		})
	}
}

// TestCanonicalGridCoversEveryFamily holds the package comment's promise:
// every registered topology family appears in the canonical grid.
func TestCanonicalGridCoversEveryFamily(t *testing.T) {
	covered := map[string]bool{}
	for _, g := range canonicalGrids() {
		for _, tp := range g.Topos {
			covered[tp.Kind] = true
		}
	}
	for _, kind := range harness.Topologies() {
		if !covered[kind] {
			t.Errorf("topology family %q is registered but missing from canonicalGrids", kind)
		}
	}
}
