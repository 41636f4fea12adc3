package goroutineorder_test

import (
	"testing"

	"github.com/absmac/absmac/internal/lint/goroutineorder"
	"github.com/absmac/absmac/internal/lint/linttest"
)

func TestFixture(t *testing.T) {
	linttest.Run(t, "testdata/src/goroutineorder", goroutineorder.Analyzer)
}

// TestScope pins the package allowlist: ordering of worker publications
// is policed exactly in the deterministic layers.
func TestScope(t *testing.T) {
	scope := goroutineorder.Analyzer.Scope
	for path, want := range map[string]bool{
		"github.com/absmac/absmac/internal/harness":                                         true,
		"github.com/absmac/absmac/internal/explore":                                         true,
		"github.com/absmac/absmac/internal/sim":                                             true,
		"github.com/absmac/absmac/internal/metrics":                                         true,
		"github.com/absmac/absmac/internal/critpath":                                        true,
		"github.com/absmac/absmac/internal/core/wpaxos":                                     true,
		"github.com/absmac/absmac/internal/omega":                                           true,
		"github.com/absmac/absmac/internal/live":                                            false,
		"github.com/absmac/absmac/internal/netmac":                                          false,
		"github.com/absmac/absmac/cmd/amacsim":                                              false,
		"github.com/absmac/absmac/internal/lint/goroutineorder/testdata/src/goroutineorder": true,
	} {
		if got := scope(path); got != want {
			t.Errorf("Scope(%q) = %v, want %v", path, got, want)
		}
	}
}
