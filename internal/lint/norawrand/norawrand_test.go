package norawrand_test

import (
	"testing"

	"github.com/absmac/absmac/internal/lint/linttest"
	"github.com/absmac/absmac/internal/lint/norawrand"
)

func TestFixture(t *testing.T) {
	linttest.Run(t, "testdata/src/norawrand", norawrand.Analyzer)
}

// TestScope pins the package allowlist: randomness is policed exactly in
// the deterministic core, and fixtures are always in scope.
func TestScope(t *testing.T) {
	scope := norawrand.Analyzer.Scope
	for path, want := range map[string]bool{
		"github.com/absmac/absmac/internal/sim":                                   true,
		"github.com/absmac/absmac/internal/graph":                                 true,
		"github.com/absmac/absmac/internal/harness":                               true,
		"github.com/absmac/absmac/internal/explore":                               true,
		"github.com/absmac/absmac/internal/baseline/gatherall":                    true,
		"github.com/absmac/absmac/internal/ext/benor":                             true,
		"github.com/absmac/absmac/internal/metrics":                               true,
		"github.com/absmac/absmac/internal/critpath":                              true,
		"github.com/absmac/absmac/internal/core/wpaxos":                           true,
		"github.com/absmac/absmac/internal/core/twophase":                         true,
		"github.com/absmac/absmac/internal/omega":                                 true,
		"github.com/absmac/absmac/cmd/amacsim":                                    false,
		"github.com/absmac/absmac/internal/lint/norawrand/testdata/src/norawrand": true,
	} {
		if got := scope(path); got != want {
			t.Errorf("Scope(%q) = %v, want %v", path, got, want)
		}
	}
}
