package nowallclock_test

import (
	"testing"

	"github.com/absmac/absmac/internal/lint/linttest"
	"github.com/absmac/absmac/internal/lint/nowallclock"
)

func TestFixture(t *testing.T) {
	linttest.Run(t, "testdata/src/nowallclock", nowallclock.Analyzer)
}

// TestScope pins the scope: the cmd/ front-ends and examples may read
// real time, nothing under internal/ may, and fixtures are always in
// scope.
func TestScope(t *testing.T) {
	scope := nowallclock.Analyzer.Scope
	for path, want := range map[string]bool{
		"github.com/absmac/absmac/internal/sim":                                       true,
		"github.com/absmac/absmac/internal/harness":                                   true,
		"github.com/absmac/absmac/internal/explore":                                   true,
		"github.com/absmac/absmac/internal/core/wpaxos":                               true,
		"github.com/absmac/absmac/internal/lint":                                      true,
		"github.com/absmac/absmac/cmd/amacsim":                                        false,
		"github.com/absmac/absmac/examples/quickstart":                                false,
		"github.com/absmac/absmac/internal/lint/nowallclock/testdata/src/nowallclock": true,
	} {
		if got := scope(path); got != want {
			t.Errorf("Scope(%q) = %v, want %v", path, got, want)
		}
	}
}
