package main

import (
	"testing"

	"github.com/absmac/absmac/internal/harness"
)

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
