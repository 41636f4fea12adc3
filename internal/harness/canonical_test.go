package harness

import "testing"

// TestCanonicalGridCoversEveryFamily holds CanonicalGrids' promises: every
// registered topology family appears in it, and no two expanded cells
// agree on every non-seed axis, so concatenating the four grids'
// work-units is exactly one flat sweep.
func TestCanonicalGridCoversEveryFamily(t *testing.T) {
	covered := map[string]bool{}
	cells := map[Scenario]int{}
	for gi, g := range CanonicalGrids() {
		for _, tp := range g.Topos {
			covered[tp.Kind] = true
		}
		for _, w := range mustCells(t, g) {
			base := w.Base
			base.Seed = 0
			if prev, dup := cells[base]; dup {
				t.Errorf("grids %d and %d both expand the cell %+v", prev, gi, base)
			}
			cells[base] = gi
		}
	}
	for _, kind := range Topologies() {
		if !covered[kind] {
			t.Errorf("topology family %q is registered but missing from CanonicalGrids", kind)
		}
	}
}
