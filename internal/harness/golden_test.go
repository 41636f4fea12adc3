package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenGrid is the small canonical grid pinned by
// testdata/golden_small_grid.json. The golden file was captured from the
// pre-cell-refactor flat-scenario sweep, so this test proves the
// cell-grouped pipeline (work-unit scheduling, shared caches, engine
// reuse, streaming accumulation) reproduces the old aggregation byte for
// byte. CI additionally diffs `amacsim -sweep -json` on the same grid
// against the same file, covering the CLI flag plumbing.
//
// Regenerate (only when the cell schema or an algorithm's executions
// intentionally change; the diff must touch that algorithm's cells alone)
// with:
//
//	go run ./cmd/amacsim -sweep -algos wpaxos,floodpaxos \
//	    -topos clique:4,ring:5 -scheds sync,random -facks 3 -seeds 3 \
//	    -crashes none,one@0 -overlays none,chords -json \
//	    > internal/harness/testdata/golden_small_grid.json
func goldenGrid() Grid {
	return Grid{
		Algos:    []string{"wpaxos", "floodpaxos"},
		Topos:    []Topo{{Kind: "clique", N: 4}, {Kind: "ring", N: 5}},
		Scheds:   []string{"sync", "random"},
		Facks:    []int64{3},
		Inputs:   []string{"alternating"},
		Crashes:  []string{"none", "one@0"},
		Overlays: []string{"none", "chords"},
		Seeds:    []int64{1, 2, 3},
	}
}

func TestSweepGoldenJSON(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_small_grid.json"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, mustSweep(t, goldenGrid(), 0)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("sweep output diverged from the golden aggregation "+
			"(got %d bytes, want %d; run the regeneration command in this file's comment only "+
			"for an intentional schema or execution change)", buf.Len(), len(want))
	}
}
