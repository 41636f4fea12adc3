package explore

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/harness"
)

// campaignGrid is the campaign test workload: the two-phase coordinator
// stall cell (violating — a dead coordinator strands every witness) next
// to the wPAXOS contrast cell (healthy for all seeds since the Ω detector
// redesign) — a grid where exactly one cell flags.
func campaignGrid() harness.Grid {
	return harness.Grid{
		Algos:    []string{"twophase", "wpaxos"},
		Topos:    []harness.Topo{{Kind: "ring", N: 9}},
		Scheds:   []string{"random"},
		Facks:    []int64{4},
		Crashes:  []string{"coordinator"},
		Overlays: []string{"chords"},
		Seeds:    []int64{1, 2, 3, 4, 5, 6, 7, 8},
		// The stall quiesces; the cap only bounds the healthy cell.
		MaxEvents: 200_000,
	}
}

func TestCampaignFindsKnownStall(t *testing.T) {
	rep, err := Campaign(campaignGrid(), CampaignOptions{Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("report covers %d cells, want 2", len(rep.Cells))
	}
	if rep.Flagged == 0 || rep.CellsFlagged != 1 {
		t.Fatalf("flagged %d runs in %d cells; the twophase stall cell alone must flag", rep.Flagged, rep.CellsFlagged)
	}
	if len(rep.Findings) != 1 {
		t.Fatalf("%d findings, want 1 (one per flagged cell)", len(rep.Findings))
	}
	f := rep.Findings[0]
	if f.Cell != 0 || f.Violation.Kind != consensus.KindNonTermination || !f.Minimized {
		t.Fatalf("finding misclassified: %+v", f)
	}
	// The campaign's artifact must stand alone: replay, no divergence,
	// same violation kind.
	out, rp, err := f.Artifact.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Diverged() {
		t.Fatalf("campaign artifact diverged at %d on replay", rp.DivergedAt())
	}
	if v := out.Violation(); v == nil || v.Kind != consensus.KindNonTermination {
		t.Fatalf("campaign artifact does not reproduce: %+v", v)
	}
	// Every cell ran every seed.
	seeds := len(campaignGrid().Seeds)
	for i := range rep.Cells {
		if c := &rep.Cells[i]; c.Runs != seeds {
			t.Fatalf("cell %d ran %d of %d seeds", i, c.Runs, seeds)
		}
	}
	if rep.Runs != 2*seeds {
		t.Fatalf("report counts %d runs, want %d", rep.Runs, 2*seeds)
	}
}

// TestCampaignDeterministicAcrossWidths pins the campaign's determinism
// claim: the whole campaign report — cells, violations, finding
// sizes — and every artifact byte must be identical at pool widths 1, 2
// and 8. The perturbation search runs too (Budget > 0), so this covers
// sweep streaming, exploreOn and shrinkOn on the shared pool.
func TestCampaignDeterministicAcrossWidths(t *testing.T) {
	opts := CampaignOptions{Budget: 24, SearchSeed: 3, Minimize: true}
	var refReport []byte
	var refArtifacts [][]byte
	for _, workers := range []int{1, 2, 8} {
		opts.Workers = workers
		rep, err := Campaign(campaignGrid(), opts)
		if err != nil {
			t.Fatal(err)
		}
		repJSON, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var arts [][]byte
		for _, f := range rep.Findings {
			var buf bytes.Buffer
			if err := f.Artifact.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			arts = append(arts, buf.Bytes())
		}
		if refReport == nil {
			refReport, refArtifacts = repJSON, arts
			continue
		}
		if !bytes.Equal(refReport, repJSON) {
			t.Fatalf("workers=%d: campaign report differs:\n%s\nvs\n%s", workers, repJSON, refReport)
		}
		if len(arts) != len(refArtifacts) {
			t.Fatalf("workers=%d: %d artifacts, want %d", workers, len(arts), len(refArtifacts))
		}
		for i := range arts {
			if !bytes.Equal(arts[i], refArtifacts[i]) {
				t.Fatalf("workers=%d: artifact %d differs byte-for-byte", workers, i)
			}
		}
	}
}

// faultGrid is the healthy fault grid the campaign is expected to scan
// clean: floodpaxos under one early crash or a mid-broadcast crash, with
// and without unreliable overlays — 12 cells. BenchmarkCampaignScan times
// the same scan.
func faultGrid() harness.Grid {
	return harness.Grid{
		Algos:    []string{"floodpaxos"},
		Topos:    []harness.Topo{{Kind: "ring", N: 9}, {Kind: "grid", Rows: 3, Cols: 3}},
		Scheds:   []string{"random"},
		Facks:    []int64{4},
		Crashes:  []string{"one@0", "midbroadcast"},
		Overlays: []string{"none", "extra:4", "chords"},
		Seeds:    []int64{1, 2, 3, 4, 5, 6, 7, 8},
	}
}

// TestCampaignCleanGrid: a healthy grid — crash-free, or with faults
// injected — scans every cell, flags nothing and produces no findings.
func TestCampaignCleanGrid(t *testing.T) {
	for _, tc := range []struct {
		name  string
		grid  harness.Grid
		opts  CampaignOptions
		cells int
	}{
		{"crash-free", harness.Grid{
			Algos:     []string{"floodpaxos"},
			Topos:     []harness.Topo{{Kind: "ring", N: 5}},
			Scheds:    []string{"sync", "random"},
			Facks:     []int64{3},
			Seeds:     []int64{1, 2, 3, 4},
			MaxEvents: 200_000,
		}, CampaignOptions{Minimize: true}, 2},
		{"crashes x overlays", faultGrid(), CampaignOptions{}, 12},
	} {
		rep, err := Campaign(tc.grid, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(rep.Cells) != tc.cells || rep.Flagged != 0 || len(rep.Findings) != 0 {
			t.Fatalf("%s: healthy grid scanned %d cells (want %d), flagged %d runs, findings %d",
				tc.name, len(rep.Cells), tc.cells, rep.Flagged, len(rep.Findings))
		}
	}
}

// TestParallelShrinkEqualsSerial is the satellite pin: minimizing the
// committed two-phase stall artifact with a width-1 pool and a width-8
// pool must produce byte-identical artifacts and the same attempt count —
// speculative parallel evaluation must not change what gets accepted.
func TestParallelShrinkEqualsSerial(t *testing.T) {
	a, err := ReadFile(filepath.Join("..", "harness", "testdata", "stall_twophase_coordinator_chords.json"))
	if err != nil {
		t.Fatal(err)
	}
	sc := a.Scenario
	sc.MaxEvents = a.MaxEvents
	var ref *ShrinkResult
	var refJSON []byte
	for _, workers := range []int{1, 8} {
		res, err := Shrink(sc, a.Schedule.Clone(), a.Violation.Kind,
			ShrinkOptions{MaxEvents: a.MaxEvents, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Artifact.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refJSON = res, buf.Bytes()
			continue
		}
		if res.Attempts != ref.Attempts {
			t.Fatalf("workers=%d: %d attempts, serial took %d — attempt accounting is width-dependent", workers, res.Attempts, ref.Attempts)
		}
		if !bytes.Equal(refJSON, buf.Bytes()) {
			t.Fatalf("workers=%d: minimized artifact differs from the serial result", workers)
		}
	}
}
