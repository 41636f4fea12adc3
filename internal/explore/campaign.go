package explore

import (
	"fmt"
	"path/filepath"

	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/harness"
)

// This file implements the campaign driver: grid-wide violation hunting.
// A campaign is the composition the sweep and explore pipelines could not
// previously express — sweep a whole scenario grid, take each cell's
// violating (scenario, seed) runs from the sweep, then turn each flagged
// cell into a recorded, perturbation-explored and minimized
// counterexample artifact, all phases sharing one replay worker pool and
// its per-worker runner caches. The scan is a plain sweep: every seed of
// every cell runs. Campaigns are deterministic at every worker count: each
// cell's flagged runs come in seed order, exploration and shrinking are
// width-invariant by construction, and artifact names are derived from the
// scenario alone.

// CampaignOptions tunes a campaign. The zero value means: GOMAXPROCS
// workers, no perturbation search (record + minimize flagged base runs
// only), no artifacts written. A campaign always explores the first
// flagged run of each cell — one counterexample per cell is what the
// artifact pipeline wants. Every execution runs under Grid.MaxEvents.
type CampaignOptions struct {
	// Workers sizes the shared worker pool used by the sweep, the
	// perturbation searches and the parallel shrinker (<= 0 = GOMAXPROCS).
	Workers int
	// Budget is the perturbation-search budget per flagged run; 0 skips
	// the search and goes straight from the flagged recording to the
	// minimizer — the cheap mode for grids whose base runs already
	// violate.
	Budget int
	// SearchSeed drives candidate generation (explore.Options.Seed).
	SearchSeed int64
	// Minimize delta-debugs each flagged run's schedule down to a minimal
	// artifact (parallel Shrink on the shared pool).
	Minimize bool
	// ArtifactDir, when non-empty, writes each finding's artifact to
	// ArtifactDir/<scenario-derived name>.json and records the path in
	// the finding.
	ArtifactDir string
}

// CampaignFinding is one flagged cell's counterexample.
type CampaignFinding struct {
	// Cell indexes CampaignReport.Cells.
	Cell int `json:"cell"`
	// Scenario is the violating scenario (seed included).
	Scenario harness.Scenario `json:"scenario"`
	// Violation is the classification of the artifact's schedule: the
	// most severe violation Counterexample found, so its kind is what the
	// sweep flagged unless a perturbation search (Budget > 0) found a
	// more severe one in the flagged run's schedule neighborhood.
	Violation *consensus.Violation `json:"violation"`
	// Steps and Deliveries size the artifact's schedule.
	Steps      int `json:"steps"`
	Deliveries int `json:"deliveries"`
	// Explored carries the perturbation-search stats when the campaign
	// ran one (Budget > 0).
	Explored *Stats `json:"explore_stats,omitempty"`
	// Minimized reports whether the artifact went through the shrinker;
	// ShrinkAttempts counts its candidate evaluations.
	Minimized      bool `json:"minimized,omitempty"`
	ShrinkAttempts int  `json:"shrink_attempts,omitempty"`
	// ArtifactPath is where the artifact was written (empty without
	// CampaignOptions.ArtifactDir).
	ArtifactPath string `json:"artifact,omitempty"`
	// Artifact is the counterexample itself (not part of the JSON report;
	// the file at ArtifactPath carries it).
	Artifact *Artifact `json:"-"`
}

// CampaignReport is the result of one campaign.
type CampaignReport struct {
	// Cells are the sweep's aggregated cells, in grid axis-nesting order.
	Cells []harness.Cell `json:"cells"`
	// Runs counts executed sweep runs; Flagged counts the violating ones;
	// CellsFlagged counts cells with at least one.
	Runs         int `json:"runs"`
	Flagged      int `json:"flagged_runs"`
	CellsFlagged int `json:"cells_flagged"`
	// Findings lists one entry per flagged cell, its first flagged run,
	// in cell order.
	Findings []*CampaignFinding `json:"findings"`
}

// Campaign sweeps the grid and turns the first flagged run of each cell
// into a replayable (optionally minimized) counterexample artifact on one
// shared worker pool. Deterministic given (grid, opts) modulo Workers,
// which only changes wall-clock time.
func Campaign(grid harness.Grid, opts CampaignOptions) (*CampaignReport, error) {
	work, err := grid.Cells()
	if err != nil {
		return nil, err
	}

	// Phase 1 — sweep; each cell returns its flagged runs in seed order.
	cells, err := harness.SweepCellsOpts(work, harness.SweepOptions{Workers: opts.Workers})
	if err != nil {
		return nil, err
	}

	// Findings starts non-nil so a clean grid's report serializes the
	// documented array shape ("findings": []), like Cells.
	rep := &CampaignReport{Cells: cells, Findings: []*CampaignFinding{}}
	for i := range cells {
		flagged := len(cells[i].Flagged)
		rep.Runs += cells[i].Runs
		rep.Flagged += flagged
		if flagged > 0 {
			rep.CellsFlagged++
		}
	}
	if rep.Flagged == 0 {
		return rep, nil
	}

	// Phase 2 — record, explore and minimize the representatives on one
	// shared pool. Representatives are deliberately processed one at a
	// time from this goroutine (each one's exploration and shrink batches
	// fan out across the pool internally): candidate evaluation is where
	// the replay volume is, and serial representatives keep the
	// determinism argument one-dimensional.
	pool := newEvalPool(opts.Workers)
	defer pool.close()
	for i := range cells {
		if len(cells[i].Flagged) == 0 {
			continue
		}
		f := cells[i].Flagged[0] // explore each cell's first flagged run
		finding, err := campaignFinding(pool, i, f, opts)
		if err != nil {
			return nil, fmt.Errorf("explore: campaign cell %d (%s on %s, seed %d): %w",
				i, f.Scenario.Algo, f.Scenario.Topo, f.Scenario.Seed, err)
		}
		rep.Findings = append(rep.Findings, finding)
	}
	return rep, nil
}

// campaignFinding turns one flagged run into an artifact through the one
// counterexample path, then optionally writes it.
func campaignFinding(pool *evalPool, cell int, f harness.FlaggedRun, opts CampaignOptions) (*CampaignFinding, error) {
	sc := f.Scenario // carries the grid's event cap
	rep, artifact, shrunk, err := counterexampleOn(pool, sc, Options{Budget: opts.Budget, Seed: opts.SearchSeed}, opts.Minimize)
	if err != nil {
		return nil, err
	}
	if rep.Base == nil || rep.Base.Kind != f.Violation.Kind {
		// The sweep flagged this exact execution and recording does not
		// perturb it, so the recorded base run must reproduce the flagged
		// kind; a mismatch means determinism broke below us.
		return nil, fmt.Errorf("flagged %s violation did not reproduce on recording (got %+v)", f.Violation.Kind, rep.Base)
	}
	finding := &CampaignFinding{
		Cell:      cell,
		Scenario:  artifact.Scenario, // a topology shrink may have moved it
		Violation: artifact.Violation,
		Steps:     len(artifact.Schedule.Steps), Deliveries: artifact.Schedule.Deliveries(),
		Minimized: shrunk != nil, Artifact: artifact,
	}
	artifact.Note = "campaign"
	if shrunk != nil {
		artifact.Note = "campaign minimized"
		finding.ShrinkAttempts = shrunk.Attempts
	}
	if opts.Budget > 0 {
		finding.Explored = &rep.Stats
	}
	if opts.ArtifactDir != "" {
		path := filepath.Join(opts.ArtifactDir, artifactName(f.Scenario))
		if err := artifact.WriteFile(path); err != nil {
			return nil, err
		}
		finding.ArtifactPath = path
	}
	return finding, nil
}

// artifactName derives a deterministic, filesystem-safe artifact filename
// from a scenario — the campaign's on-disk naming scheme. Every axis that
// distinguishes one cell from another appears in the stem (two findings
// may never collide on one file). Punctuation in topology/crash/overlay
// specs ( : @ . ) flattens to '-' (letters and digits survive, so
// grid:3x3 names grid-3x3).
func artifactName(sc harness.Scenario) string {
	// harness.Key applies the defaults exactly as the sweep's Cell rows
	// report them, so a finding's filename and its cell row name the same
	// scenario.
	k := sc.Key()
	stem := fmt.Sprintf("%s_%s_%s_%s_f%d_c%s_o%s_s%d",
		k.Algo, k.Topo, k.Inputs, k.Sched, k.Fack, k.Crashes, k.Overlay, k.Seed)
	out := make([]rune, 0, len(stem))
	for _, r := range stem {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			out = append(out, r)
		default:
			out = append(out, '-')
		}
	}
	return string(out) + ".json"
}
