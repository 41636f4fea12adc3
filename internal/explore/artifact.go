package explore

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/harness"
	"github.com/absmac/absmac/internal/sim"
)

// ArtifactFormat is the current artifact file-format version.
const ArtifactFormat = 1

// Artifact is the on-disk counterexample format: a scenario plus the
// complete schedule that drives it into a violation, self-contained enough
// to re-verify anywhere (`amacexplore -replay FILE`, the golden replay
// test in internal/harness). Artifacts are indented JSON, diff-friendly on
// purpose — they get committed under testdata/ as executable bug reports.
type Artifact struct {
	// Format versions the file layout.
	Format int `json:"format"`
	// Scenario names the fixed configuration the schedule replays against.
	// Its crash pattern and seed are recorded for provenance, but the
	// replay takes crashes from the Schedule, not the registry.
	Scenario harness.Scenario `json:"scenario"`
	// MaxEvents caps the replay (Scenario.MaxEvents does not serialize);
	// non-terminating counterexamples rely on it to fail fast.
	MaxEvents int `json:"max_events,omitempty"`
	// Schedule is the complete recorded nondeterminism of the violating
	// execution.
	Schedule *sim.Schedule `json:"schedule"`
	// Violation is what replaying the schedule must reproduce.
	Violation *consensus.Violation `json:"violation,omitempty"`
	// Note is free-text provenance (how the artifact was found/minimized).
	Note string `json:"note,omitempty"`
}

// Validate checks the artifact's structure without replaying it.
func (a *Artifact) Validate() error {
	if a.Format != ArtifactFormat {
		return fmt.Errorf("explore: artifact format %d, this build reads %d", a.Format, ArtifactFormat)
	}
	if a.Schedule == nil {
		return fmt.Errorf("explore: artifact has no schedule")
	}
	return a.Schedule.Validate()
}

// Replay re-executes the artifact's schedule against its scenario. The
// optional observer receives every engine event (plus the EventDiverge
// marker, which a clean artifact never emits).
func (a *Artifact) Replay(observer func(sim.Event)) (*harness.Outcome, *sim.Replay, error) {
	if err := a.Validate(); err != nil {
		return nil, nil, err
	}
	sc := a.Scenario
	if a.MaxEvents > 0 {
		sc.MaxEvents = a.MaxEvents
	}
	runner, err := sc.NewReplayRunner()
	if err != nil {
		return nil, nil, err
	}
	return runner.Run(a.Schedule, observer)
}

// Encode validates the artifact and writes it as indented JSON (writing
// an artifact that could not be read back faithfully is refused).
func (a *Artifact) Encode(w io.Writer) error {
	if err := a.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a); err != nil {
		return fmt.Errorf("explore: encode artifact: %w", err)
	}
	return nil
}

// Decode reads one artifact and validates its structure.
func Decode(r io.Reader) (*Artifact, error) {
	var a Artifact
	dec := json.NewDecoder(r)
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("explore: decode artifact: %w", err)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &a, nil
}

// WriteFile writes the artifact to path.
func (a *Artifact) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("explore: %w", err)
	}
	if err := a.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads and validates an artifact from path.
func ReadFile(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	defer f.Close()
	return Decode(f)
}
