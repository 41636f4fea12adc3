package explore

import (
	"runtime"
	"sync"

	"github.com/absmac/absmac/internal/harness"
)

// This file implements the shared replay worker pool behind every
// exploration phase. A campaign replays thousands of schedules across many
// scenarios — base recordings, perturbation candidates, shrink candidates —
// and all of them funnel through the same fixed set of worker goroutines.
// Each worker owns a lazily-built map of harness.ReplayRunner keyed by
// scenario identity (seed included — the seed drives inputs, topology and
// crash construction, so two seeds are two runners), so consecutive
// phases touching the same scenario — exploration candidates, then the
// shrinker's batches for the same flagged run — reuse the worker's
// engines instead of rebuilding them, and a runner — which is
// single-goroutine by contract — is never shared between workers.
//
// The pool executes closures, not declarative tasks: a ReplayRunner's
// Result is owned by its engine and valid only until the runner's next
// run, so each submission must extract what it needs (classification,
// closed schedule, cost) inside the worker before returning. Determinism
// is the submitter's job — every consumer here indexes results by a
// deterministic candidate position and reduces them in that order, so pool
// width changes wall-clock time, never results.

// runnerKey is an execution's identity for runner reuse: the scenario's
// (harness.Key, seed included) plus the event cap — two explorations of
// the same cell under different caps are different executions.
type runnerKey struct {
	harness.Key
	maxEvents int
}

// runnerSet is one worker's private runner cache.
type runnerSet struct {
	runners map[runnerKey]*harness.ReplayRunner
}

// runnerCacheCap bounds a worker's runner cache. A campaign over many
// flagged scenarios (plus every shrunken-topology variant the minimizer
// visits) would otherwise accumulate one dead engine per key per worker
// for the pool's whole lifetime; the phases only ever interleave a
// handful of scenarios at a time, so wholesale eviction on overflow keeps
// the working set warm and the memory bounded.
const runnerCacheCap = 16

// runner returns the worker's runner for sc, building it on first use.
func (rs *runnerSet) runner(sc harness.Scenario) (*harness.ReplayRunner, error) {
	k := runnerKey{sc.Key(), sc.MaxEvents}
	if r, ok := rs.runners[k]; ok {
		return r, nil
	}
	if len(rs.runners) >= runnerCacheCap {
		clear(rs.runners)
	}
	r, err := sc.NewReplayRunner()
	if err != nil {
		return nil, err
	}
	rs.runners[k] = r
	return r, nil
}

// evalPool is a fixed-width pool of replay workers.
type evalPool struct {
	tasks   chan func(*runnerSet)
	wg      sync.WaitGroup
	workers int
}

func newEvalPool(workers int) *evalPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &evalPool{tasks: make(chan func(*runnerSet)), workers: workers}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			rs := &runnerSet{runners: map[runnerKey]*harness.ReplayRunner{}}
			for fn := range p.tasks {
				fn(rs)
			}
		}()
	}
	return p
}

// submit hands one closure to the pool, blocking until a worker accepts it
// — natural backpressure for generators that could otherwise outrun the
// replays. Submitting from inside a pool task would deadlock at width 1;
// every phase submits from its own driving goroutine.
func (p *evalPool) submit(fn func(*runnerSet)) { p.tasks <- fn }

// runOne submits a single closure and waits for it — the one-off
// evaluation shape (verification replays, finding re-recordings) that
// still wants a worker's cached runners.
func (p *evalPool) runOne(fn func(*runnerSet)) {
	var wg sync.WaitGroup
	wg.Add(1)
	p.submit(func(rs *runnerSet) {
		defer wg.Done()
		fn(rs)
	})
	wg.Wait()
}

// close shuts the pool down and waits for in-flight tasks to finish.
func (p *evalPool) close() {
	close(p.tasks)
	p.wg.Wait()
}
