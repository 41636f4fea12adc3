// Metrics-layer cases: the observability packages (internal/metrics,
// internal/critpath) are inside the deterministic core — synthetic load
// for a counter must come from a seed-derived generator, exactly like
// scheduler jitter.
package norawrand

import (
	"math/rand"
	"time"

	"github.com/absmac/absmac/internal/metrics"
)

// addSeeded is the sanctioned pattern for generating synthetic metric
// load (benchmarks, property tests): the generator derives from a seed.
func addSeeded(c metrics.Counter, seed int64, n int) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		c.Add(int64(r.Intn(1 << 20)))
	}
}

func addAmbient(c metrics.Counter, n int) {
	for i := 0; i < n; i++ {
		c.Add(int64(rand.Intn(1 << 20))) // want `global rand source`
	}
}

func addWallClockSeeded(c metrics.Counter) {
	r := rand.New(rand.NewSource(time.Now().UnixNano())) // want `wall-clock-seeded`
	c.Add(int64(r.Intn(8)))
}
