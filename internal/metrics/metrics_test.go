package metrics_test

import (
	"strings"
	"testing"

	"github.com/absmac/absmac/internal/metrics"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := metrics.New()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Set(3)
	if got, high := g.Value(), g.High(); got != 3 || high != 7 {
		t.Fatalf("gauge = (%d, high %d), want (3, high 7)", got, high)
	}
}

func TestRegistrationDedupAndKindMismatch(t *testing.T) {
	r := metrics.New()
	a := r.Counter("shared")
	b := r.Counter("shared")
	a.Inc()
	b.Inc()
	if got := a.Value(); got != 2 {
		t.Fatalf("deduped counter = %d, want 2 (handles must share the slot)", got)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("shared")
}

func TestNilRegistryIsDisabled(t *testing.T) {
	var r *metrics.Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	c.Inc()
	c.Add(3)
	g.Set(9)
	if c.Value() != 0 || g.Value() != 0 || g.High() != 0 {
		t.Fatal("disabled handles must read zero")
	}
	if r.Len() != 0 || r.Snapshot() != nil {
		t.Fatal("nil registry must be empty")
	}
	r.Reset()
	r.Merge(metrics.New())
	var b strings.Builder
	if err := r.WriteText(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil WriteText wrote %q, err %v", b.String(), err)
	}
}

// TestZeroHandleIsDisabled pins the zero-cost-when-off contract's other
// half: a zero-value handle (what instrumented code holds when no registry
// was configured) no-ops without a registry ever existing.
func TestZeroHandleIsDisabled(t *testing.T) {
	var c metrics.Counter
	var g metrics.Gauge
	c.Inc()
	g.Set(1)
	if c.Value() != 0 || g.Value() != 0 || g.High() != 0 {
		t.Fatal("zero handles must no-op")
	}
}

func TestResetKeepsRegistrations(t *testing.T) {
	r := metrics.New()
	c := r.Counter("c")
	g := r.Gauge("g")
	c.Add(10)
	g.Set(20)
	r.Reset()
	if r.Len() != 2 {
		t.Fatalf("Len after Reset = %d, want 2", r.Len())
	}
	if c.Value() != 0 || g.Value() != 0 || g.High() != 0 {
		t.Fatal("Reset must zero every slot")
	}
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("handle must stay live across Reset")
	}
}

func TestSnapshotSortedByName(t *testing.T) {
	r := metrics.New()
	r.Counter("zeta")
	r.Gauge("alpha")
	r.Counter("mid")
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d samples, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("snapshot not name-sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := "alpha 0 high=0\nmid 0\nzeta 0\n"
	if b.String() != want {
		t.Fatalf("WriteText = %q, want %q", b.String(), want)
	}
}

func TestMergeCountersAndGauges(t *testing.T) {
	a, b := metrics.New(), metrics.New()
	a.Counter("c").Add(3)
	b.Counter("c").Add(4)
	b.Counter("only_b").Add(1)
	ga, gb := a.Gauge("g"), b.Gauge("g")
	ga.Set(10)
	ga.Set(2)
	gb.Set(5)
	a.Merge(b)
	if got := a.Counter("c").Value(); got != 7 {
		t.Fatalf("merged counter = %d, want 7", got)
	}
	if got := a.Counter("only_b").Value(); got != 1 {
		t.Fatalf("merged new slot = %d, want 1", got)
	}
	g := a.Gauge("g")
	if g.Value() != 5 || g.High() != 10 {
		t.Fatalf("merged gauge = (%d, high %d), want (5, high 10)", g.Value(), g.High())
	}
}
