package sim

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/graph"
)

// recordRing records a dual-graph floodpaxos run on ring:n (n even, the
// antipodal chords unreliable, node n-1 crashing at t=3) and returns its
// schedule plus the config pieces a replay needs.
func recordRing(t *testing.T, n int, seed int64) (*Schedule, Config) {
	t.Helper()
	g := graph.Ring(n)
	var chords [][2]int
	inputs := make([]amac.Value, n)
	for i := range n {
		if i < n/2 {
			chords = append(chords, [2]int{i, i + n/2})
		}
		inputs[i] = amac.Value(i % 2)
	}
	o := graph.Build(n, chords)
	base := NewLossy(NewRandom(4, seed), 0.5, seed+100)
	rec := RecordSchedule(base)
	rec.S.DeliverP = 0.5
	rec.S.FallbackSeed = seed + 7
	rec.S.Crashes = []Crash{{Node: n - 1, At: 3}}
	cfg := Config{
		Graph:      g,
		Unreliable: o,
		Inputs:     inputs,
		Factory:    wpaxos.NewFactory(wpaxos.Config{N: n, Flood: true}),
		Scheduler:  rec,
		Crashes:    rec.S.Crashes,
	}
	Run(cfg)
	if len(rec.S.Steps) == 0 {
		t.Fatal("recorded no steps")
	}
	return rec.S, cfg
}

func replayCfg(cfg Config, s *Schedule) (Config, *Replay) {
	rp := NewReplay(s)
	cfg.Factory = wpaxos.NewFactory(wpaxos.Config{N: cfg.Graph.N(), Flood: true})
	cfg.Scheduler = rp
	cfg.Crashes = s.Crashes
	return cfg, rp
}

func TestReplayByteIdentical(t *testing.T) {
	s, cfg := recordRing(t, 6, 11)
	want := Run(Config{
		Graph: cfg.Graph, Unreliable: cfg.Unreliable, Inputs: cfg.Inputs,
		Factory: wpaxos.NewFactory(wpaxos.Config{N: 6, Flood: true}), Scheduler: NewLossy(NewRandom(4, 11), 0.5, 111),
		Crashes: s.Crashes,
	})
	rcfg, rp := replayCfg(cfg, s)
	got := Run(rcfg)
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if string(wb) != string(gb) {
		t.Fatalf("replay differs:\n got %s\nwant %s", gb, wb)
	}
	if rp.Diverged() {
		t.Fatal("identity replay diverged")
	}
}

func TestReplayDivergesOnPerturbationAndEmitsEvent(t *testing.T) {
	s, cfg := recordRing(t, 6, 12)
	mutated := s.Clone()
	// Move step 0's ack by one tick (inside the Fack window, still no
	// earlier than any delivery): the sender's OnAck now fires at a
	// different time, so its next broadcast cannot match the recording —
	// divergence is certain, not timing luck. The clone shares its steps
	// with s, so the edit goes to a copy of step 0 installed in its place.
	st := *mutated.Steps[0]
	mutated.Steps[0] = &st
	if st.Ack < st.Now+mutated.Fack {
		st.Ack++
	} else {
		latest := int64(0)
		for _, r := range st.Recv {
			if r != NoDelivery && r > latest {
				latest = r
			}
		}
		if st.Ack-1 < latest {
			t.Fatal("cannot move step 0's ack; pick another recording seed")
		}
		st.Ack--
	}
	var divergeEvents int
	rcfg, rp := replayCfg(cfg, mutated)
	rp.Observer = func(ev Event) {
		if ev.Kind == EventDiverge {
			divergeEvents++
		}
	}
	res := Run(rcfg)
	if !rp.Diverged() {
		t.Fatal("moved ack did not diverge the replay")
	}
	if rp.DivergedAt() < 0 || rp.DivergedAt() > len(mutated.Steps) {
		t.Fatalf("divergence index %d out of range", rp.DivergedAt())
	}
	if divergeEvents != 1 {
		t.Fatalf("observer saw %d diverge events, want exactly 1", divergeEvents)
	}
	if !res.Quiescent && !res.Cutoff && !allDecided(res) {
		t.Fatal("perturbed replay neither terminated nor hit the cap")
	}
}

func TestReplayTruncatedScheduleUsesFallbackDeterministically(t *testing.T) {
	s, cfg := recordRing(t, 6, 13)
	short := s.Clone()
	if !short.Truncate(len(short.Steps) / 2) {
		t.Fatal("truncate refused")
	}
	run := func() string {
		rcfg, rp := replayCfg(cfg, short.Clone())
		res := Run(rcfg)
		if !rp.Diverged() {
			t.Fatal("truncated replay should run past the recorded horizon")
		}
		b, _ := json.Marshal(res)
		return string(b)
	}
	if run() != run() {
		t.Fatal("fallback continuation is nondeterministic")
	}
}

// TestReplayResetReseedsFallback re-arms one Replay for schedules of
// several fallback seeds, a seed again after others among them: at each
// divergence its fallback must draw exactly what rand.New(rand.NewSource(
// FallbackSeed)) draws, so a re-armed Replay plans what a fresh one would.
func TestReplayResetReseedsFallback(t *testing.T) {
	b := Broadcast{Sender: 0, Neighbors: []int{1, 2, 3}, Unreliable: []int{4, 5}}
	var r *Replay
	for _, seed := range []int64{3, 11, 3, 42, 1 << 40} {
		s := &Schedule{Fack: 6, DeliverP: 0.5, FallbackSeed: seed}
		if r == nil {
			r = NewReplay(s)
		} else {
			r.Reset(s)
		}
		want := rand.New(rand.NewSource(seed))
		for k := range 4 {
			b.Seq, b.Now = k, int64(10*k)
			got := Plan{Recv: slices.Repeat([]int64{NoDelivery}, 5)}
			r.Plan(b, &got)
			exp := Plan{Recv: slices.Repeat([]int64{NoDelivery}, 5)}
			exp.Ack = uniformTimes(want, b.Now, s.Fack, exp.Recv[:3], false)
			flipUnreliable(want, s.DeliverP, b, &exp)
			if !reflect.DeepEqual(got, exp) {
				t.Fatalf("seed %d broadcast %d: fallback planned %+v, a fresh source %+v", seed, k, got, exp)
			}
		}
		if !r.Diverged() || r.DivergedAt() != 0 {
			t.Fatalf("seed %d: diverged=%v at %d, want a divergence at step 0", seed, r.Diverged(), r.DivergedAt())
		}
		if g, w := r.rng.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: the fallback source draws %d next, a fresh one %d", seed, g, w)
		}
	}
}

// TestReplayDivergesOnAckAtBroadcast: a hand-edited step that acks at its
// own broadcast time, with no recipient slot to give it away, is not a plan
// the engine would accept, so Replay must diverge to its fallback planner
// rather than hand it to the validator.
func TestReplayDivergesOnAckAtBroadcast(t *testing.T) {
	s := &Schedule{Fack: 4, FallbackSeed: 3, Steps: []*ScheduleStep{
		{Sender: 0, Seq: 0, Now: 0, NR: 0, Recv: []int64{}, Ack: 0},
	}}
	rp := NewReplay(s)
	res := Run(Config{
		Graph:     graph.Clique(1),
		Inputs:    []amac.Value{1},
		Factory:   onceFactory,
		Scheduler: rp,
	})
	if !rp.Diverged() || rp.DivergedAt() != 0 {
		t.Fatalf("replay diverged=%v at %d, want a divergence at step 0", rp.Diverged(), rp.DivergedAt())
	}
	if !res.Decided[0] || res.Time <= 0 || res.Time > s.Fack {
		t.Fatalf("fallback run: decided=%v at t=%d, want a decision at an ack in (0, %d]", res.Decided[0], res.Time, s.Fack)
	}
}

func TestSchedulePerturbationOps(t *testing.T) {
	s := &Schedule{
		Fack: 4,
		Steps: []*ScheduleStep{
			{Sender: 0, Seq: 0, Now: 0, NR: 2, Recv: []int64{1, 3, NoDelivery}, Ack: 3},
			{Sender: 1, Seq: 0, Now: 1, NR: 1, Recv: []int64{2, 4}, Ack: 5},
		},
		Crashes: []Crash{{Node: 2, At: 7}},
	}
	h0 := s.Fingerprint()

	c := s.Clone()
	if !c.SwapRecv(0, 0, 1) {
		t.Fatal("swap of two delivered slots refused")
	}
	if c.Steps[0].Recv[0] != 3 || c.Steps[0].Recv[1] != 1 {
		t.Fatalf("swap result %v", c.Steps[0].Recv)
	}
	if c.Fingerprint() == h0 {
		t.Fatal("swap did not change the hash")
	}
	if s.Steps[0].Recv[0] != 1 {
		t.Fatal("swap on a clone reached the original")
	}
	if s.Fingerprint() != h0 {
		t.Fatal("original hash changed")
	}

	// A swap that would leave a reliable slot undelivered must refuse.
	if s.Clone().SwapRecv(0, 0, 2) {
		t.Fatal("swap moved NoDelivery into a reliable slot")
	}
	// Swapping equal times is a no-op and must refuse (hash-dedup safety).
	eq := s.Clone()
	eq.Steps[1] = &ScheduleStep{Sender: 1, Seq: 0, Now: 1, NR: 1, Recv: []int64{2, 2}, Ack: 5}
	if eq.SwapRecv(1, 0, 1) {
		t.Fatal("swap of equal times accepted")
	}

	c = s.Clone()
	if !c.FlipCoin(0, 2) {
		t.Fatal("flip of undelivered unreliable slot refused")
	}
	if c.Steps[0].Recv[2] != c.Steps[0].Ack {
		t.Fatalf("flipped-on slot delivers at %d, want ack %d", c.Steps[0].Recv[2], c.Steps[0].Ack)
	}
	if !c.FlipCoin(0, 2) || c.Steps[0].Recv[2] != NoDelivery {
		t.Fatal("flip is not an involution")
	}
	if s.Clone().FlipCoin(0, 0) {
		t.Fatal("flip of a reliable slot accepted")
	}

	c = s.Clone()
	if !c.JitterStep(0, 42) {
		t.Fatal("jitter refused")
	}
	st := c.Steps[0]
	if st.Recv[2] != NoDelivery {
		t.Fatal("jitter delivered an undelivered slot")
	}
	for i := 0; i < st.NR; i++ {
		if st.Recv[i] <= st.Now || st.Recv[i] > st.Ack || st.Ack > st.Now+c.Fack {
			t.Fatalf("jitter produced invalid times: %+v", st)
		}
	}
	d := s.Clone()
	d.JitterStep(0, 42)
	if d.Fingerprint() != c.Fingerprint() {
		t.Fatal("jitter with equal seeds disagrees")
	}

	c = s.Clone()
	if !c.ShiftCrash(0, 2) || c.Crashes[0].At != 2 {
		t.Fatal("shift crash")
	}
	if c.ShiftCrash(0, 2) {
		t.Fatal("no-op crash shift accepted")
	}
	if !c.DropCrash(0) || len(c.Crashes) != 0 {
		t.Fatal("drop crash")
	}
	if c.DropCrash(0) {
		t.Fatal("drop on empty crashes accepted")
	}

	c = s.Clone()
	if !c.Truncate(1) || len(c.Steps) != 1 {
		t.Fatal("truncate")
	}
	if c.Truncate(1) {
		t.Fatal("truncate to current length accepted")
	}
}

// TestScheduleOpsShareSteps pins Clone's sharing contract on a recording
// of 1808 steps: an op applied to a clone leaves the original's steps (the
// pointers and what they point to) as they were, an applied op replaces
// only the step it writes, a refused op changes and allocates nothing, and
// Clone plus one op costs the same few allocations however long the
// schedule is.
func TestScheduleOpsShareSteps(t *testing.T) {
	s, _ := recordRing(t, 12, 5)
	if len(s.Steps) < 500 {
		t.Fatalf("recorded %d steps, want >= 500", len(s.Steps))
	}
	k := slices.IndexFunc(s.Steps, func(st *ScheduleStep) bool {
		return st.NR >= 2 && len(st.Recv) > st.NR && st.Recv[0] != st.Recv[1]
	})
	if k < 0 || k >= 50 {
		t.Fatalf("first step with two distinct reliable slots and an unreliable one is %d, want one in [0, 50)", k)
	}
	short := s.Clone()
	short.Truncate(50)
	h0, ptrs := s.Fingerprint(), slices.Clone(s.Steps)
	want := make([]ScheduleStep, len(s.Steps))
	for i, st := range s.Steps {
		want[i] = *st
		want[i].Recv = slices.Clone(st.Recv)
	}
	at := s.Crashes[0].At

	for _, op := range []struct {
		name   string
		writes int // the step an applied op replaces, or -1
		apply  func(c *Schedule) bool
	}{
		{"SwapRecv", k, func(c *Schedule) bool { return c.SwapRecv(k, 0, 1) }},
		{"JitterStep", k, func(c *Schedule) bool { return c.JitterStep(k, 7) }},
		{"FlipCoin", k, func(c *Schedule) bool { return c.FlipCoin(k, c.Steps[k].NR) }},
		{"ShiftCrash", -1, func(c *Schedule) bool { return c.ShiftCrash(0, at+1) }},
		{"DropCrash", -1, func(c *Schedule) bool { return c.DropCrash(0) }},
		{"Truncate", -1, func(c *Schedule) bool { return c.Truncate(len(c.Steps) / 2) }},
	} {
		c := s.Clone()
		if !op.apply(c) {
			t.Fatalf("%s refused", op.name)
		}
		if s.Fingerprint() != h0 {
			t.Fatalf("%s on a clone changed the original's fingerprint", op.name)
		}
		for i, st := range s.Steps {
			if st != ptrs[i] || !reflect.DeepEqual(*st, want[i]) {
				t.Fatalf("%s on a clone changed the original's step %d", op.name, i)
			}
		}
		for i, st := range c.Steps {
			if (st == s.Steps[i]) == (i == op.writes) {
				t.Fatalf("%s: clone's step %d shared=%v, want shared exactly where the op did not write", op.name, i, st == s.Steps[i])
			}
		}
		long := testing.AllocsPerRun(20, func() { op.apply(s.Clone()) })
		brief := testing.AllocsPerRun(20, func() { op.apply(short.Clone()) })
		if long != brief || long > 5 {
			t.Fatalf("%s: Clone plus the op allocates %v times on %d steps and %v on %d, want the same few",
				op.name, long, len(s.Steps), brief, len(short.Steps))
		}
	}

	for _, op := range []struct {
		name  string
		apply func(c *Schedule) bool
	}{
		{"SwapRecv of a slot with itself", func(c *Schedule) bool { return c.SwapRecv(k, 0, 0) }},
		{"SwapRecv past the slots", func(c *Schedule) bool { return c.SwapRecv(k, 0, len(c.Steps[k].Recv)) }},
		{"JitterStep past the steps", func(c *Schedule) bool { return c.JitterStep(len(c.Steps), 7) }},
		{"FlipCoin of a reliable slot", func(c *Schedule) bool { return c.FlipCoin(k, 0) }},
		{"ShiftCrash to its own time", func(c *Schedule) bool { return c.ShiftCrash(0, at) }},
		{"DropCrash past the crashes", func(c *Schedule) bool { return c.DropCrash(len(c.Crashes)) }},
		{"Truncate to the full length", func(c *Schedule) bool { return c.Truncate(len(c.Steps)) }},
	} {
		c := s.Clone()
		if n := testing.AllocsPerRun(20, func() {
			if op.apply(c) {
				t.Fatalf("%s applied", op.name)
			}
		}); n != 0 {
			t.Fatalf("%s allocates %v times", op.name, n)
		}
		if c.Steps[k] != s.Steps[k] || c.Fingerprint() != h0 {
			t.Fatalf("%s changed the clone", op.name)
		}
	}
}

// TestJitterStepDrawsFromItsSeed: JitterStep re-seeds a pooled source, so
// every call must draw exactly what a fresh rand.New(rand.NewSource(seed))
// draws, whatever seed the pooled source saw last.
func TestJitterStepDrawsFromItsSeed(t *testing.T) {
	s, _ := recordRing(t, 6, 11)
	jittered := 0
	for _, seed := range []int64{42, 0, -1, 1 << 40, 42, math.MaxInt64, 7} {
		for k := range min(len(s.Steps), 8) {
			c := s.Clone()
			if !c.JitterStep(k, seed) {
				continue
			}
			want := *s.Steps[k]
			want.Recv = slices.Clone(want.Recv)
			want.Ack = uniformTimes(rand.New(rand.NewSource(seed)), want.Now, s.Fack, want.Recv, true)
			if !reflect.DeepEqual(*c.Steps[k], want) {
				t.Fatalf("seed %d, step %d: jittered to %+v, want %+v", seed, k, *c.Steps[k], want)
			}
			jittered++
		}
	}
	if jittered == 0 {
		t.Fatal("no step jittered")
	}
}

func TestScheduleValidate(t *testing.T) {
	good := &Schedule{Fack: 4, Steps: []*ScheduleStep{{NR: 1, Recv: []int64{1}, Ack: 1}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []*Schedule{
		{Fack: 0},
		{Fack: 4, Steps: []*ScheduleStep{{NR: 1, Recv: []int64{1}, Ack: 1}, nil}},
		{Fack: 4, DeliverP: 1.5},
		{Fack: 4, Crashes: []Crash{{Node: 0, At: -1}}},
		{Fack: 4, Steps: []*ScheduleStep{{NR: 3, Recv: []int64{1}, Ack: 1}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", bad)
		}
	}
}

func TestEventKindsCoversAllKinds(t *testing.T) {
	kinds := EventKinds()
	seen := map[EventKind]bool{}
	for _, k := range kinds {
		if seen[k] {
			t.Fatalf("duplicate kind %v", k)
		}
		seen[k] = true
		if k.String() == "" || len(k.String()) > 20 {
			t.Fatalf("kind %d has suspicious name %q", int(k), k.String())
		}
	}
	// Exhaustiveness: one past the last listed kind must be unnamed. This
	// fails when someone adds a kind without extending EventKinds.
	last := kinds[len(kinds)-1]
	if next := last + 1; next.String() == "" || next.String()[0] != 'E' {
		t.Fatalf("kind %d after the last registered one renders as %q — EventKinds out of date?", int(next), next.String())
	}
}
