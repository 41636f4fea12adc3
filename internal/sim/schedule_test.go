package sim

import (
	"encoding/json"
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/baseline/floodpaxos"
	"github.com/absmac/absmac/internal/graph"
)

// recordRing records a small dual-graph floodpaxos run and returns its
// schedule plus the config pieces a replay needs.
func recordRing(t *testing.T, seed int64) (*Schedule, Config) {
	t.Helper()
	g := graph.Ring(6)
	o := graph.Build(6, [][2]int{{0, 3}, {1, 4}, {2, 5}})
	inputs := []amac.Value{0, 1, 0, 1, 0, 1}
	base := NewLossy(NewRandom(4, seed), 0.5, seed+100)
	rec := RecordSchedule(base)
	rec.S.DeliverP = 0.5
	rec.S.FallbackSeed = seed + 7
	rec.S.Crashes = []Crash{{Node: 5, At: 3}}
	cfg := Config{
		Graph:      g,
		Unreliable: o,
		Inputs:     inputs,
		Factory:    floodpaxos.NewFactory(6),
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
	cfg.Factory = floodpaxos.NewFactory(cfg.Graph.N())
	cfg.Scheduler = rp
	cfg.Crashes = s.Crashes
	return cfg, rp
}

func TestReplayByteIdentical(t *testing.T) {
	s, cfg := recordRing(t, 11)
	want := Run(Config{
		Graph: cfg.Graph, Unreliable: cfg.Unreliable, Inputs: cfg.Inputs,
		Factory: floodpaxos.NewFactory(6), Scheduler: NewLossy(NewRandom(4, 11), 0.5, 111),
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
	s, cfg := recordRing(t, 12)
	mutated := s.Clone()
	// Move step 0's ack by one tick (inside the Fack window, still no
	// earlier than any delivery): the sender's OnAck now fires at a
	// different time, so its next broadcast cannot match the recording —
	// divergence is certain, not timing luck.
	st := &mutated.Steps[0]
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
	s, cfg := recordRing(t, 13)
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

// TestReplayDivergesOnAckAtBroadcast: a hand-edited step that acks at its
// own broadcast time, with no recipient slot to give it away, is not a plan
// the engine would accept, so Replay must diverge to its fallback planner
// rather than hand it to the validator.
func TestReplayDivergesOnAckAtBroadcast(t *testing.T) {
	s := &Schedule{Fack: 4, FallbackSeed: 3, Steps: []ScheduleStep{
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
		Steps: []ScheduleStep{
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
		t.Fatal("Clone is not deep: mutation reached the original")
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
	eq.Steps[1].Recv[1] = 2
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

func TestScheduleValidate(t *testing.T) {
	good := &Schedule{Fack: 4, Steps: []ScheduleStep{{NR: 1, Recv: []int64{1}, Ack: 1}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []*Schedule{
		{Fack: 0},
		{Fack: 4, DeliverP: 1.5},
		{Fack: 4, Crashes: []Crash{{Node: 0, At: -1}}},
		{Fack: 4, Steps: []ScheduleStep{{NR: 3, Recv: []int64{1}, Ack: 1}}},
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
