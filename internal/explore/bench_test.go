package explore

import "testing"

// BenchmarkCampaignScan measures the campaign's scan phase end to end on a
// healthy fault grid — the same 12-cell workload as harness's
// BenchmarkSweepGrid, but swept through Campaign. No cell flags
// (TestCampaignCleanGrid asserts it), so the number is pure scan cost, and
// its contrast with BenchmarkSweepGrid is the campaign driver's overhead
// over a plain sweep.
func BenchmarkCampaignScan(b *testing.B) {
	grid := faultGrid()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Campaign(grid, CampaignOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreCandidates is the explore_replay cell's candidate path
// at a budget CI can afford: record the base run, generate 64 perturbed
// candidates and replay each on one worker. Its allocs/op is pinned in
// BENCH_engine.json: a candidate that deep-copies the recording again
// (one Recv per step) multiplies it.
func BenchmarkExploreCandidates(b *testing.B) {
	sc := replayCell()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := Explore(sc, Options{Budget: 64, Workers: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Stats.Replays != 64 || rep.Stats.Violations != 0 {
			b.Fatalf("stats %+v, want 64 clean replays", rep.Stats)
		}
	}
}
