package explore

import "testing"

// BenchmarkCampaignScan measures the campaign's scan phase end to end on a
// healthy fault grid — the same 12-cell workload as harness's
// BenchmarkSweepGrid, but swept through Campaign with fingerprinting and
// flag streaming on. No cell flags (TestCampaignCleanGrid asserts it), so
// the number is pure scan cost: the sweep plus one Fingerprinter per run
// plus the coverage bookkeeping. The contrast with BenchmarkSweepGrid
// (fingerprinting is opt-in there) is the price of coverage.
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
