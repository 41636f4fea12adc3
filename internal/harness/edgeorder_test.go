package harness

import (
	"testing"

	"github.com/absmac/absmac/internal/sim"
)

// edgeOrderTopos picks one representative topology per registered family,
// with degrees from 1 (line ends) to 39 (clique:40).
var edgeOrderTopos = map[string]string{
	"clique":    "clique:40",
	"expander":  "expander:64:8",
	"grid":      "grid:6x7",
	"line":      "line:12",
	"pods":      "pods:4:12:3",
	"random":    "random:24:0.3",
	"ring":      "ring:12",
	"star":      "star:16",
	"starlines": "starlines:3x4",
	"tree":      "tree:3x3",
}

// TestEdgeOrderSortMatchesQuadratic pins EdgeOrder's scratch sort to the
// definition it implements: a neighbor's slot is the number of neighbors
// that precede it in (node index, slot) order — counted directly here, the
// O(d^2) loop the scheduler itself ran below degree 32 until the two paths
// were shown byte-identical. For every registered topology family, every
// node's plan must match the count, in both serialization directions.
func TestEdgeOrderSortMatchesQuadratic(t *testing.T) {
	for _, fam := range Topologies() {
		spec, ok := edgeOrderTopos[fam]
		if !ok {
			t.Fatalf("no EdgeOrder identity topology registered for family %q — add one to edgeOrderTopos", fam)
		}
		topo, err := ParseTopo(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		g, err := topo.Build(7)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		maxDeg := 0
		for u := 0; u < g.N(); u++ {
			if d := g.Degree(u); d > maxDeg {
				maxDeg = d
			}
		}
		for _, descending := range []bool{false, true} {
			sched := &sim.EdgeOrder{MaxDegree: maxDeg, Descending: descending}
			for u := 0; u < g.N(); u++ {
				nbrs := g.Neighbors(u)
				d := len(nbrs)
				b := sim.Broadcast{Sender: u, Neighbors: nbrs, Now: int64(u % 3)}
				p := sim.Plan{Recv: make([]int64, d)}
				for i := range p.Recv {
					p.Recv[i] = sim.NoDelivery
				}
				sched.Plan(b, &p)
				if want := b.Now + int64(d) + 1; p.Ack != want {
					t.Fatalf("%s desc=%v node %d: ack %d, want %d", spec, descending, u, p.Ack, want)
				}
				for i, v := range nbrs {
					rank := 0
					for j, w := range nbrs {
						if w < v || (w == v && j < i) {
							rank++
						}
					}
					if descending {
						rank = d - 1 - rank
					}
					if want := b.Now + int64(rank) + 1; p.Recv[i] != want {
						t.Fatalf("%s desc=%v node %d slot %d: %d (sorted) != %d (rank count)",
							spec, descending, u, i, p.Recv[i], want)
					}
				}
			}
		}
	}
}
