package wpaxos

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/omega"
)

// TestIDSetMatchesMapOracle drives omega.IDSet and a Go map — what the
// detector's suspects and the relay's far sets would otherwise be, and
// survive as only here — with the same seeded stream of add / has /
// clear calls over every id universe the tree oracle uses (dense, sparse
// and shuffled, mixed, the extremes of the id type, negative ids), and
// requires the same answers, the same size, and a strictly ascending slice
// after every call.
func TestIDSetMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, u := range treeIDUniverses(rng) {
			var got omega.IDSet
			want := map[amac.NodeID]bool{}
			for step := 0; step < 2000; step++ {
				id := u.ids[rng.Intn(len(u.ids))]
				switch op := rng.Intn(100); {
				case op < 45:
					if g, w := got.Add(id), !want[id]; g != w {
						t.Fatalf("seed %d %s step %d: add(%d) = %v, oracle %v", seed, u.name, step, id, g, w)
					}
					want[id] = true
				case op < 98:
					if g, w := got.Has(id), want[id]; g != w {
						t.Fatalf("seed %d %s step %d: has(%d) = %v, oracle %v", seed, u.name, step, id, g, w)
					}
				default:
					got = got[:0] // how startProposal and a detector wrap empty a set
					clear(want)
				}
				if len(got) != len(want) || !slices.IsSorted(got) {
					t.Fatalf("seed %d %s step %d: set %v against an oracle of %d", seed, u.name, step, got, len(want))
				}
				for i := range got {
					if !want[got[i]] || (i > 0 && got[i-1] == got[i]) {
						t.Fatalf("seed %d %s step %d: set %v holds a stranger or a duplicate", seed, u.name, step, got)
					}
				}
			}
		}
	}
}

// TestSeenPropsMatchMapOracle does the same for the seen-proposition set
// against the map[Proposition]bool it replaced. Numbers are drawn from few
// tags and the id universes, so the Prepare and the Propose of one number,
// equal tags under different ids and equal ids under different tags all
// occur; the order pinned is (number, kind).
func TestSeenPropsMatchMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, u := range treeIDUniverses(rng) {
			nd := Node{met: &noMetrics, tr: new(treeTransport)} // markSeen needs nothing started
			want := map[Proposition]bool{}
			for step := 0; step < 2000; step++ {
				p := Proposition{
					Kind: Prepare + PropKind(rng.Intn(2)),
					Num:  ProposalNum{Tag: int64(rng.Intn(6)), ID: u.ids[rng.Intn(len(u.ids))]},
				}
				if rng.Intn(2) == 0 {
					if g, w := nd.markSeen(p), !want[p]; g != w {
						t.Fatalf("seed %d %s step %d: markSeen(%v) = %v, oracle %v", seed, u.name, step, p, g, w)
					}
					want[p] = true
				} else if _, g := nd.tr.findSeen(p); g != want[p] {
					t.Fatalf("seed %d %s step %d: find(%v) = %v, oracle %v", seed, u.name, step, p, g, want[p])
				}
				got := nd.tr.seenProps
				if len(got) != len(want) {
					t.Fatalf("seed %d %s step %d: %d propositions, oracle %d", seed, u.name, step, len(got), len(want))
				}
				for i := range got {
					if !want[got[i]] {
						t.Fatalf("seed %d %s step %d: %v is not in the oracle", seed, u.name, step, got[i])
					}
					if i == 0 {
						continue
					}
					a, b := got[i-1], got[i]
					if !(a.Num.Less(b.Num) || (a.Num == b.Num && a.Kind < b.Kind)) {
						t.Fatalf("seed %d %s step %d: %v before %v breaks the (number, kind) order", seed, u.name, step, a, b)
					}
				}
			}
		}
	}
}
