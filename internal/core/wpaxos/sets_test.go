package wpaxos

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/omega"
)

// TestIDSetMatchesMapOracle drives omega.IDSet and a Go map — what the
// detector's suspects, gossAcks, gossNacks and chosenTally.by were, and
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
			var nd Node // markSeen needs nothing started: the gauge handle is off
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
				} else if _, g := nd.findSeen(p); g != want[p] {
					t.Fatalf("seed %d %s step %d: find(%v) = %v, oracle %v", seed, u.name, step, p, g, want[p])
				}
				got := nd.seenProps
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

// mapsIn returns the paths of every map-kind type reachable from ty through
// struct fields, slices, arrays and pointers declared in this package, in
// internal/omega (the node's embedded Ω) or unnamed. What hangs behind
// *CountAudit is exempt — an opt-in instrument shared by a whole run, nil
// on every measured path — and the types of other packages (the metrics
// handles, the amac.API interface) are the substrate's, not per-node
// state, and are not entered. walked holds every type the walk entered.
func mapsIn(ty reflect.Type) (found []string, walked map[reflect.Type]bool) {
	pkgs := []string{"", reflect.TypeOf(Node{}).PkgPath(), reflect.TypeOf(omega.Service{}).PkgPath()}
	audit := reflect.TypeOf((*CountAudit)(nil))
	walked = map[reflect.Type]bool{}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		if ty == audit || walked[ty] || !slices.Contains(pkgs, ty.PkgPath()) {
			return
		}
		walked[ty] = true
		switch ty.Kind() {
		case reflect.Map:
			found = append(found, path+" "+ty.String())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Slice, reflect.Array, reflect.Pointer:
			walk(path, ty.Elem())
		}
	}
	walk(ty.Name(), ty)
	return found, walked
}

// TestNoMapsOnTheDeliveryPath is the guard that keeps Go maps from coming
// back into a node, its Ω included: every lookup a delivery makes is a
// sorted slice (omega.IDSet and the like) or a short scan.
func TestNoMapsOnTheDeliveryPath(t *testing.T) {
	maps, walked := mapsIn(reflect.TypeOf(Node{}))
	if len(maps) > 0 {
		t.Errorf("Node holds maps: %v", maps)
	}
	if !walked[reflect.TypeOf(omega.Detector{})] {
		t.Error("the walk did not enter the node's Ω detector")
	}
	// The walk must see a map where there is one, however deep.
	type tally struct{ by map[amac.NodeID]bool }
	type withMap struct {
		audit   *CountAudit
		tallies []*tally
	}
	if maps, _ := mapsIn(reflect.TypeOf(withMap{})); !slices.Equal(maps, []string{"withMap.tallies.by map[amac.NodeID]bool"}) {
		t.Fatalf("walking a struct with one reachable map found %q", maps)
	}
}
