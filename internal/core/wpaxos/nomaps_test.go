package wpaxos

import (
	"reflect"
	"slices"
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/omega"
)

// mapsIn returns the paths of every map-kind type reachable from ty through
// struct fields, slices, arrays and pointers declared in wpaxos,
// internal/omega (the node's embedded Ω) or unnamed. What hangs behind
// *CountAudit is exempt — an opt-in instrument shared by a whole run, nil
// on every measured path — and the types of other packages (the metrics
// handles, the amac.API interface) are the substrate's, not per-node
// state, and are not entered. The walk does not enter an interface's
// dynamic type, so per-node state must sit in concrete fields. walked holds
// every type the walk entered.
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

// withMap is the self-check's probe: one map, two levels down, beside the
// exempt audit.
type withMap struct {
	audit   *CountAudit
	tallies []*tally
}

type tally struct{ by map[amac.NodeID]bool }

// TestNoMapsOnTheDeliveryPath is the guard that keeps Go maps from coming
// back into a node, under either response transport, its Ω included: every
// lookup a delivery makes is a bitset, a table indexed by id, a sorted
// slice (omega.IDSet and the like) or a short scan.
func TestNoMapsOnTheDeliveryPath(t *testing.T) {
	maps, walked := mapsIn(reflect.TypeOf(Node{}))
	if len(maps) > 0 {
		t.Errorf("Node holds maps: %v", maps)
	}
	// The walk must reach each transport's state and the detector.
	for _, ty := range []reflect.Type{reflect.TypeOf(omega.Detector{}), reflect.TypeOf(treeService{}),
		reflect.TypeOf(floodRelay{}), reflect.TypeOf(floodResp{}), reflect.TypeOf(RelayMsg{})} {
		if !walked[ty] {
			t.Errorf("the walk of Node did not enter %v", ty)
		}
	}
	// The walk must see a map where there is one, however deep.
	if maps, _ := mapsIn(reflect.TypeOf(withMap{})); !slices.Equal(maps, []string{"withMap.tallies.by map[amac.NodeID]bool"}) {
		t.Fatalf("walking a struct with one reachable map found %q", maps)
	}
}
