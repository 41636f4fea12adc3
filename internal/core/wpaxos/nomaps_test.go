package wpaxos_test

// An external test package, so that the walk can take floodpaxos' node too
// (floodpaxos imports wpaxos).

import (
	"reflect"
	"slices"
	"testing"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/baseline/floodpaxos"
	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/omega"
)

// mapsIn returns the paths of every map-kind type reachable from ty through
// struct fields, slices, arrays and pointers declared in wpaxos,
// floodpaxos, internal/omega (the nodes' embedded Ω), this file (the
// self-check's probe) or unnamed. What
// hangs behind *wpaxos.CountAudit is exempt — an opt-in instrument shared
// by a whole run, nil on every measured path — and the types of other
// packages (the metrics handles, the amac.API interface) are the
// substrate's, not per-node state, and are not entered. walked holds every
// type the walk entered.
func mapsIn(ty reflect.Type) (found []string, walked map[reflect.Type]bool) {
	pkgs := []string{"", reflect.TypeOf(wpaxos.Node{}).PkgPath(), reflect.TypeOf(floodpaxos.Node{}).PkgPath(),
		reflect.TypeOf(omega.Service{}).PkgPath(), reflect.TypeOf(withMap{}).PkgPath()}
	audit := reflect.TypeOf((*wpaxos.CountAudit)(nil))
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
	audit   *wpaxos.CountAudit
	tallies []*tally
}

type tally struct{ by map[amac.NodeID]bool }

// TestNoMapsOnTheDeliveryPath is the guard that keeps Go maps from coming
// back into a multihop node, wPAXOS' or floodpaxos', its Ω included: every
// lookup a delivery makes is a bitset, a table indexed by id, a sorted
// slice (omega.IDSet and the like) or a short scan.
func TestNoMapsOnTheDeliveryPath(t *testing.T) {
	for _, node := range []reflect.Type{reflect.TypeOf(wpaxos.Node{}), reflect.TypeOf(floodpaxos.Node{})} {
		maps, walked := mapsIn(node)
		if len(maps) > 0 {
			t.Errorf("%v holds maps: %v", node, maps)
		}
		if !walked[reflect.TypeOf(omega.Detector{})] {
			t.Errorf("the walk of %v did not enter the node's Ω detector", node)
		}
	}
	// The walk must see a map where there is one, however deep.
	if maps, _ := mapsIn(reflect.TypeOf(withMap{})); !slices.Equal(maps, []string{"withMap.tallies.by map[amac.NodeID]bool"}) {
		t.Fatalf("walking a struct with one reachable map found %q", maps)
	}
}
