package twophase

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"github.com/absmac/absmac/internal/amac"
)

// oracle is Algorithm 1 kept the way the listing writes it: heard,
// witnesses and phase2From are Go maps, and maybeDecide walks W on every
// call. It is the reference TwoPhase's id set and missing counter are
// tested against.
type oracle struct {
	api   amac.API
	input amac.Value

	phase         phase
	statusDecided bool
	sawOtherValue bool
	sawBivalent   bool

	heard     map[amac.NodeID]bool
	witnesses map[amac.NodeID]bool

	phase2From     map[amac.NodeID]bool
	sawDecidedZero bool
}

func newOracle(input amac.Value) *oracle {
	return &oracle{
		input:      input,
		heard:      make(map[amac.NodeID]bool),
		phase2From: make(map[amac.NodeID]bool),
	}
}

func (a *oracle) Start(api amac.API) {
	a.api = api
	a.phase = phaseOne
	a.heard[api.ID()] = true
	api.Broadcast(Phase1{From: api.ID(), V: a.input})
}

func (a *oracle) OnReceive(m amac.Message) {
	switch msg := m.(type) {
	case Phase1:
		a.heard[msg.From] = true
		if msg.V != a.input {
			a.sawOtherValue = true
		}
	case Phase2:
		a.heard[msg.From] = true
		a.phase2From[msg.From] = true
		if !msg.Decided {
			a.sawBivalent = true
		} else if msg.V == 0 {
			a.sawDecidedZero = true
		}
	}
	if a.phase == phaseWitness {
		a.maybeDecide()
	}
}

func (a *oracle) OnAck(amac.Message) {
	switch a.phase {
	case phaseOne:
		a.statusDecided = !a.sawOtherValue && !a.sawBivalent
		a.phase = phaseTwo
		own := Phase2{From: a.api.ID(), Decided: a.statusDecided, V: a.input}
		a.phase2From[own.From] = true
		if own.Decided && own.V == 0 {
			a.sawDecidedZero = true
		}
		a.api.Broadcast(own)
	case phaseTwo:
		if a.statusDecided {
			a.phase = phaseDone
			a.api.Decide(a.input)
			return
		}
		a.witnesses = make(map[amac.NodeID]bool, len(a.heard))
		for id := range a.heard {
			a.witnesses[id] = true
		}
		a.phase = phaseWitness
		a.maybeDecide()
	}
}

func (a *oracle) maybeDecide() {
	for id := range a.witnesses {
		if !a.phase2From[id] {
			return
		}
	}
	a.phase = phaseDone
	if a.sawDecidedZero {
		a.api.Decide(0)
		return
	}
	a.api.Decide(1)
}

// scriptAPI is the substrate of one side of the differential run: it
// records what the algorithm did so the two sides can be compared.
type scriptAPI struct {
	id      amac.NodeID
	sent    []amac.Message
	decided []amac.Value
}

func (a *scriptAPI) ID() amac.NodeID { return a.id }
func (a *scriptAPI) Now() int64      { return 0 }
func (a *scriptAPI) Broadcast(m amac.Message) bool {
	a.sent = append(a.sent, m)
	return true
}
func (a *scriptAPI) Decide(v amac.Value) { a.decided = append(a.decided, v) }

// idPools are the id populations the differential test draws senders from.
// Each is duplicate-free and excludes nothing on purpose: NoID and 0 are
// legal keys of the set.
func idPools(rng *rand.Rand) []idPool {
	dense := make([]amac.NodeID, 200)
	for i := range dense {
		dense[i] = amac.NodeID(i + 1)
	}
	shuffled := append([]amac.NodeID(nil), dense...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	negative := make([]amac.NodeID, 64)
	for i := range negative {
		negative[i] = amac.NodeID(-1000 - 7*i)
	}
	// Multiples of a large power of two share every low bit: a table that
	// hashed by masking would chain them all from one slot.
	strided := make([]amac.NodeID, 48)
	for i := range strided {
		strided[i] = amac.NodeID(i) << 20
	}
	// One id per 64-id block: every member has a slot of its own, so the
	// table grows with the ids, not with the blocks dense ids share.
	onePerBlock := make([]amac.NodeID, 48)
	for i := range onePerBlock {
		onePerBlock[i] = amac.NodeID(64*i - 1000)
	}
	return []idPool{
		{"dense", dense},
		{"shuffled", shuffled},
		{"negative", negative},
		{"strided", strided},
		{"noid-nearby", []amac.NodeID{amac.NoID - 1, amac.NoID, 0, 1, 2, math.MinInt64, math.MaxInt64}},
		{"few", []amac.NodeID{7, 9}},
		// The first and last id of blocks around zero and at both ends of
		// int64, where id >> 6 and id & 63 meet sign and overflow.
		{"block-edges", []amac.NodeID{-129, -65, -64, -1, 0, 63, 64, 127, 128,
			math.MinInt64, math.MinInt64 + 63, math.MaxInt64 - 63, math.MaxInt64}},
		{"one-per-block", onePerBlock},
	}
}

type idPool struct {
	name string
	ids  []amac.NodeID
}

// TestDifferentialAgainstListing drives TwoPhase and the map-based listing
// side by side over seeded random scripts and compares, after every call,
// everything either can be observed to do: the phase (so the release point
// of the witness wait), the status chosen at the phase-1 ack, every
// broadcast and every decision. The scripts cover a phase-2 message before
// or without its sender's phase-1 (a lossy overlay), duplicates, ids first
// heard after the witness freeze, and tables that grow between flagging a
// member and freezing.
func TestDifferentialAgainstListing(t *testing.T) {
	rng := rand.New(rand.NewSource(0x2FA5E))
	for _, p := range idPools(rng) {
		pool := p.ids
		for iter := 0; iter < 60; iter++ {
			script := fmt.Sprintf("%s/%d", p.name, iter)
			input := amac.Value(rng.Intn(2))
			// The node's own id may or may not be one its peers also use
			// in the script (a duplicate id is the model's problem, not
			// the set's: both sides must still agree).
			self := pool[rng.Intn(len(pool))]
			got, want := Factory(amac.NodeConfig{Input: input}).(*TwoPhase), newOracle(input)
			gotAPI, wantAPI := &scriptAPI{id: self}, &scriptAPI{id: self}
			got.Start(gotAPI)
			want.Start(wantAPI)

			// early is the part of the pool heard before the freeze; the
			// rest first appears in the witness wait.
			early := pool[:1+rng.Intn(len(pool))]
			compare := func(step string) {
				t.Helper()
				if got.phase != want.phase || got.statusDecided != want.statusDecided {
					t.Fatalf("%s %s: phase %d statusDecided %v, listing has phase %d statusDecided %v",
						script, step, got.phase, got.statusDecided, want.phase, want.statusDecided)
				}
				if !reflect.DeepEqual(gotAPI.sent, wantAPI.sent) {
					t.Fatalf("%s %s: broadcast %+v, listing broadcast %+v", script, step, gotAPI.sent, wantAPI.sent)
				}
				if !reflect.DeepEqual(gotAPI.decided, wantAPI.decided) {
					t.Fatalf("%s %s: decided %v, listing decided %v", script, step, gotAPI.decided, wantAPI.decided)
				}
			}
			receive := func(from []amac.NodeID, count int, step string) {
				t.Helper()
				// Unanimous scripts keep the decided(v) branch reachable.
				mixed := rng.Intn(3) > 0
				for i := 0; i < count; i++ {
					id := from[rng.Intn(len(from))]
					v := input
					if mixed {
						v = amac.Value(rng.Intn(2))
					}
					var m amac.Message = Phase1{From: id, V: v}
					if rng.Intn(2) == 0 {
						m = Phase2{From: id, Decided: !mixed || rng.Intn(2) == 0, V: v}
					}
					got.OnReceive(m)
					want.OnReceive(m)
					compare(fmt.Sprintf("%s message %d (%+v)", step, i, m))
				}
			}
			ack := func(step string) {
				t.Helper()
				got.OnAck(nil)
				want.OnAck(nil)
				compare(step)
			}
			receive(early, rng.Intn(2*len(early)+1), "phase 1")
			ack("phase-1 ack")
			receive(early, rng.Intn(2*len(early)+1), "phase 2")
			ack("phase-2 ack")
			// The witness wait: everyone, late ids included, until every
			// phase-2 message has been sent once more than needed.
			receive(pool, 4*len(pool), "witness wait")
			for _, id := range pool {
				m := Phase2{From: id, V: input}
				got.OnReceive(m)
				want.OnReceive(m)
				compare(fmt.Sprintf("closing phase-2 from %d", id))
			}
			if want.phase != phaseDone {
				t.Fatalf("%s: listing still in phase %d after a phase-2 message from every id", script, want.phase)
			}
		}
	}
}

// TestRetainedBytesPerNode pins what a node keeps once it has heard a
// whole 1024-clique: ids 1..1024 span 17 blocks, so the table is 64 block
// records at load under 1/2, about 1.5 KB, where a table of one key per
// id would be 16 KB.
func TestRetainedBytesPerNode(t *testing.T) {
	const n, budget = 1024, 2 << 10
	a := Factory(amac.NodeConfig{}).(*TwoPhase)
	api := &scriptAPI{id: 1}
	a.Start(api)
	for id := amac.NodeID(2); id <= n; id++ {
		a.OnReceive(Phase1{From: id})
	}
	a.OnAck(nil)
	for id := amac.NodeID(2); id <= n; id++ {
		a.OnReceive(Phase2{From: id, Decided: true})
	}
	a.OnAck(nil)
	if len(api.decided) != 1 {
		t.Fatalf("node decided %v after hearing every phase-2 message", api.decided)
	}
	members := 0
	for _, b := range a.ids.slots {
		members += bits.OnesCount64(b.member)
	}
	if members != n {
		t.Fatalf("id set holds %d members, want %d", members, n)
	}
	retained := int(unsafe.Sizeof(*a) + unsafe.Sizeof(block{})*uintptr(cap(a.ids.slots)))
	if retained > budget {
		t.Errorf("a node of clique:%d retains %d B (%d slots), budget %d B", n, retained, cap(a.ids.slots), budget)
	}
}
