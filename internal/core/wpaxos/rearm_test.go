package wpaxos

import (
	"slices"
	"testing"
	"unsafe"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/omega"
	"github.com/absmac/absmac/internal/sim"
)

// RelayCap is relayCap for the external test package.
var RelayCap = relayCap

// backing returns a pointer to the first element of s's backing array.
func backing[S ~[]E, E any](s S) *E { return unsafe.SliceData(s[:cap(s)]) }

// TestRearmKeepsEmptiedTables holds every table a run leaves behind to
// amac.ReuseUpTo: the tree service's entries and queue, seenProps, respQ,
// the acceptor's slab and the relay's cycle. One node runs twice. The
// first run accepts four propositions. In the second, purge drops the two
// roots the detector's leader overtakes, pop drains the queue, the Ω
// change prunes respQ, the node sees one proposition and accepts none, and
// it queues one relayed promise. Every table then holds less than half its
// storage, which a rule that follows the fill would drop, though the run
// used it; the re-arm must keep each backing array, emptied, and zero
// respQ's and the cycle's, whose elements hold pointers. A fresh node and
// a warm one hold cycles of equal capacity, relayCap.
//
// Then the slot alternates transports, tree, flood, tree, flood: each
// re-arm finds the tree tables and the cycle the last run of its transport
// left, parked through the other's runs.
//
// Then one engine repeats a wpaxos run on expander:64:4: a warm run
// allocates at most warmAllocs times (3 measured: the run's scheduler).
// Dropping the four tree tables whenever a run leaves them under half full
// reads 357, and dropping the cycles so 111.
func TestRearmKeepsEmptiedTables(t *testing.T) {
	build := NewFactory(Config{N: 8})
	api := &stubAPI{id: 3, now: 10}
	nd := build(amac.NodeConfig{Input: 1}).(*Node)
	nd.Start(api) // in flight from here: the stub never acks
	for tag := int64(1); tag <= 4; tag++ {
		nd.OnReceive(&Combined{Proposer: &ProposerMsg{Kind: Propose, Num: ProposalNum{Tag: tag, ID: 9}, Val: 1}})
	}
	build(amac.NodeConfig{Input: 1, Prev: nd})
	nd.Start(api)
	num := ProposalNum{Tag: 1, ID: 7}
	for _, m := range []*Combined{
		{Search: &SearchMsg{Root: 5, Hops: 1, Sender: 5}},
		{Search: &SearchMsg{Root: 7, Hops: 1, Sender: 7}},
		{Leader: &omega.LeaderMsg{ID: 7}, Proposer: &ProposerMsg{Kind: Prepare, Num: num}},
		{Leader: &omega.LeaderMsg{ID: 9}},
		{Relay: &RelayMsg{Prop: Proposition{Kind: Prepare, Num: num}, Prev: &Proposal{Num: ProposalNum{Tag: 1, ID: 2}}, Acceptor: 4}},
	} {
		nd.OnReceive(m)
	}
	tr := nd.tr
	if len(tr.respQ) != 0 || cap(tr.respQ) == 0 {
		t.Fatalf("respQ len %d cap %d, want a response queued and pruned", len(tr.respQ), cap(tr.respQ))
	}
	if len(nd.fl.cycle) == 0 {
		t.Fatal("the relay's cycle is empty, want the relayed promise queued")
	}
	nd.OnAck(api.last) // pop sends the one pending root
	type table struct {
		name     string
		len, cap int
		array    unsafe.Pointer
	}
	tables := func() []table {
		t := nd.tr
		return []table{
			{"ents", len(t.tree.ents), cap(t.tree.ents), unsafe.Pointer(backing(t.tree.ents))},
			{"queue", len(t.tree.queue), cap(t.tree.queue), unsafe.Pointer(backing(t.tree.queue))},
			{"seenProps", len(t.seenProps), cap(t.seenProps), unsafe.Pointer(backing(t.seenProps))},
			{"respQ", len(t.respQ), cap(t.respQ), unsafe.Pointer(backing(t.respQ))},
			{"slab", len(nd.acc.slab), cap(nd.acc.slab), unsafe.Pointer(backing(nd.acc.slab))},
			{"cycle", len(nd.fl.cycle), cap(nd.fl.cycle), unsafe.Pointer(backing(nd.fl.cycle))},
		}
	}
	last := tables()
	for _, tb := range last {
		if 2*tb.len >= tb.cap {
			t.Fatalf("%s: len %d cap %d, want the run to leave it under half full", tb.name, tb.len, tb.cap)
		}
	}
	build(amac.NodeConfig{Input: 1, Prev: nd})
	for i, tb := range tables() {
		if tb.array != last[i].array || tb.len != 0 {
			t.Errorf("%s: the re-arm did not keep the last run's storage, emptied", tb.name)
		}
	}
	if q := nd.tr.respQ; cap(q) > 0 && q[:1][0] != (ResponseMsg{}) {
		t.Error("respQ's storage still holds the last run's response")
	}
	if slices.ContainsFunc(nd.fl.cycle[:cap(nd.fl.cycle)], func(r floodResp) bool { return r != floodResp{} }) {
		t.Error("the cycle's storage still holds the last run's responses")
	}
	fresh := build(amac.NodeConfig{Input: 1}).(*Node)
	if c, f := cap(nd.fl.cycle), cap(fresh.fl.cycle); c != f || c != relayCap(8, false) {
		t.Errorf("cycle capacity: warm node %d, fresh node %d, want both relayCap = %d", c, f, relayCap(8, false))
	}

	flood := NewFactory(Config{N: 8, Flood: true})
	treeTables := tables()
	flood(amac.NodeConfig{Input: 1, Prev: nd})
	nd.Start(api)
	nd.OnReceive(&Combined{Relay: &RelayMsg{Prop: Proposition{Kind: Prepare, Num: num}, Acceptor: 4}})
	if len(nd.fl.cycle) == 0 || cap(nd.fl.cycle) != relayCap(8, true) {
		t.Fatalf("flood run: cycle len %d cap %d, want the relayed promise in relayCap = %d", len(nd.fl.cycle), cap(nd.fl.cycle), relayCap(8, true))
	}
	floodCycle := backing(nd.fl.cycle)
	build(amac.NodeConfig{Input: 1, Prev: nd})
	for i, tb := range tables() {
		if tb.array != treeTables[i].array || tb.len != 0 {
			t.Errorf("tree, flood, tree: %s did not keep the first tree run's storage, emptied", tb.name)
		}
	}
	flood(amac.NodeConfig{Input: 1, Prev: nd})
	if backing(nd.fl.cycle) != floodCycle || len(nd.fl.cycle) != 0 || nd.fl.cycle[:1][0] != (floodResp{}) {
		t.Error("flood, tree, flood: the cycle did not keep the first flood run's storage, emptied")
	}

	const n, warmAllocs = 64, 8
	cfg := sim.Config{Graph: graph.Expander(n, 4, 1), Inputs: mixedInputs(n), Factory: NewFactory(Config{N: n})}
	eng := new(sim.Engine)
	var res *sim.Result
	run := func() {
		cfg.Scheduler = sim.NewRandom(4, 1)
		eng.Reset(cfg)
		res = eng.Run()
	}
	run() // cold
	run() // the tables grow to what this run fills
	if allocs := testing.AllocsPerRun(3, run); allocs > warmAllocs {
		t.Errorf("a warm run allocates %v times, want <= %d", allocs, warmAllocs)
	}
	if !consensus.Check(cfg.Inputs, res).Termination {
		t.Fatal("the warm run did not decide")
	}
}
