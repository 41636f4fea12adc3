package wpaxos

import (
	"testing"
	"unsafe"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/omega"
	"github.com/absmac/absmac/internal/sim"
)

// backing returns a pointer to the first element of s's backing array.
func backing[S ~[]E, E any](s S) *E { return unsafe.SliceData(s[:cap(s)]) }

// TestRearmKeepsEmptiedTables holds the tables a run empties before it ends
// to amac.ReuseUpTo: the tree service's entries and queue, seenProps, respQ
// and the acceptor's slab. One node runs twice. The first run accepts four
// propositions. In the second, purge drops the two roots the detector's
// leader overtakes, pop drains the queue, the Ω change prunes respQ, and the
// node sees one proposition and accepts none. Every table then holds less
// than half its storage, which amac.Reuse would drop, though the run used
// it; the re-arm must keep each backing array, emptied, and zero respQ's,
// the one whose elements hold pointers.
//
// Then one engine repeats a wpaxos run on expander:64:4: a warm run
// allocates at most warmAllocs times (111 measured). Dropping the four
// tree tables whenever a run leaves them under half full reads 357.
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
	} {
		nd.OnReceive(m)
	}
	tr := nd.tr
	if len(tr.respQ) != 0 || cap(tr.respQ) == 0 {
		t.Fatalf("respQ len %d cap %d, want a response queued and pruned", len(tr.respQ), cap(tr.respQ))
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

	const n, warmAllocs = 64, 128
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
