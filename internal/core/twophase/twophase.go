// Package twophase implements Algorithm 1 of the paper: two-phase
// consensus for single-hop (clique) topologies in the abstract MAC layer
// model.
//
// The algorithm decides in O(Fack) time (two broadcast/ack cycles plus the
// witness wait, Theorem 4.1), assumes unique ids, and — notably — needs no
// knowledge of the network size or the participant set, which separates
// the abstract MAC layer model from the asynchronous broadcast model of
// Abboud et al., where consensus is impossible under those assumptions.
//
// Operation (for node u with initial value v):
//
//	Phase 1: broadcast <phase1, id_u, v>; gather messages until the ack.
//	  If evidence of a different initial value arrived by then (a phase-1
//	  message with 1-v or a bivalent phase-2 message), set status to
//	  bivalent, otherwise to decided(v).
//	Phase 2: broadcast <phase2, id_u, status>; gather messages until the
//	  ack. A decided node then decides its own value and terminates. A
//	  bivalent node forms the witness set W of every id heard so far and
//	  waits until a phase-2 message from every witness has arrived; it
//	  then decides 0 when any decided(0) status was seen, else 1.
//
// One deliberate deviation from the paper's listing: line 23 of Algorithm 1
// scans only R2 (messages recorded during phase 2) for decided(0)
// statuses, but the agreement argument in the proof of Theorem 4.1
// requires a bivalent node to notice a decided(0) status wherever it was
// recorded — a decided node's phase-2 message can legitimately arrive
// while a slow bivalent node is still in phase 1, landing in R1. We
// therefore scan R1 ∪ R2 (i.e. every message seen), which is what the
// proof's case analysis actually uses.
//
// # Per-node state
//
// Two-phase runs on cliques, where every node hears every other twice: at
// n = 1024 that is 2·n·(n−1) ≈ 2.1 M deliveries in 2·Fack ticks, each of
// which only has to answer "is this sender a witness, and has its phase-2
// message arrived". The contract for that state:
//
//   - One probe per delivery. The ids a node has heard live in one
//     open-addressed table keyed by 64-id block (id >> 6; Fibonacci hash,
//     linear probing, doubled before it passes half full). A slot is one
//     24 B record {blk, member, phase2}: bit id & 63 of member marks a
//     member, the same bit of phase2 marks that member's phase-2 delivery.
//     A delivery hashes the sender's block, probes once over those
//     records, and writes at most one bit.
//   - Keys are arbitrary NodeIDs (sim.Config.IDs): 0, NoID, negative ids
//     and both ends of int64 are members like any other. A slot is empty
//     iff its member word is zero, so no key value is reserved and no
//     occupancy bitset sits beside the table.
//   - Size follows the blocks, not the ids. The harness's dense ids
//     1..n share n/64 + 1 blocks, so a node of clique:1024 keeps 17 blocks
//     in 64 slots, about 1.5 KB, and all 1024 nodes' tables fit in cache.
//     Sparse ids pay up to one block each, about 48 B of table per id;
//     only tests use them.
//   - The witness set is the table at the phase-2 ack, frozen by not
//     inserting afterwards: an id first heard in the witness wait is by
//     definition not in W, so its messages only feed the decided(0) scan.
//     The table therefore never grows after the freeze, and a node that
//     has decided stops probing at all.
//   - missing counts witnesses without their phase-2 flag. It is armed at
//     the freeze (Σ popcount(member &^ phase2) over the slots) and
//     decremented when a witness's flag is first set, so the release test
//     of the witness wait is a compare, where the listing walks W on every
//     delivery.
//   - The listing's three maps survive as the oracle of a differential test
//     (twophase_oracle_test.go) that compares phase, status, broadcasts and
//     decisions after every call over dense, shuffled, strided, negative,
//     NoID-adjacent, block-edge and one-per-block ids; idset_test.go checks
//     the set against maps on random int64 ids, whose blocks collide; and
//     a test pins a node of clique:1024 at ≤ 2 KB retained (struct plus
//     slot records). Measurements are in CHANGES.md.
package twophase

import (
	"fmt"

	"github.com/absmac/absmac/internal/amac"
)

// Phase1 is the first-phase message <phase 1, id, v>.
type Phase1 struct {
	From amac.NodeID
	V    amac.Value
}

// IDCount implements amac.Message.
func (Phase1) IDCount() int { return 1 }

// Phase2 is the second-phase message <phase 2, id, status>, where status is
// either bivalent (Decided=false) or decided(V) (Decided=true).
type Phase2 struct {
	From    amac.NodeID
	Decided bool
	V       amac.Value
}

// IDCount implements amac.Message.
func (Phase2) IDCount() int { return 1 }

// phase tracks the node's progress through the algorithm.
type phase int

const (
	phaseOne     phase = iota + 1 // awaiting phase-1 ack
	phaseTwo                      // awaiting phase-2 ack
	phaseWitness                  // bivalent: awaiting witness phase-2 messages
	phaseDone
)

// TwoPhase is the per-node state machine. Create instances with Factory.
type TwoPhase struct {
	api   amac.API
	input amac.Value

	phase         phase
	statusDecided bool // status chosen at the phase-1 ack

	// sawOtherValue records phase-1 evidence of the value 1-input;
	// sawBivalent records any bivalent phase-2 message. Both are only
	// consulted at the phase-1 ack, matching R1 in the listing.
	sawOtherValue bool
	sawBivalent   bool

	// ids holds every id seen in a message up to the phase-2 ack (the
	// senders behind R1 and R2), each flagged once its phase-2 message
	// has arrived. The phase-2 ack freezes it into the witness set W: an
	// id first heard later is by definition not a witness, so it is never
	// inserted. missing counts the witnesses whose phase-2 message is
	// still outstanding; it is armed at the freeze.
	ids     idSet
	missing int

	// sawDecidedZero records whether any decided(0) status was seen.
	sawDecidedZero bool

	decided  bool
	decision amac.Value
}

// Factory returns a two-phase node for cfg.Input, which must be binary. A
// node the engine hands back (amac.NodeConfig.Prev) is re-armed in place,
// keeping its id set's table when the last run filled it enough.
func Factory(cfg amac.NodeConfig) amac.Algorithm {
	if cfg.Input != 0 && cfg.Input != 1 {
		panic(fmt.Sprintf("twophase: input %d is not binary", cfg.Input))
	}
	a, ok := cfg.Prev.(*TwoPhase)
	if !ok {
		a = new(TwoPhase)
	}
	*a = TwoPhase{input: cfg.Input, ids: a.ids.reuse()}
	return a
}

// Start implements amac.Algorithm.
func (a *TwoPhase) Start(api amac.API) {
	a.api = api
	a.phase = phaseOne
	a.ids.add(api.ID()) // R1 starts with u's own phase-1 message
	api.Broadcast(Phase1{From: api.ID(), V: a.input})
}

// OnReceive implements amac.Algorithm.
func (a *TwoPhase) OnReceive(m amac.Message) {
	switch msg := m.(type) {
	case Phase1:
		if a.phase < phaseWitness {
			a.ids.add(msg.From)
		}
		if msg.V != a.input {
			a.sawOtherValue = true
		}
	case Phase2:
		if a.phase < phaseWitness {
			a.ids.markPhase2(a.ids.add(msg.From))
		} else if a.phase == phaseWitness {
			if i, ok := a.ids.find(msg.From); ok && a.ids.markPhase2(i) {
				a.missing--
			}
		}
		if !msg.Decided {
			a.sawBivalent = true
		} else if msg.V == 0 {
			a.sawDecidedZero = true
		}
	default:
		panic(fmt.Sprintf("twophase: unexpected message type %T", m))
	}
	if a.phase == phaseWitness {
		a.maybeDecide()
	}
}

// OnAck implements amac.Algorithm.
func (a *TwoPhase) OnAck(m amac.Message) {
	switch a.phase {
	case phaseOne:
		// Choose the status from the evidence in R1 (listing line 8).
		a.statusDecided = !a.sawOtherValue && !a.sawBivalent
		a.phase = phaseTwo
		own := Phase2{From: a.api.ID(), Decided: a.statusDecided, V: a.input}
		// R2 starts with u's own phase-2 message (listing line 15).
		a.ids.markPhase2(a.ids.add(own.From))
		if own.Decided && own.V == 0 {
			a.sawDecidedZero = true
		}
		a.api.Broadcast(own)
	case phaseTwo:
		if a.statusDecided {
			// A decided node decides its own value right after its
			// phase-2 broadcast completes.
			a.phase = phaseDone
			a.decide(a.input)
			return
		}
		// Freeze the witness set W: every id heard so far.
		a.missing = a.ids.withoutPhase2()
		a.phase = phaseWitness
		a.maybeDecide()
	default:
		panic(fmt.Sprintf("twophase: unexpected ack in phase %d", a.phase))
	}
}

// maybeDecide completes the bivalent branch once every witness has
// delivered a phase-2 message.
func (a *TwoPhase) maybeDecide() {
	if a.missing > 0 {
		return
	}
	a.phase = phaseDone
	if a.sawDecidedZero {
		a.decide(0)
		return
	}
	a.decide(1)
}

func (a *TwoPhase) decide(v amac.Value) {
	if a.decided {
		return
	}
	a.decided = true
	a.decision = v
	a.api.Decide(v)
}

// Inspect implements amac.Inspector.
func (a *TwoPhase) Inspect() amac.View { return amac.DecisionView(a.decided, a.decision) }

var (
	_ amac.Algorithm = (*TwoPhase)(nil)
	_ amac.Inspector = (*TwoPhase)(nil)
	_ amac.Message   = Phase1{}
	_ amac.Message   = Phase2{}
)
