package wpaxos

import (
	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/omega"
)

// This file is the flood relay, the one loss-proof path for acceptor
// responses under both transports. Every acceptor's positive response to a
// proposition is a message of its own (RelayMsg), carrying that acceptor's
// id, and every node relays every distinct response it sees and counts it.
// Under the flood transport (Config.Flood, registered as floodpaxos) it is
// the only path: Section 4.2's strawman. Messages hold O(1) ids, so a node
// forwards one response per broadcast: near bottlenecks the backlog is Θ(n)
// messages and a majority takes Θ(n·Fack) to count, against the
// aggregated fast path's O(D·Fack) up Ω's tree. Experiment E7 measures the
// contrast, with the fast path as the only variable. The tree transport
// runs the relay beside that fast path: aggregated counts are sent once
// and may be lost to a lossy overlay edge or a dead relay, and a majority
// heard through the relay still decides (the two tallies are never
// summed).
//
// # The relay invariant
//
// A node relays only what can still be counted. Its live number
// (Node.live) is the highest proposal number it has seen, in a
// proposition or in a relayed response, and one order decides what
// supersedes what:
//
//   - a higher number supersedes everything below it (supersede): the
//     pending responses, the heard table and the queued proposition are
//     cleared, and relayed responses for lower numbers are dropped on
//     arrival from then on (the flood transport drops such propositions
//     too; the tree transport still answers them, for its fast path);
//   - a Propose for the live number retires the Prepare responses for it
//     (the proposer already holds its majority of promises).
//
// So a node has at most two live propositions, both of one number, and at
// most 2n pending responses. What is live is sticky: the live proposition
// and every pending response stay queued and are re-broadcast (responses
// round-robin, one per broadcast) until superseded, so a message lost to a
// lossy overlay edge is re-offered rather than gone; receivers deduplicate
// per acceptor, which keeps the retransmissions idempotent. No
// aggregation, no majority cap, no batching: under the flood transport the
// Θ(n) backlog is the point.
//
// Dropping a relay is safe because it is message loss, which PAXOS
// tolerates: acceptor state is written only when an acceptor answers a
// proposition and is never touched by the relay rules. Only positive
// answers are relayed, so there are no refusals to flood; under the flood
// transport a proposer learns that its round lost from the flood itself —
// a rise of the live number past its round ends it (rise) and, while the
// node still believes itself leader and has budget, starts the next one.
// The tree transport learns it from the fast path's aggregated refusals
// instead. The detector's re-arm restores liveness when that is not
// enough. Any node that hears a majority of acceptors
// accept the live proposal decides, so termination does not need the
// proposer to survive its own round.

// floodRelay is the relay's state, all of it for the node's live number:
// supersede clears it when the number rises.
type floodRelay struct {
	// prepared and proposed record which of the live number's two
	// propositions this node has seen (and answered); val is the value of
	// its Propose.
	prepared, proposed bool
	val                amac.Value

	// cycle is the sticky response queue, re-broadcast round-robin from
	// cur; only responses to another node's proposition enter it.
	cycle []floodResp
	cur   int
	// heard packs, per acceptor id in [0, n] and beyond to the end of its
	// last word, two bits, one for each of the live number's propositions
	// (bit 2·id + kind − Prepare) the acceptor was heard answering: the
	// relay's dedup set and the tally in one, indexed by id. An id outside
	// that range (sparse ids) goes to far instead, one set per kind.
	// promises and accepts count what both hold; a majority of accepts
	// means val is chosen and any observer decides.
	heard             []uint64
	far               [2]omega.IDSet // indexed by kind - Prepare
	promises, accepts int
}

// heardWords is the size of the heard table for a network of n: two bits
// for each id in [0, n].
func heardWords(n int) int { return (2*(n+1) + 63) / 64 }

// floodResp is one acceptor's answer to one proposition, as the cycle
// stores it; pump puts it on the wire as a RelayMsg. Every entry answers
// a proposition for the live number, so the entry keeps only its kind.
type floodResp struct {
	acceptor amac.NodeID
	prev     *Proposal
	kind     PropKind
}

// markHeard records that acceptor was heard answering the live number's
// proposition of kind k, reporting whether that was news.
func (f *floodRelay) markHeard(k PropKind, acceptor amac.NodeID) bool {
	// A negative id wraps past the table's end and goes to far.
	if u := uint64(acceptor); u < 32*uint64(len(f.heard)) {
		bit := 2*u + uint64(k-Prepare)
		w, mask := &f.heard[bit/64], uint64(1)<<(bit%64)
		news := *w&mask == 0
		*w |= mask
		return news
	}
	return f.far[k-Prepare].Add(acceptor)
}

// supersede clears what the relay holds for the old live number: nothing
// for a lower number can be counted any more.
func (nd *Node) supersede() {
	f := &nd.fl
	nd.met.superseded.Add(int64(len(f.cycle)))
	f.cycle, f.cur = f.cycle[:0], 0
	clear(f.heard)
	f.far[0], f.far[1] = f.far[0][:0], f.far[1][:0]
	f.promises, f.accepts = 0, 0
	f.prepared, f.proposed = false, false
	nd.hasPropQ = false
}

// admitFlood reports whether m is the first sight of a proposition for the
// live number, and marks it seen: a Prepare whose Propose was seen is as
// dead as a lower number. A Propose retires the Prepare responses.
func (nd *Node) admitFlood(m ProposerMsg) bool {
	f := &nd.fl
	if m.Num != nd.live || f.proposed || f.prepared && m.Kind == Prepare {
		return false
	}
	if m.Kind == Prepare {
		f.prepared = true
		return true
	}
	f.proposed, f.val = true, m.Val
	kept := f.cycle[:0]
	for _, r := range f.cycle {
		if r.kind == Propose {
			kept = append(kept, r)
		}
	}
	nd.met.superseded.Add(int64(len(f.cycle) - len(kept)))
	f.cycle, f.cur = kept, 0
	return true
}

// routeFlood drops a dead response to a proposition numbered num, dedups a
// live one against the heard table, tallies it, and queues it for the
// sticky relay unless this node is the proposer it was travelling to or
// has decided: a decided node's pump sends only the decide flood. The
// tallies still count, since a decided proposer may still begin its
// Propose.
func (nd *Node) routeFlood(num ProposalNum, r floodResp) {
	f := &nd.fl
	if num != nd.live || f.proposed && r.kind == Prepare {
		nd.met.superseded.Inc()
		return
	}
	if !f.markHeard(r.kind, r.acceptor) {
		return
	}
	nd.det.Novel(nd.api.Now())
	if num.ID != nd.id && !nd.decided {
		f.cycle = append(f.cycle, r)
		nd.met.relayPending.Set(int64(len(f.cycle)))
	}
	if r.kind == Propose {
		f.accepts++
		nd.decideIfChosen()
		return
	}
	f.promises++
	if nd.prop.phase != propPreparing || nd.prop.num != num {
		return
	}
	// This node is the proposer counting promises for its own Prepare.
	nd.prop.bestPrev = maxPrev(nd.prop.bestPrev, r.prev)
	if 2*f.promises > nd.n {
		nd.beginPropose()
	}
}

// decideIfChosen decides once a majority of acceptors was heard accepting
// the live number and its value is known. The accepts may outrun the
// Propose; when it arrives, the node's own accept repeats the check.
func (nd *Node) decideIfChosen() {
	if f := &nd.fl; !nd.decided && f.proposed && 2*f.accepts > nd.n {
		nd.decide(f.val)
	}
}

// onFlooded handles a relayed response: seeing its number is seeing a
// proposal number, so it may raise the live number before it is routed.
func (nd *Node) onFlooded(r *RelayMsg) {
	if nd.live.Less(r.Prop.Num) {
		nd.rise(r.Prop.Num)
	}
	nd.routeFlood(r.Prop.Num, floodResp{acceptor: r.Acceptor, prev: r.Prev, kind: r.Prop.Kind})
}

// popFlood writes the next pending response of the sticky cycle to r,
// reporting whether there was one. Its proposition is the entry's kind for
// the live number.
func (nd *Node) popFlood(r *RelayMsg) bool {
	f := &nd.fl
	if len(f.cycle) == 0 {
		return false
	}
	if f.cur >= len(f.cycle) {
		f.cur = 0
	}
	e := &f.cycle[f.cur]
	f.cur++
	r.Prop, r.Prev, r.Acceptor = Proposition{Kind: e.kind, Num: nd.live}, e.prev, e.acceptor
	return true
}
