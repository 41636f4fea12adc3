// Package floodpaxos implements the strawman the paper argues against in
// Section 4.2: PAXOS logic whose acceptor responses are flooded
// individually instead of aggregated along proposer-rooted trees.
//
// Every acceptor's response to a proposition is a separate message carrying
// that acceptor's id, and every node re-floods every distinct response it
// sees. Messages hold O(1) ids, so a node can forward only one response
// per broadcast: near bottlenecks the backlog is Theta(n) messages and the
// proposer needs Theta(n*Fack) time to count a majority — versus wPAXOS's
// O(D*Fack) aggregation. Experiment E7 measures the contrast.
//
// Like wPAXOS it assumes unique ids and knowledge of n, and it runs the
// same Ω (internal/omega): membership is gossiped one id per broadcast,
// the maximum unsuspected member is the leader, silence demotes it so the
// proposership rotates off corpses, and change notices restart the leader's
// proposer.
//
// # The relay invariant
//
// A node relays only what can still be counted. Its live number is the
// highest proposal number it has seen from anyone, in a proposition or in
// a response, and one order decides what supersedes what:
//
//   - a higher number supersedes everything below it: the pending
//     responses, the per-acceptor dedup/tally table and the queued
//     proposition are cleared, and propositions and responses for lower
//     numbers are dropped on arrival from then on;
//   - a Propose for the live number retires the Prepare responses for it
//     (the proposer already holds its majority of promises).
//
// So a node has at most two live propositions, both of one number, and at
// most 2n pending responses. What is live is sticky: the newest change,
// the live proposition and every pending response stay queued and are
// re-broadcast (responses round-robin, one per broadcast) until
// superseded, so a message lost to a lossy overlay edge is re-offered
// rather than gone; receivers deduplicate per acceptor — a byte per id in
// 0..n, a sorted omega.IDSet for any other id, no Go map — keeping the
// retransmissions idempotent. Every node relays every live response, one
// by one — no aggregation, no majority cap, no batching: the Theta(n)
// backlog is the point.
//
// Dropping a relay is safe because it is message loss, which PAXOS
// tolerates by construction: acceptor state (promised, accepted) is
// written only when an acceptor answers a proposition, never forgotten,
// and never touched by the relay rules. Since an acceptor never answers
// below its live number there are no refusals to flood; a proposer learns
// that its round lost from the flood itself — seeing a higher number ends
// the round and, while it still believes itself leader and has budget,
// starts the next one. The detector's re-arm restores liveness when that
// is not enough (the proposer died, or spent its budget): silence hands
// out a fresh proposal, which supersedes whatever was in flight. Any node
// that observes a majority of acceptors accepting the live proposal
// decides — termination does not require the proposer to survive its own
// round.
package floodpaxos

import (
	"fmt"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/metrics"
	"github.com/absmac/absmac/internal/omega"
)

// ProposerMsg floods a prepare or propose.
type ProposerMsg struct {
	Kind wpaxos.PropKind
	Num  wpaxos.ProposalNum
	Val  amac.Value
}

// Proposition returns the proposition this message belongs to.
func (m ProposerMsg) Proposition() wpaxos.Proposition {
	return wpaxos.Proposition{Kind: m.Kind, Num: m.Num}
}

// ResponseMsg is one acceptor's (un-aggregated) response, flooded through
// the whole network until it reaches the proposer. There are no refusals:
// an acceptor answers only propositions for the highest number it has
// seen, which it can always grant (see the package comment).
type ResponseMsg struct {
	Prop     wpaxos.Proposition
	Acceptor amac.NodeID
	Prev     *wpaxos.Proposal
}

// DecideMsg floods the decision.
type DecideMsg struct {
	Val amac.Value
}

// Combined multiplexes one message per queue into a single broadcast. The
// sender fills the unexported inline slots and points the exported fields
// at them, so assembling a broadcast allocates nothing beyond the Combined
// itself — and nothing at all on a node that owns the one message it
// refills (see NewFactory).
type Combined struct {
	Leader   *omega.LeaderMsg
	Change   *omega.ChangeMsg
	Proposer *ProposerMsg
	Response *ResponseMsg
	Decide   *DecideMsg

	// buf backs the pointer fields above when the message is assembled by
	// pump. Receivers must treat a delivered Combined as immutable and
	// copy what they keep (they do), because a sender that owns its
	// message refills the whole object — buf included — after the ack.
	buf struct {
		leader   omega.LeaderMsg
		change   omega.ChangeMsg
		proposer ProposerMsg
		response ResponseMsg
		decide   DecideMsg
	}
}

// IDCount implements amac.Message.
func (m *Combined) IDCount() int {
	c := 0
	if m.Leader != nil {
		c++
	}
	if m.Change != nil {
		c++
	}
	if m.Proposer != nil {
		c++
	}
	if m.Response != nil {
		c += 2
		if m.Response.Prev != nil {
			c++
		}
	}
	return c
}

// Node is the per-node state machine. The outbound queues (propQ, decideQ)
// are value slots with presence flags; respQ is a sticky cycle whose
// entries leave only when superseded. Of the state keyed by the live
// number, heard is n+1 bytes from the start; the rest starts empty and
// grows with what the node hears.
type Node struct {
	api   amac.API
	id    amac.NodeID
	n     int
	input amac.Value

	det omega.Service

	// live is the highest proposal number seen from anyone; prepared and
	// proposed record which of its two propositions this node has seen
	// (and answered), and liveVal is the value of its Propose. propQ, respQ
	// and heard hold state for live only: raising live clears them
	// (supersede), and seeing the Propose drops the Prepare responses.
	live     wpaxos.ProposalNum
	prepared bool
	proposed bool
	liveVal  amac.Value

	hasPropQ bool
	propQ    ProposerMsg

	respQ   []ResponseMsg
	respCur int
	// heard has, per acceptor id in [0, n], one bit for each of live's
	// propositions (heardBit) the acceptor was heard answering: the flood's
	// dedup set and the tally in one, indexed by id. An acceptor id outside
	// that range (sparse ids) goes to heardFar instead, one set per kind.
	// promises and accepts count what both hold; a majority of accepts
	// means liveVal is chosen and any observer decides, proposer dead or
	// alive.
	heard    []uint8
	heardFar [2]omega.IDSet // indexed by kind - Prepare
	promises int
	accepts  int

	promised wpaxos.ProposalNum
	accepted *wpaxos.Proposal

	// phase is the state of this node's own round, which is always for
	// live: a higher number ends it (supersede).
	phase     int // 0 idle, 1 preparing, 2 proposing
	triesLeft int
	bestPrev  *wpaxos.Proposal

	hasDecideQ bool
	decideQ    DecideMsg
	inflight   bool
	decided    bool
	decision   amac.Value

	// msg, where the substrate lets a node have one (see NewFactory), is
	// the one message it ever broadcasts, refilled by every pump.
	msg *Combined

	// mreg is the substrate's metrics registry (nil when metrics are off);
	// the handles below are zero (disabled) then. propSent distinguishes a
	// sticky proposition's retransmissions from its first send.
	mreg         *metrics.Registry
	mProposals   metrics.Counter
	mRetries     metrics.Counter
	mRetransmits metrics.Counter
	mSuperseded  metrics.Counter
	propSent     bool
}

// heardBit is the bit of a heard entry that records an answer to a
// proposition of the given kind.
func heardBit(k wpaxos.PropKind) uint8 { return 1 << uint(k) }

// markHeard records that acceptor was heard answering live's proposition
// of kind k, reporting whether that was news.
func (a *Node) markHeard(k wpaxos.PropKind, acceptor amac.NodeID) bool {
	// A negative id wraps past the table's end and goes to heardFar.
	if uint64(acceptor) < uint64(len(a.heard)) {
		h, bit := a.heard[acceptor], heardBit(k)
		a.heard[acceptor] = h | bit
		return h&bit == 0
	}
	return a.heardFar[k-wpaxos.Prepare].Add(acceptor)
}

// newNode returns the bare flood-paxos node NewFactory completes, knowing
// the network size n.
func newNode(input amac.Value, n int) *Node {
	if n < 1 {
		panic(fmt.Sprintf("floodpaxos: invalid network size %d", n))
	}
	if input != 0 && input != 1 {
		panic(fmt.Sprintf("floodpaxos: input %d is not binary", input))
	}
	return &Node{n: n, input: input, heard: make([]uint8, n+1)}
}

// NewFactory returns a factory for networks of the given size. On
// substrates that declare amac.NodeConfig.AckAfterHandlers a node owns one
// broadcast message and refills it at every pump (at most one is in
// flight, and after its ack no handler is reading it), which makes the
// steady-state broadcast path allocation-free; elsewhere a receiver may
// still be reading the message when the ack lands, so every pump
// allocates a fresh one.
func NewFactory(n int) amac.Factory {
	return func(cfg amac.NodeConfig) amac.Algorithm {
		a := newNode(cfg.Input, n)
		if cfg.AckAfterHandlers {
			a.msg = new(Combined)
		}
		a.instrument(cfg.Metrics)
		return a
	}
}

// instrument registers the node's metric slots against r (nil-safe; all
// nodes share the slots, so values are network totals) and stashes the
// registry so Start can instrument Ω.
// flood_superseded counts the responses the relay rules dropped on arrival
// or pruned from a pending cycle.
func (a *Node) instrument(r *metrics.Registry) {
	a.mreg = r
	a.mProposals = r.Counter("flood_proposals")
	a.mRetries = r.Counter("flood_retries")
	a.mRetransmits = r.Counter("flood_retransmits")
	a.mSuperseded = r.Counter("flood_superseded")
}

// Start implements amac.Algorithm.
func (a *Node) Start(api amac.API) {
	a.api = api
	a.id = api.ID()
	a.det.Init(api, a.n, a.mreg)
	if a.n == 1 {
		a.decide(a.input)
		return
	}
	a.pump()
}

// OnReceive implements amac.Algorithm.
func (a *Node) OnReceive(m amac.Message) {
	c, ok := m.(*Combined)
	if !ok {
		panic(fmt.Sprintf("floodpaxos: unexpected message type %T", m))
	}
	if c.Leader != nil && a.det.Hear(c.Leader.ID) {
		a.localChange() // a leader update is the change event
	}
	if c.Change != nil && a.det.Notice(*c.Change) && a.det.Omega() == a.id {
		a.generateProposal()
	}
	if c.Proposer != nil {
		a.onProposer(*c.Proposer)
	}
	if c.Response != nil {
		a.onResponse(*c.Response)
	}
	if c.Decide != nil && !a.decided {
		a.decide(c.Decide.Val)
	}
	a.pump()
}

// localChange floods a change notification and restarts the proposer when
// this node believes it is the leader.
func (a *Node) localChange() {
	a.det.Changed()
	if a.det.Omega() == a.id {
		a.generateProposal()
	}
}

// OnAck implements amac.Algorithm. The ack stream clocks the failure
// detector: undecided nodes broadcast on every pump (the leader slot is
// never empty), so silence checks never stop arriving.
func (a *Node) OnAck(amac.Message) {
	a.inflight = false
	now := a.api.Now()
	a.det.NoteAck(now)
	if !a.decided {
		switch a.det.Check(now) {
		case omega.Demoted:
			a.localChange()
		case omega.Rearm:
			a.generateProposal()
		}
	}
	a.pump()
}

func (a *Node) pump() {
	// A decided node has nothing left to say but its decide flood.
	if a.inflight || a.decided && !a.hasDecideQ {
		return
	}
	c := a.msg
	if c == nil {
		c = new(Combined)
	} else {
		*c = Combined{}
	}
	if a.hasDecideQ {
		c.buf.decide = a.decideQ
		c.Decide = &c.buf.decide
		a.hasDecideQ = false
	}
	if !a.decided {
		// The Ω slots: membership gossip, never empty, so an undecided
		// node is never silent (the detector's liveness tick), and the
		// sticky newest change notice.
		var hasChange bool
		c.buf.leader, c.buf.change, hasChange = a.det.Next()
		c.Leader = &c.buf.leader
		if hasChange {
			c.Change = &c.buf.change
		}
		if a.hasPropQ {
			// Sticky: the live proposition is re-broadcast until
			// superseded (receivers dedup on first sight).
			c.buf.proposer = a.propQ
			c.Proposer = &c.buf.proposer
			if a.propSent {
				a.mRetransmits.Inc()
			} else {
				a.propSent = true
			}
		}
		if len(a.respQ) > 0 {
			// Sticky cycle: the live responses are re-broadcast
			// round-robin, one per broadcast, until superseded.
			if a.respCur >= len(a.respQ) {
				a.respCur = 0
			}
			c.buf.response = a.respQ[a.respCur]
			c.Response = &c.buf.response
			a.respCur++
		}
	}
	a.det.NoteSend(a.api.Now())
	a.inflight = true
	a.api.Broadcast(c)
}

// supersede raises the live number to num: nothing held for a lower number
// can be counted any more, so the pending responses, the heard table and
// the queued proposition go. If the number it replaces was this node's own
// round, the round is over, and retry decides whether to start another.
func (a *Node) supersede(num wpaxos.ProposalNum) {
	a.mSuperseded.Add(int64(len(a.respQ)))
	a.respQ = a.respQ[:0]
	a.respCur = 0
	clear(a.heard)
	for k := range a.heardFar {
		a.heardFar[k] = a.heardFar[k][:0]
	}
	a.promises, a.accepts = 0, 0
	a.hasPropQ = false
	a.live = num
	a.prepared, a.proposed = false, false
	if a.phase != 0 && num.ID != a.id {
		a.retry()
	}
}

// onProposer answers and relays every first-seen proposition for the live
// number, whoever proposed it: with a rotating Ω, nodes may disagree about
// the leader, and PAXOS safety is proposer-independent. Propositions below
// the live number are ignored — no answer to them could be counted.
func (a *Node) onProposer(m ProposerMsg) {
	if a.live.Less(m.Num) {
		a.supersede(m.Num)
	}
	// A retry inside supersede may have raised live past m.Num; and a
	// Prepare whose Propose was seen is as dead as a lower number.
	if m.Num != a.live || a.proposed || (a.prepared && m.Kind == wpaxos.Prepare) {
		return
	}
	a.det.Novel(a.api.Now())
	a.adopt(m)
}

// adopt marks a proposition for the live number seen, queues it for the
// sticky flood and answers it. A Propose retires the Prepare responses.
func (a *Node) adopt(m ProposerMsg) {
	if m.Kind == wpaxos.Propose {
		a.proposed = true
		a.liveVal = m.Val
		kept := a.respQ[:0]
		for _, r := range a.respQ {
			if r.Prop.Kind == wpaxos.Propose {
				kept = append(kept, r)
			}
		}
		a.mSuperseded.Add(int64(len(a.respQ) - len(kept)))
		a.respQ = kept
		a.respCur = 0
	} else {
		a.prepared = true
	}
	a.hasPropQ = true
	a.propQ = m
	a.propSent = false
	a.respond(m)
	a.maybeDecideChosen()
}

// respond runs the acceptor and emits one individual response. It is the
// only writer of promised and accepted. Callers pass propositions for the
// live number only, and no higher number was ever answered, so both guards
// hold; they stay because an acceptor that breaks a promise breaks
// agreement, whatever a caller gets wrong.
func (a *Node) respond(m ProposerMsg) {
	r := ResponseMsg{Prop: m.Proposition(), Acceptor: a.id}
	switch m.Kind {
	case wpaxos.Prepare:
		if !a.promised.Less(m.Num) {
			return
		}
		a.promised = m.Num
		r.Prev = a.accepted
	case wpaxos.Propose:
		if m.Num.Less(a.promised) {
			return
		}
		a.promised = m.Num
		a.accepted = &wpaxos.Proposal{Num: m.Num, Val: m.Val}
	}
	a.routeResponse(r)
}

// onResponse handles a flooded response: seeing its number is seeing a
// proposal number, so it may raise live before it is routed.
func (a *Node) onResponse(r ResponseMsg) {
	if a.live.Less(r.Prop.Num) {
		a.supersede(r.Prop.Num)
	}
	a.routeResponse(r)
}

// routeResponse drops a dead response, dedups a live one against heard,
// tallies it, and queues it for sticky flooding unless this node is the
// proposer it was travelling to.
func (a *Node) routeResponse(r ResponseMsg) {
	if r.Prop.Num != a.live || (a.proposed && r.Prop.Kind == wpaxos.Prepare) {
		a.mSuperseded.Inc()
		return
	}
	if !a.markHeard(r.Prop.Kind, r.Acceptor) {
		return
	}
	a.det.Novel(a.api.Now())
	if r.Prop.Num.ID != a.id {
		a.respQ = append(a.respQ, r)
	}
	if r.Prop.Kind == wpaxos.Propose {
		a.accepts++
		a.maybeDecideChosen()
		return
	}
	a.promises++
	if a.phase != 1 {
		return
	}
	// This node is the proposer counting promises for its own Prepare.
	if r.Prev != nil && (a.bestPrev == nil || a.bestPrev.Num.Less(r.Prev.Num)) {
		a.bestPrev = r.Prev
	}
	if 2*a.promises > a.n {
		a.beginPropose()
	}
}

// maybeDecideChosen decides once a majority of acceptors was heard
// accepting the live number and its value is known (the responses may
// outrun the Propose; the check is repeated when it arrives).
func (a *Node) maybeDecideChosen() {
	if !a.decided && a.proposed && 2*a.accepts > a.n {
		a.decide(a.liveVal)
	}
}

func (a *Node) generateProposal() {
	if a.decided {
		return
	}
	a.triesLeft = 2
	a.startProposal()
}

// startProposal opens a round of this node's own above everything seen.
func (a *Node) startProposal() {
	a.mProposals.Inc()
	a.triesLeft--
	a.phase = 1
	a.bestPrev = nil
	num := wpaxos.ProposalNum{Tag: a.live.Tag + 1, ID: a.id}
	a.supersede(num)
	a.adopt(ProposerMsg{Kind: wpaxos.Prepare, Num: num})
}

// beginPropose moves this node's round to its second phase, proposing the
// value of the highest-numbered proposal the promises reported, if any.
func (a *Node) beginPropose() {
	a.phase = 2
	v := a.input
	if a.bestPrev != nil {
		v = a.bestPrev.Val
	}
	a.adopt(ProposerMsg{Kind: wpaxos.Propose, Num: a.live, Val: v})
}

// retry abandons this node's round after a higher number superseded it. A
// node that exhausts its two-numbers budget goes idle; the failure
// detector's re-arm (or the next change event) hands out a fresh budget,
// so no proposer is gated forever while it believes itself leader.
func (a *Node) retry() {
	a.mRetries.Inc()
	if a.det.Omega() != a.id || a.triesLeft <= 0 {
		a.phase = 0
		return
	}
	a.startProposal()
}

// decide records the decision and queues its flood.
func (a *Node) decide(v amac.Value) {
	a.decided = true
	a.decision = v
	a.hasDecideQ = true
	a.decideQ = DecideMsg{Val: v}
	a.api.Decide(v)
}

// Inspect implements amac.Inspector; a node that never started has no Ω.
func (a *Node) Inspect() amac.View {
	v := amac.View{Decided: a.decided, Decision: a.decision, Omega: amac.NoID,
		Promised: amac.Ballot(a.promised), MaxTag: a.live.Tag}
	if a.api != nil {
		v.Omega = a.det.Omega()
	}
	if a.accepted != nil {
		v.Accepted, v.AcceptedVal = amac.Ballot(a.accepted.Num), a.accepted.Val
	}
	return v
}

var (
	_ amac.Algorithm = (*Node)(nil)
	_ amac.Inspector = (*Node)(nil)
	_ amac.Message   = (*Combined)(nil)
)
