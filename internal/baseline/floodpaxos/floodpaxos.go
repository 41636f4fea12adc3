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
// Like wPAXOS it assumes unique ids and knowledge of n. Leader election is
// the shared suspicion-based Ω detector (internal/core/wpaxos/detector.go):
// membership is gossiped one id per broadcast, the maximum unsuspected
// member is the leader, and silence demotes it so the proposership rotates
// off corpses. Outbound queues are retransmit-until-superseded: the newest
// change, the highest-numbered proposition, and every pending response
// stay queued and are re-broadcast (responses round-robin) until newer
// state supersedes them, so a message lost to a lossy overlay edge is
// re-offered forever rather than gone. Receivers deduplicate, keeping the
// retransmissions idempotent. Any node that observes a majority of
// acceptors accepting the same proposal decides — termination does not
// require the proposer to survive its own round.
package floodpaxos

import (
	"fmt"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/core/wpaxos"
	"github.com/absmac/absmac/internal/metrics"
)

// LeaderMsg gossips one known member id (the detector's membership
// rotation; the maximum unsuspected member is the leader).
type LeaderMsg struct {
	ID amac.NodeID
}

// ChangeMsg is the change notification.
type ChangeMsg struct {
	T  int64
	ID amac.NodeID
}

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
// the whole network until it reaches the proposer.
type ResponseMsg struct {
	Prop      wpaxos.Proposition
	Acceptor  amac.NodeID
	Positive  bool
	Prev      *wpaxos.Proposal
	Committed wpaxos.ProposalNum
}

// DecideMsg floods the decision.
type DecideMsg struct {
	Val amac.Value
}

// Combined multiplexes one message per queue into a single broadcast. The
// sender fills the unexported inline slots and points the exported fields
// at them, so assembling a broadcast allocates nothing beyond the Combined
// itself — and nothing at all once a pooling node (see NewFactory) has
// recycled its first message.
type Combined struct {
	Leader   *LeaderMsg
	Change   *ChangeMsg
	Proposer *ProposerMsg
	Response *ResponseMsg
	Decide   *DecideMsg

	// buf backs the pointer fields above when the message is assembled by
	// pump. Receivers must treat a delivered Combined as immutable and
	// copy what they keep (they do), because pooling senders reuse the
	// whole object — buf included — after the ack.
	buf struct {
		leader   LeaderMsg
		change   ChangeMsg
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
		if !m.Response.Committed.IsZero() {
			c++
		}
	}
	return c
}

// respKey dedups response floods.
type respKey struct {
	prop     wpaxos.Proposition
	acceptor amac.NodeID
}

// Node is the per-node state machine. The outbound queues (changeQ, propQ,
// decideQ) are value slots with presence flags; respQ is a sticky cycle —
// entries leave only when a newer proposition from the same proposer
// supersedes them — so queue traffic allocates only when respQ has to
// grow.
type Node struct {
	api   amac.API
	id    amac.NodeID
	n     int
	input amac.Value

	det *wpaxos.Detector

	lastChange int64
	hasChangeQ bool
	changeQ    ChangeMsg

	hasPropQ  bool
	propQ     ProposerMsg
	seenProps map[wpaxos.Proposition]bool
	// maxNumBy is the largest proposal number seen per proposer; pending
	// responses are pruned per proposer, so one proposer's newer round
	// never discards another proposer's countable responses.
	maxNumBy map[amac.NodeID]wpaxos.ProposalNum

	respQ    []ResponseMsg
	respCur  int
	seenResp map[respKey]bool

	// propVals remembers the value of every propose seen, and chosenBy
	// the acceptors seen accepting each number: a majority means the
	// value is chosen and any observer decides, proposer dead or alive.
	propVals map[wpaxos.ProposalNum]amac.Value
	chosenBy map[wpaxos.ProposalNum]map[amac.NodeID]bool

	promised wpaxos.ProposalNum
	accepted *wpaxos.Proposal

	phase      int // 0 idle, 1 preparing, 2 proposing
	num        wpaxos.ProposalNum
	maxTagSeen int64
	triesLeft  int
	acks       map[amac.NodeID]bool
	nacks      map[amac.NodeID]bool
	bestPrev   *wpaxos.Proposal
	value      amac.Value

	hasDecideQ bool
	decideQ    DecideMsg
	inflight   bool
	decided    bool
	decision   amac.Value

	// reuse recycles broadcast buffers through msgFree after each ack
	// (amac.NodeConfig.AckAfterHandlers, via NewFactory). A node
	// has at most one broadcast in flight, so the pool holds at most one
	// message.
	reuse   bool
	msgFree []*Combined

	// mreg is the substrate's metrics registry (nil when metrics are off);
	// the handles below are zero (disabled) then. propSent distinguishes a
	// sticky proposition's retransmissions from its first send.
	mreg         *metrics.Registry
	mProposals   metrics.Counter
	mRetries     metrics.Counter
	mNacks       metrics.Counter
	mRetransmits metrics.Counter
	propSent     bool
}

// New returns a flood-paxos node knowing the network size n. Nodes built
// this way allocate a fresh message per broadcast.
func New(input amac.Value, n int) *Node {
	if n < 1 {
		panic(fmt.Sprintf("floodpaxos: invalid network size %d", n))
	}
	if input != 0 && input != 1 {
		panic(fmt.Sprintf("floodpaxos: input %d is not binary", input))
	}
	return &Node{
		n:     n,
		input: input,
		// Sized for the common census: a couple of propositions, each
		// drawing one response per acceptor, deduped network-wide. Sizing
		// up front trades one allocation for the incremental bucket
		// growth that otherwise dominates the flood path.
		seenProps: make(map[wpaxos.Proposition]bool, 8),
		seenResp:  make(map[respKey]bool, 4*n),
		respQ:     make([]ResponseMsg, 0, 2*n),
		maxNumBy:  make(map[amac.NodeID]wpaxos.ProposalNum, 4),
		propVals:  make(map[wpaxos.ProposalNum]amac.Value, 4),
		chosenBy:  make(map[wpaxos.ProposalNum]map[amac.NodeID]bool, 4),
	}
}

// NewFactory returns a factory for networks of the given size. On
// substrates that declare amac.NodeConfig.AckAfterHandlers its nodes
// recycle their broadcast buffer after each ack, which makes the
// steady-state broadcast path allocation-free; elsewhere a receiver may
// still be reading the message when the ack lands, so every broadcast
// allocates a fresh one.
func NewFactory(n int) amac.Factory {
	return func(cfg amac.NodeConfig) amac.Algorithm {
		a := New(cfg.Input, n)
		a.reuse = cfg.AckAfterHandlers
		a.instrument(cfg.Metrics)
		return a
	}
}

// instrument registers the node's metric slots against r (nil-safe; all
// nodes share the slots, so values are network totals) and stashes the
// registry so Start can instrument the shared Ω detector.
func (a *Node) instrument(r *metrics.Registry) {
	a.mreg = r
	a.mProposals = r.Counter("flood_proposals")
	a.mRetries = r.Counter("flood_retries")
	a.mNacks = r.Counter("flood_nacks")
	a.mRetransmits = r.Counter("flood_retransmits")
}

// getMsg takes a broadcast buffer from the pool, or allocates one.
func (a *Node) getMsg() *Combined {
	if k := len(a.msgFree); k > 0 {
		c := a.msgFree[k-1]
		a.msgFree = a.msgFree[:k-1]
		return c
	}
	return &Combined{}
}

// Start implements amac.Algorithm.
func (a *Node) Start(api amac.API) {
	a.api = api
	a.id = api.ID()
	a.det = wpaxos.NewDetector(a.id, a.n)
	a.det.Instrument(a.mreg)
	a.lastChange = -1
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
	if c.Leader != nil {
		prev := a.det.Omega()
		if a.det.Learn(c.Leader.ID) {
			a.det.Novel(a.api.Now())
			if a.det.Omega() != prev {
				// A leader update is the change event.
				a.localChange()
			}
		}
	}
	if c.Change != nil && c.Change.T > a.lastChange {
		a.lastChange = c.Change.T
		a.hasChangeQ = true
		a.changeQ = ChangeMsg{T: c.Change.T, ID: c.Change.ID}
		a.det.Novel(a.api.Now())
		if a.det.Omega() == a.id {
			a.generateProposal()
		}
	}
	if c.Proposer != nil {
		a.onProposer(*c.Proposer)
	}
	if c.Response != nil {
		a.onResponse(*c.Response)
	}
	if c.Decide != nil && !a.decided {
		a.decide(c.Decide.Val)
		a.hasDecideQ = true
		a.decideQ = DecideMsg{Val: c.Decide.Val}
	}
	a.pump()
}

// localChange floods a change notification and restarts the proposer when
// this node believes it is the leader.
func (a *Node) localChange() {
	a.lastChange = a.api.Now()
	a.hasChangeQ = true
	a.changeQ = ChangeMsg{T: a.lastChange, ID: a.id}
	if a.det.Omega() == a.id {
		a.generateProposal()
	}
}

// OnAck implements amac.Algorithm. The ack stream clocks the failure
// detector: undecided nodes broadcast on every pump (the leader slot is
// never empty), so silence checks never stop arriving.
func (a *Node) OnAck(m amac.Message) {
	a.inflight = false
	if a.reuse {
		// Every delivery handler for this broadcast has returned
		// (AckAfterHandlers), so the buffer can be recycled.
		c := m.(*Combined)
		*c = Combined{}
		a.msgFree = append(a.msgFree, c)
	}
	now := a.api.Now()
	a.det.NoteAck(now)
	if !a.decided {
		switch a.det.Check(now) {
		case wpaxos.DetectorDemoted:
			a.localChange()
		case wpaxos.DetectorRearm:
			a.generateProposal()
		}
	}
	a.pump()
}

func (a *Node) pump() {
	if a.inflight {
		return
	}
	var c *Combined
	// ensure allocates the outgoing message only once something queued.
	ensure := func() {
		if c == nil {
			c = a.getMsg()
		}
	}
	if a.hasDecideQ {
		ensure()
		c.buf.decide = a.decideQ
		c.Decide = &c.buf.decide
		a.hasDecideQ = false
	}
	if !a.decided {
		// Membership gossip: one known id per pump, cycling. This slot
		// is always non-empty, so an undecided node is never silent —
		// the detector's liveness tick.
		ensure()
		c.buf.leader = LeaderMsg{ID: a.det.Gossip()}
		c.Leader = &c.buf.leader
		if a.hasChangeQ {
			// Sticky: the newest change is re-broadcast until a newer
			// one supersedes it (receivers dedup by timestamp).
			ensure()
			c.buf.change = a.changeQ
			c.Change = &c.buf.change
		}
		if a.hasPropQ {
			// Sticky: the highest-numbered proposition is re-broadcast
			// until superseded (receivers dedup on first sight).
			ensure()
			c.buf.proposer = a.propQ
			c.Proposer = &c.buf.proposer
			if a.propSent {
				a.mRetransmits.Inc()
			} else {
				a.propSent = true
			}
		}
		if len(a.respQ) > 0 {
			// Sticky cycle: pending responses are re-broadcast
			// round-robin until superseded per proposer.
			if a.respCur >= len(a.respQ) {
				a.respCur = 0
			}
			ensure()
			c.buf.response = a.respQ[a.respCur]
			c.Response = &c.buf.response
			a.respCur++
		}
	}
	if c == nil {
		return
	}
	a.det.NoteSend(a.api.Now())
	a.inflight = true
	a.api.Broadcast(c)
}

func (a *Node) onProposer(m ProposerMsg) {
	if a.maxTagSeen < m.Num.Tag {
		a.maxTagSeen = m.Num.Tag
	}
	key := m.Proposition()
	if a.seenProps[key] {
		return
	}
	a.seenProps[key] = true
	a.det.Novel(a.api.Now())
	// Respond to and relay every first-seen proposition, whoever proposed
	// it: with a rotating Ω, nodes may disagree about the leader, and
	// PAXOS safety is proposer-independent.
	a.noteProposerNum(m.Num)
	if m.Kind == wpaxos.Propose {
		a.propVals[m.Num] = m.Val
		a.maybeDecideChosen(m.Num)
	}
	if !a.hasPropQ || a.propQ.Num.Less(m.Num) ||
		(a.propQ.Num == m.Num && a.propQ.Kind == wpaxos.Prepare && m.Kind == wpaxos.Propose) {
		a.hasPropQ = true
		a.propQ = m
		a.propSent = false
	}
	a.respond(m)
}

// noteProposerNum updates the largest proposal number seen from num's
// proposer and prunes that proposer's superseded responses from the
// pending cycle.
func (a *Node) noteProposerNum(num wpaxos.ProposalNum) {
	if cur := a.maxNumBy[num.ID]; cur.Less(num) {
		a.maxNumBy[num.ID] = num
		kept := a.respQ[:0]
		for _, r := range a.respQ {
			if r.Prop.Num.ID == num.ID && r.Prop.Num.Less(num) {
				continue
			}
			kept = append(kept, r)
		}
		a.respQ = kept
		if a.respCur > len(a.respQ) {
			a.respCur = 0
		}
	}
}

// respond runs the acceptor and emits one individual response.
func (a *Node) respond(m ProposerMsg) {
	r := ResponseMsg{Prop: m.Proposition(), Acceptor: a.id}
	switch m.Kind {
	case wpaxos.Prepare:
		if a.promised.Less(m.Num) {
			a.promised = m.Num
			r.Positive = true
			r.Prev = a.accepted
		} else {
			r.Committed = a.promised
		}
	case wpaxos.Propose:
		if !m.Num.Less(a.promised) {
			a.promised = m.Num
			a.accepted = &wpaxos.Proposal{Num: m.Num, Val: m.Val}
			r.Positive = true
		} else {
			r.Committed = a.promised
		}
	}
	// Mark our own response seen so the flood echoing it back is not
	// re-queued as a duplicate.
	a.seenResp[respKey{prop: r.Prop, acceptor: r.Acceptor}] = true
	a.routeResponse(r)
}

// routeResponse queues a response for sticky flooding (or consumes it when
// this node is the proposer) and feeds the chosen-value watch.
func (a *Node) routeResponse(r ResponseMsg) {
	if r.Positive && r.Prop.Kind == wpaxos.Propose {
		a.tallyChosen(r.Prop.Num, r.Acceptor)
	}
	if r.Prop.Num.ID == a.id {
		a.consume(r)
		return
	}
	if r.Prop.Num.Less(a.maxNumBy[r.Prop.Num.ID]) {
		return // superseded by a newer round from the same proposer
	}
	a.respQ = append(a.respQ, r)
}

func (a *Node) onResponse(r ResponseMsg) {
	if a.maxTagSeen < r.Committed.Tag {
		a.maxTagSeen = r.Committed.Tag
	}
	key := respKey{prop: r.Prop, acceptor: r.Acceptor}
	if a.seenResp[key] {
		return
	}
	a.seenResp[key] = true
	a.det.Novel(a.api.Now())
	a.noteProposerNum(r.Prop.Num)
	a.routeResponse(r)
}

// tallyChosen records that acceptor accepted num; a majority of acceptors
// accepting the same number means its value is chosen, and any observer
// decides it (the responses keep flooding stickily even if the proposer
// died mid-round).
func (a *Node) tallyChosen(num wpaxos.ProposalNum, acceptor amac.NodeID) {
	set := a.chosenBy[num]
	if set == nil {
		set = make(map[amac.NodeID]bool, a.n)
		a.chosenBy[num] = set
	}
	if set[acceptor] {
		return
	}
	set[acceptor] = true
	a.maybeDecideChosen(num)
}

func (a *Node) maybeDecideChosen(num wpaxos.ProposalNum) {
	if a.decided {
		return
	}
	v, ok := a.propVals[num]
	if !ok {
		return // value not yet known; re-checked when the propose arrives
	}
	if 2*len(a.chosenBy[num]) > a.n {
		a.decide(v)
		a.hasDecideQ = true
		a.decideQ = DecideMsg{Val: v}
	}
}

func (a *Node) generateProposal() {
	if a.decided {
		return
	}
	a.triesLeft = 2
	a.startProposal()
}

// resetTallies re-arms the ack/nack tallies for a new phase, reusing the
// maps across phases and proposals.
func (a *Node) resetTallies() {
	if a.acks == nil {
		a.acks = make(map[amac.NodeID]bool, a.n)
		a.nacks = make(map[amac.NodeID]bool, a.n)
		return
	}
	clear(a.acks)
	clear(a.nacks)
}

func (a *Node) startProposal() {
	a.mProposals.Inc()
	a.triesLeft--
	a.maxTagSeen++
	a.num = wpaxos.ProposalNum{Tag: a.maxTagSeen, ID: a.id}
	a.phase = 1
	a.resetTallies()
	a.bestPrev = nil
	m := ProposerMsg{Kind: wpaxos.Prepare, Num: a.num}
	a.seenProps[m.Proposition()] = true
	a.noteProposerNum(a.num)
	a.hasPropQ = true
	a.propQ = m
	a.propSent = false
	a.respond(m)
}

// consume is the proposer counting individual responses.
func (a *Node) consume(r ResponseMsg) {
	if a.decided || r.Prop.Num != a.num {
		return
	}
	wantKind := wpaxos.Prepare
	if a.phase == 2 {
		wantKind = wpaxos.Propose
	}
	if a.phase == 0 || r.Prop.Kind != wantKind {
		return
	}
	if r.Positive {
		a.acks[r.Acceptor] = true
		if a.phase == 1 {
			if r.Prev != nil && (a.bestPrev == nil || a.bestPrev.Num.Less(r.Prev.Num)) {
				a.bestPrev = r.Prev
			}
			if 2*len(a.acks) > a.n {
				a.beginPropose()
			}
		} else if 2*len(a.acks) > a.n {
			a.decide(a.value)
			a.hasDecideQ = true
			a.decideQ = DecideMsg{Val: a.value}
		}
		return
	}
	a.mNacks.Inc()
	a.nacks[r.Acceptor] = true
	if 2*len(a.nacks) > a.n {
		a.retry()
	}
}

func (a *Node) beginPropose() {
	a.phase = 2
	a.resetTallies()
	if a.bestPrev != nil {
		a.value = a.bestPrev.Val
	} else {
		a.value = a.input
	}
	m := ProposerMsg{Kind: wpaxos.Propose, Num: a.num, Val: a.value}
	a.seenProps[m.Proposition()] = true
	a.propVals[a.num] = a.value
	a.hasPropQ = true
	a.propQ = m
	a.propSent = false
	a.respond(m)
}

// retry abandons the current number after a majority rejected it. A node
// that exhausts its two-numbers budget goes idle; the failure detector's
// re-arm (or the next change event) hands out a fresh budget, so no
// proposer is gated forever while it believes itself leader.
func (a *Node) retry() {
	a.mRetries.Inc()
	if a.det.Omega() != a.id || a.triesLeft <= 0 {
		a.phase = 0
		a.num = wpaxos.ProposalNum{}
		return
	}
	a.startProposal()
}

func (a *Node) decide(v amac.Value) {
	a.decided = true
	a.decision = v
	a.api.Decide(v)
}

// Decided implements amac.Decider.
func (a *Node) Decided() (amac.Value, bool) { return a.decision, a.decided }

var (
	_ amac.Algorithm = (*Node)(nil)
	_ amac.Decider   = (*Node)(nil)
	_ amac.Message   = (*Combined)(nil)
)
