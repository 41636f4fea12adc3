package wpaxos

import (
	"fmt"
	"slices"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/metrics"
	"github.com/absmac/absmac/internal/omega"
)

// Config carries a node's knowledge assumptions and instrumentation.
type Config struct {
	// N is the network size, which wPAXOS assumes known (required by the
	// Section 3.3 lower bound). Majorities are computed against it.
	N int
	// Audit optionally instruments the Lemma 4.2 counting invariant.
	Audit *CountAudit
	// Flood selects the flood transport (flood.go): every acceptor
	// response is relayed individually through the whole network instead
	// of aggregated up the leader's tree. It is Section 4.2's strawman,
	// registered as floodpaxos; everything else about the node is the same.
	Flood bool
}

// NewFactory returns an amac.Factory producing wPAXOS nodes that share the
// given configuration. A node the engine hands back (amac.NodeConfig.Prev)
// is re-armed in place, keeping its struct, its broadcast message and its
// tables' storage from the previous run; any other call re-arms a zero
// node (package comment, "Per-node state and the n² budget"). Within a
// run, what a node recycles is its one broadcast message, refilled at the
// next pump: at most one is in flight, and after its ack no handler is
// reading it.
func NewFactory(cfg Config) amac.Factory {
	if cfg.N < 1 {
		panic(fmt.Sprintf("wpaxos: invalid network size %d", cfg.N))
	}
	return func(nc amac.NodeConfig) amac.Algorithm {
		nd, ok := nc.Prev.(*Node)
		if !ok {
			nd = new(Node)
		}
		nd.arm(nc.Input, cfg)
		nd.instrument(nc.Metrics)
		return nd
	}
}

// chosenTally tracks, for one proposal number, the set of origins ever seen
// with that proposal accepted. A majority means the value is chosen —
// any node may then decide, whether or not the proposer survived.
type chosenTally struct {
	num ProposalNum
	val amac.Value
	by  omega.IDSet
}

// Node is one wPAXOS participant: the suspicion-based Ω detector, the
// PAXOS proposer and acceptor roles, the proposer flood and the decide
// flood, and one of two response transports, whose state follows the
// shared fields: the flood transport's (fl, flood.go), then the tree
// transport's — the tree service, the send-once aggregated response queue
// and its loss-proof fallback, the gossiped acceptor states with the
// chosen-value watch.
type Node struct {
	api   amac.API
	id    amac.NodeID
	n     int
	input amac.Value
	audit *CountAudit
	flood bool

	det  omega.Service
	prop proposerState
	acc  acceptorState

	// live is the highest proposal number seen: in a proposition, and
	// under the flood transport in a response too. A rise prunes what the
	// transport holds for lower numbers (rise).
	live ProposalNum
	// propQ is the proposer flood queue: the highest-numbered proposition
	// seen anywhere (a propose supersedes the prepare of the same
	// number). It is sticky — re-broadcast on every pump until superseded
	// — so a proposition survives lossy overlay edges.
	propQ    ProposerMsg
	hasPropQ bool
	// lastProp is the proposition onProposer looked at last: the flood
	// queue is sticky, so nearly every delivery repeats it and is turned
	// away without a search.
	lastProp Proposition

	decideQ    DecideMsg
	hasDecideQ bool
	inflight   bool
	decided    bool
	decision   amac.Value

	// mreg is the metrics registry handed down by the substrate (nil when
	// metrics are off); met holds the node's counter handles (zero =
	// disabled). propSent marks the sticky proposer queue entry as having
	// been broadcast at least once, so retransmissions can be told apart
	// from first sends.
	mreg     *metrics.Registry
	met      nodeMetrics
	propSent bool

	// msg is the one message the node ever broadcasts, refilled by every
	// pump. The queues are values and value slices, so steady-state pumping
	// does not allocate.
	msg *Combined

	fl floodRelay

	tree treeService
	// seenProps dedups the proposer flood ("rebroadcast on first sight")
	// and doubles as the acceptor's responded-once guard; it only grows.
	seenProps []Proposition // sorted by (number, kind)
	// maxLeaderNum is the largest proposal number seen from the current
	// leader; the fast-path response queue is pruned against it.
	maxLeaderNum ProposalNum
	// respQ is the fast-path acceptor response queue: aggregated
	// responses keyed by (proposition, polarity), awaiting a known parent
	// to relay to. Entries are sent once — aggregated counts cannot be
	// retransmitted without double counting — so this path is the
	// latency optimization (Theorem 4.3's O(D*Fack) argument) and the
	// sticky state gossip below is the loss-proof fallback.
	respQ []ResponseMsg

	// states holds the latest known acceptor state per origin (the weave
	// ipam/paxos idiom), sorted by origin: merged monotonically, each
	// entry re-broadcast until superseded by newer state from its origin
	// — or, for another node's, until no counter can count it any more
	// (countable). The slice is the lookup (findState) and the gossip
	// cycle at once; stateCur is the cycle's cursor into it.
	states   []StateMsg
	stateCur int
	// chosen is the chosen-value watch: per accepted proposal number (a
	// handful, scanned), the origins ever seen with it accepted. A majority
	// decides, whoever proposed and whether or not the proposer survived.
	chosen []chosenTally
	// gossAcks/gossNacks count, via gossiped state, the distinct origins
	// that promised the current prepare / are committed past the current
	// number (a propose's acceptances are the chosen-value watch's to
	// count). They are tallied separately from the fast path's aggregated
	// counts — each tally is individually sound, and they are never summed.
	gossAcks  omega.IDSet
	gossNacks omega.IDSet

	// routeSince is when the distance to the current leader last improved,
	// the second stabilization time of experiment E6's GST decomposition
	// (View.RouteSince; the first, View.OmegaSince, is the detector's).
	routeSince int64
}

// arm makes nd — a zero Node or one a finished run left — the unstarted
// node for the given binary input: every field as a fresh node has it,
// except the storage of its message and tables, which it keeps when the
// last run filled them enough (amac.Reuse). The paper restricts consensus
// to binary inputs because that strengthens its lower bounds; the
// algorithm itself carries any value unchanged (TestMultivaluedConsensus).
func (nd *Node) arm(input amac.Value, cfg Config) {
	if input != 0 && input != 1 {
		panic(fmt.Sprintf("wpaxos: input %d is not binary", input))
	}
	msg := nd.msg
	if msg == nil {
		msg = new(Combined)
	}
	fl := floodRelay{
		cycle: amac.Reuse(nd.fl.cycle), heard: nd.fl.heard[:0],
		far: [2]omega.IDSet{amac.Reuse(nd.fl.far[0]), amac.Reuse(nd.fl.far[1])},
	}
	if cfg.Flood {
		fl.heard = amac.ReuseSized(nd.fl.heard, cfg.N+1)
	}
	*nd = Node{
		n: cfg.N, input: input, audit: cfg.Audit, flood: cfg.Flood, msg: msg,
		det:       nd.det, // Start re-initializes it, keeping its tables
		tree:      treeService{ents: amac.Reuse(nd.tree.ents), queue: amac.Reuse(nd.tree.queue)},
		seenProps: amac.Reuse(nd.seenProps),
		respQ:     amac.Reuse(nd.respQ),
		states:    amac.Reuse(nd.states),
		chosen:    amac.Reuse(nd.chosen),
		gossAcks:  amac.Reuse(nd.gossAcks),
		gossNacks: amac.Reuse(nd.gossNacks),
		fl:        fl,
	}
}

// nodeMetrics is the wPAXOS node's counter set. All nodes of a run share
// the slots (registration dedups by name), so values are network totals.
type nodeMetrics struct {
	proposals   metrics.Counter // proposal numbers started
	retries     metrics.Counter // proposals abandoned after a nack majority
	nacks       metrics.Counter // negative fast-path responses consumed
	retransmits metrics.Counter // sticky proposer-queue re-broadcasts
	superseded  metrics.Counter // flooded responses dropped or pruned as dead
	// The working set: the high-water marks are the largest tree table,
	// gossip table and seen-proposition set any node held.
	treeRoots    metrics.Gauge // roots tracked by the tree service
	stateOrigins metrics.Gauge // origins held in the state gossip table
	seenProps    metrics.Gauge // propositions seen (never purged)
}

// instrument registers the node's metric slots against r (nil-safe) and
// stashes the registry so Start can instrument the failure detector too.
// The flood transport's counters are named apart, so a sweep reports the
// two transports' cells under their own names.
func (nd *Node) instrument(r *metrics.Registry) {
	nd.mreg = r
	if nd.flood {
		nd.met = nodeMetrics{
			proposals: r.Counter("flood_proposals"), retries: r.Counter("flood_retries"),
			retransmits: r.Counter("flood_retransmits"), superseded: r.Counter("flood_superseded"),
		}
		return
	}
	nd.met.proposals = r.Counter("wpaxos_proposals")
	nd.met.retries = r.Counter("wpaxos_retries")
	nd.met.nacks = r.Counter("wpaxos_nacks")
	nd.met.retransmits = r.Counter("wpaxos_retransmits")
	nd.met.treeRoots = r.Gauge("wpaxos_tree_roots")
	nd.met.stateOrigins = r.Gauge("wpaxos_state_origins")
	nd.met.seenProps = r.Gauge("wpaxos_seen_props")
}

// Start implements amac.Algorithm.
func (nd *Node) Start(api amac.API) {
	nd.api = api
	nd.id = api.ID()
	nd.det.Init(api, nd.n, nd.mreg)
	if !nd.flood {
		nd.tree.init(nd.id)
	}
	if nd.n == 1 {
		// A singleton network has no peers to talk to; decide directly
		// (validity is trivial). The services would otherwise idle
		// forever since no change events can occur.
		nd.decide(nd.input)
		return
	}
	nd.pump()
}

// OnReceive implements amac.Algorithm.
func (nd *Node) OnReceive(m amac.Message) {
	c, ok := m.(*Combined)
	if !ok {
		panic(fmt.Sprintf("wpaxos: unexpected message type %T", m))
	}
	if c.Leader != nil && nd.det.Hear(c.Leader.ID) {
		nd.onOmegaChange()
		nd.localChange() // a leader update is a change event (Algorithm 3)
	}
	if c.Search != nil {
		nd.onSearch(*c.Search)
	}
	if c.Change != nil && nd.det.Notice(*c.Change) && nd.det.Omega() == nd.id {
		nd.generateProposal()
	}
	if c.Proposer != nil {
		nd.onProposer(*c.Proposer)
	}
	if c.Response != nil {
		if nd.flood {
			nd.onFlooded(c.Response)
		} else {
			nd.onResponse(c.Response)
		}
	}
	if c.State != nil {
		nd.mergeState(*c.State)
	}
	if c.Decide != nil && !nd.decided {
		nd.decide(c.Decide.Val)
	}
	nd.pump()
}

// OnAck implements amac.Algorithm. The ack stream clocks the failure
// detector: undecided nodes broadcast on every pump, so acks — and with
// them silence checks — never stop arriving.
func (nd *Node) OnAck(amac.Message) {
	nd.inflight = false
	now := nd.api.Now()
	nd.det.NoteAck(now)
	if !nd.decided {
		switch nd.det.Check(now) {
		case omega.Demoted:
			nd.onOmegaChange()
			nd.localChange()
		case omega.Rearm:
			nd.generateProposal()
		}
	}
	nd.pump()
}

// pump is the broadcast service (Algorithm 5): combine one message from
// each non-empty queue into a single broadcast. While undecided, the
// leader slot always carries membership gossip, so the node is never
// silent; after the node decides, only the decide flood remains relevant
// and the execution quiesces.
func (nd *Node) pump() {
	if nd.inflight || nd.decided && !nd.hasDecideQ {
		return
	}
	c := nd.msg
	*c = Combined{}
	var ok bool
	if nd.hasDecideQ {
		c.buf.decide, nd.hasDecideQ = nd.decideQ, false
		c.Decide = &c.buf.decide
	}
	if !nd.decided {
		c.buf.leader, c.buf.change, ok = nd.det.Next()
		c.Leader = &c.buf.leader
		if ok {
			c.Change = &c.buf.change
		}
		if nd.hasPropQ {
			c.buf.proposer = nd.propQ // sticky: retransmitted until superseded
			c.Proposer = &c.buf.proposer
			if nd.propSent {
				nd.met.retransmits.Inc()
			} else {
				nd.propSent = true
			}
		}
		if nd.flood {
			if nd.popFlood(&c.buf.response) {
				c.Response = &c.buf.response
			}
		} else {
			if c.buf.search, ok = nd.tree.pop(nd.det.Fired()); ok {
				c.Search = &c.buf.search
			}
			if c.buf.response, ok = nd.popResp(); ok {
				c.Response = &c.buf.response
			}
			if c.buf.state, ok = nd.popState(); ok {
				c.State = &c.buf.state
			}
		}
	}
	nd.det.NoteSend(nd.api.Now())
	nd.inflight = true
	nd.api.Broadcast(c)
}

// popResp removes the first relayable response (one whose next hop toward
// the proposer is known) and stamps its destination at send time.
func (nd *Node) popResp() (ResponseMsg, bool) {
	for i := range nd.respQ {
		parent := nd.tree.parentTo(nd.respQ[i].Prop.Num.ID)
		if parent == amac.NoID {
			continue
		}
		r := nd.respQ[i]
		r.Dest = parent
		nd.respQ = append(nd.respQ[:i], nd.respQ[i+1:]...)
		return r, true
	}
	return ResponseMsg{}, false
}

// popState returns the next acceptor state in the gossip cycle: each is
// re-broadcast until superseded in place by newer state from its origin,
// or dropped by purgeStates.
func (nd *Node) popState() (StateMsg, bool) {
	if len(nd.states) == 0 {
		return StateMsg{}, false
	}
	if nd.stateCur >= len(nd.states) {
		nd.stateCur = 0
	}
	st := nd.states[nd.stateCur]
	nd.stateCur++
	return st, true
}

// ---- Service message handlers ----

// onOmegaChange drops the trees the new estimate has overtaken, re-pins
// the tree queue and resets the fast-path response queue invariants after
// the leader estimate moved (a new maximum member, a demotion, or a
// wrap-around re-promotion). The flood transport keeps nothing keyed by Ω.
func (nd *Node) onOmegaChange() {
	if nd.flood {
		return
	}
	nd.tree.purge(nd.det.Omega())
	// OnLeaderChange (Algorithm 4): re-pin the tree queue.
	nd.tree.prioritize(nd.det.Omega())
	// The fast-path response queue only ever holds material for the
	// current leader (Section 4.2.1 queue invariants); responses to
	// other proposers travel as state gossip instead.
	nd.maxLeaderNum = ProposalNum{}
	nd.respQ = nd.respQ[:0]
}

func (nd *Node) onSearch(m SearchMsg) {
	// A root is tracked only while it can be this node's leader estimate:
	// responses are routed up Ω's tree alone, and a root below Ω or a
	// suspected one is not Ω until a suspicion or a wrap says otherwise —
	// after which the fired nodes re-advertise (treeService).
	leader := nd.det.Omega()
	if m.Root < leader || nd.det.Suspects(m.Root) {
		return
	}
	if !nd.tree.receive(m, leader) {
		return
	}
	nd.met.treeRoots.Set(int64(len(nd.tree.ents)))
	nd.det.Novel(nd.api.Now())
	// Only improvements of the distance to the *current leader* are
	// change events; see the package comment for why this reading of
	// Algorithm 3's "Omega_u or dist_u updated" is the one that yields
	// the paper's O(D*Fack) global stabilization time.
	if m.Root == nd.det.Omega() {
		nd.routeSince = nd.api.Now()
		nd.localChange()
	}
}

func (nd *Node) localChange() {
	nd.det.Changed()
	if nd.det.Omega() == nd.id {
		nd.generateProposal()
	}
}

// decide decides v and queues the decide flood (which a singleton network
// never pumps).
func (nd *Node) decide(v amac.Value) {
	nd.decided = true
	nd.decision = v
	nd.decideQ, nd.hasDecideQ = DecideMsg{Val: v}, true // flood onward
	nd.api.Decide(v)
}

// ---- Proposer flood and acceptor role ----

func (nd *Node) onProposer(m ProposerMsg) {
	// The proposition flood is sticky, so nearly every delivery repeats
	// the last proposition looked at, which is never admitted twice.
	key := m.Proposition()
	if key == nd.lastProp {
		return
	}
	nd.lastProp = key
	if !nd.admit(m) {
		return // flood dedup: relay and respond only on first sight
	}
	nd.det.Novel(nd.api.Now())
	// Relay and answer every admitted proposition, whoever proposed it:
	// with a rotating Ω, nodes may disagree about the leader, and safety
	// is proposer-independent. The tree transport's fast path stays gated
	// on the current leader (see respond); everyone else's counting flows
	// through the state gossip.
	nd.enqueueProp(m)
	nd.respond(m)
}

// rise makes num the live number and tells the transport to prune what
// only a lower number could use: the tree transport's gossiped states
// (purgeStates), everything the flood transport holds (supersede). The
// flood transport has no refusals, so there a rise past the node's own
// round is how the proposer learns the round lost, and it retries.
func (nd *Node) rise(num ProposalNum) {
	nd.live = num
	if nd.prop.maxTagSeen < num.Tag {
		nd.prop.maxTagSeen = num.Tag
	}
	if !nd.flood {
		nd.purgeStates()
		return
	}
	nd.supersede()
	if nd.prop.phase != propIdle && num.ID != nd.id {
		nd.retry()
	}
}

// admit raises the live number to m's when m's is higher, then reports
// whether this node answers and relays m, and marks it seen. The tree
// transport admits every first sight; the flood transport only those for
// the live number (admitFlood).
func (nd *Node) admit(m ProposerMsg) bool {
	if nd.live.Less(m.Num) {
		nd.rise(m.Num)
	}
	if nd.flood {
		return nd.admitFlood(m)
	}
	return nd.markSeen(m.Proposition())
}

// findSeen returns p's position in seenProps, or the position it would be
// inserted at.
func (nd *Node) findSeen(p Proposition) (int, bool) {
	s := nd.seenProps
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q := &s[mid]; q.Num.Less(p.Num) || (q.Num == p.Num && q.Kind < p.Kind) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s) && s[lo] == p
}

// markSeen adds p to seenProps, reporting whether this is its first sight.
func (nd *Node) markSeen(p Proposition) bool {
	i, found := nd.findSeen(p)
	if !found {
		nd.seenProps = slices.Insert(nd.seenProps, i, p)
		nd.met.seenProps.Set(int64(len(nd.seenProps)))
	}
	return !found
}

// noteLeaderNum updates the largest proposal number seen from the current
// leader and prunes the fast-path response queue accordingly (queue
// invariant (2)).
func (nd *Node) noteLeaderNum(num ProposalNum) {
	if nd.maxLeaderNum.Less(num) {
		nd.maxLeaderNum = num
		kept := nd.respQ[:0]
		for _, r := range nd.respQ {
			if !r.Prop.Num.Less(num) {
				kept = append(kept, r)
			}
		}
		nd.respQ = kept
	}
}

// enqueueProp installs a proposer message in the flood queue, displacing
// anything older (larger number wins; a propose supersedes the prepare of
// the same number).
func (nd *Node) enqueueProp(m ProposerMsg) {
	cur := &nd.propQ
	if !nd.hasPropQ || cur.Num.Less(m.Num) || (cur.Num == m.Num && cur.Kind == Prepare && m.Kind == Propose) {
		nd.propQ, nd.hasPropQ = m, true
		nd.propSent = false
	}
}

// respond runs the acceptor against a proposition and hands the answer to
// the transport: the flood transport relays a positive one; the tree
// transport publishes the updated acceptor state to the gossip layer and
// routes the response toward the proposer when the fast path applies.
func (nd *Node) respond(m ProposerMsg) {
	var r ResponseMsg
	r.Prop = m.Proposition()
	switch m.Kind {
	case Prepare:
		r.Positive, r.Prev, r.Committed = nd.acc.handlePrepare(m.Num)
	case Propose:
		r.Positive, r.Committed = nd.acc.handlePropose(m.Num, m.Val)
	default:
		panic(fmt.Sprintf("wpaxos: unknown proposer message kind %v", m.Kind))
	}
	if nd.flood {
		// No refusal travels: a proposition for the live number is never
		// below a promise.
		if r.Positive {
			nd.routeFlood(floodResp{prop: r.Prop, acceptor: nd.id, prev: r.Prev})
		}
		return
	}
	r.Count = 1
	if r.Positive {
		nd.audit.addGenerated(r.Prop)
		// The acceptor state advanced: let the gossip layer (and the local
		// proposer) see it. A rejection changes nothing, and the promise
		// behind it was published by the positive response that made it.
		nd.noteOwnState()
	}
	if m.Num.ID == nd.id {
		// The proposer's own acceptor responds directly.
		nd.consumeResponse(r)
		return
	}
	if m.Num.ID == nd.det.Omega() {
		nd.noteLeaderNum(m.Num)
		nd.enqueueResp(r)
	}
}

// enqueueResp aggregates a response into the fast-path relay queue
// (Section 4.2.1): same proposition and polarity merge into one message
// whose count is the sum, keeping only the highest-numbered previous
// proposal and the largest committed number.
func (nd *Node) enqueueResp(r ResponseMsg) {
	if r.Prop.Num.ID != nd.det.Omega() {
		return // queue invariant (1)
	}
	if r.Prop.Num.Less(nd.maxLeaderNum) {
		return // queue invariant (2): stale proposition
	}
	nd.noteLeaderNum(r.Prop.Num)
	for i := range nd.respQ {
		q := &nd.respQ[i]
		if q.Prop == r.Prop && q.Positive == r.Positive {
			q.Count += r.Count
			q.Prev = maxPrev(q.Prev, r.Prev)
			q.Committed = q.Committed.Max(r.Committed)
			return
		}
	}
	nd.respQ = append(nd.respQ, r)
}

// onResponse handles an incoming fast-path response: consume it when this
// node is the addressee and the proposer, relay it (re-aggregated) when
// this node is the addressee but not the proposer, ignore it otherwise.
// r is the sender's, valid until its ack: what is kept is copied.
func (nd *Node) onResponse(r *ResponseMsg) {
	if nd.prop.maxTagSeen < r.Committed.Tag {
		nd.prop.maxTagSeen = r.Committed.Tag
	}
	if r.Prev != nil && nd.prop.maxTagSeen < r.Prev.Num.Tag {
		nd.prop.maxTagSeen = r.Prev.Num.Tag
	}
	if r.Dest != nd.id {
		return // unicast-over-broadcast: not addressed to us
	}
	// An addressed response is always novel: the fast path sends each
	// aggregate once, so there are no retransmitted duplicates.
	nd.det.Novel(nd.api.Now())
	if r.Prop.Num.ID == nd.id {
		nd.consumeResponse(*r)
		return
	}
	nd.enqueueResp(*r)
}

// ---- Gossiped acceptor state (the weave idiom) ----

// noteOwnState publishes this node's acceptor state into the gossip table.
func (nd *Node) noteOwnState() {
	nd.mergeState(StateMsg{Origin: nd.id, Promised: nd.acc.promised, Accepted: nd.acc.accepted})
}

// countable reports whether some counter can still count another origin's
// gossiped state. The chosen-value watch counts any acceptance; a
// proposer's tallies look at Promised == num and num < Promised, so a bare
// promise below the live number can only be counted toward a proposal
// that number has already superseded.
func (nd *Node) countable(st *StateMsg) bool {
	return st.Accepted != nil || !st.Promised.Less(nd.live)
}

// purgeStates drops the other origins' states that stopped being
// countable when the live number rose. The node's own acceptor state stays
// whatever it says: acceptors must not forget their promises, and this
// entry is how the rest of the network hears of them.
func (nd *Node) purgeStates() {
	kept := nd.states[:0]
	for i := range nd.states { // in place: countable sees the stored entry, nothing is copied out
		if st := &nd.states[i]; st.Origin == nd.id || nd.countable(st) {
			kept = append(kept, *st)
		}
	}
	clear(nd.states[len(kept):]) // let go of the dropped entries' acceptances
	nd.states = kept
}

// findState returns the position of origin's entry in the gossip table,
// or the position it would be inserted at. Every gossiped state that gets
// past countable comes through here, so the search is written out:
// slices.BinarySearchFunc is not inlined and calls its comparison through
// a pointer with a 32-byte StateMsg copied in.
func (nd *Node) findState(origin amac.NodeID) (int, bool) {
	lo, hi := 0, len(nd.states)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); nd.states[mid].Origin < origin {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(nd.states) && nd.states[lo].Origin == origin
}

// mergeState merges a gossiped acceptor state: newer state per origin
// replaces older (monotone merge), feeds the chosen-value watch, and lets
// the local proposer count the origin. Another origin's state that no
// counter can count any more (countable) is neither stored nor relayed.
func (nd *Node) mergeState(st StateMsg) {
	if st.Origin != nd.id && !nd.countable(&st) {
		return
	}
	i, found := nd.findState(st.Origin)
	switch {
	case !found:
		nd.states = slices.Insert(nd.states, i, st)
		nd.met.stateOrigins.Set(int64(len(nd.states)))
	case st.Newer(nd.states[i]):
		nd.states[i] = st
	default:
		return // retransmission or stale: not novel
	}
	nd.det.Novel(nd.api.Now())
	if st.Accepted != nil {
		nd.tallyChosen(*st.Accepted, st.Origin)
	}
	nd.countState(st)
}

// tallyChosen records that origin accepted p at some point. A majority of
// acceptors having accepted the same proposal means its value is chosen
// (the PAXOS chosen condition); any observer may decide it.
func (nd *Node) tallyChosen(p Proposal, origin amac.NodeID) {
	i := 0
	for i < len(nd.chosen) && nd.chosen[i].num != p.Num {
		i++
	}
	if i == len(nd.chosen) {
		nd.chosen = append(nd.chosen, chosenTally{num: p.Num, val: p.Val})
	}
	t := &nd.chosen[i]
	if t.by.Add(origin) && !nd.decided && 2*len(t.by) > nd.n {
		nd.decide(t.val)
	}
}

// countState lets the proposer count a gossiped origin toward its current
// proposition. This is the loss-proof fallback tally: distinct origins,
// kept strictly separate from the fast path's aggregated counts (each
// tally is individually sound; they are never summed).
func (nd *Node) countState(st StateMsg) {
	if nd.decided || nd.prop.phase == propIdle {
		return
	}
	num := nd.prop.num
	// An origin committed past our number will never answer it positively.
	if num.Less(st.Promised) && nd.gossNacks.Add(st.Origin) && 2*len(nd.gossNacks) > nd.n {
		nd.retry()
		return
	}
	// Acceptances of num are not tallied here: mergeState hands every one
	// to the chosen-value watch first, which counts the same origins and
	// decides at the same majority.
	if nd.prop.phase == propPreparing && st.Promised == num && nd.gossAcks.Add(st.Origin) {
		nd.prop.bestPrev = maxPrev(nd.prop.bestPrev, st.Accepted)
		if 2*len(nd.gossAcks) > nd.n {
			nd.beginPropose()
		}
	}
}

// ---- Proposer logic ----

// generateProposal is the change service's GenerateNewPAXOSProposal: start
// a fresh proposal number, with a budget of two numbers per notification.
func (nd *Node) generateProposal() {
	if nd.decided {
		return
	}
	nd.prop.triesLeft = 2
	nd.startProposal()
}

func (nd *Node) startProposal() {
	nd.met.proposals.Inc()
	nd.prop.triesLeft--
	nd.prop.maxTagSeen++
	nd.prop.num = ProposalNum{Tag: nd.prop.maxTagSeen, ID: nd.id}
	nd.prop.phase = propPreparing
	nd.prop.acks, nd.prop.nacks = 0, 0
	nd.prop.bestPrev = nil
	nd.gossAcks, nd.gossNacks = nd.gossAcks[:0], nd.gossNacks[:0]
	nd.originate(ProposerMsg{Kind: Prepare, Num: nd.prop.num})
}

// originate floods one of this node's own proposer messages and runs the
// local acceptor against it.
func (nd *Node) originate(m ProposerMsg) {
	nd.admit(m)
	if nd.det.Omega() == nd.id {
		nd.noteLeaderNum(m.Num)
	}
	nd.enqueueProp(m)
	nd.respond(m)
}

// consumeResponse is the proposer counting fast-path responses addressed
// to itself.
func (nd *Node) consumeResponse(r ResponseMsg) {
	// Fold learned numbers into maxTagSeen here too: self-responses skip
	// onResponse, and a retry must out-number everything the rejecting
	// majority is committed to.
	if nd.prop.maxTagSeen < r.Committed.Tag {
		nd.prop.maxTagSeen = r.Committed.Tag
	}
	if r.Prev != nil && nd.prop.maxTagSeen < r.Prev.Num.Tag {
		nd.prop.maxTagSeen = r.Prev.Num.Tag
	}
	if r.Positive {
		nd.audit.addCounted(r.Prop, r.Count)
	}
	if nd.decided || r.Prop.Num != nd.prop.num {
		return // stale proposition
	}
	switch {
	case nd.prop.phase == propPreparing && r.Prop.Kind == Prepare:
		if r.Positive {
			nd.prop.acks += r.Count
			nd.prop.bestPrev = maxPrev(nd.prop.bestPrev, r.Prev)
			if 2*nd.prop.acks > int64(nd.n) {
				nd.beginPropose()
			}
		} else {
			nd.met.nacks.Add(r.Count)
			nd.prop.nacks += r.Count
			if 2*nd.prop.nacks > int64(nd.n) {
				nd.retry()
			}
		}
	case nd.prop.phase == propProposing && r.Prop.Kind == Propose:
		if r.Positive {
			nd.prop.acks += r.Count
			if 2*nd.prop.acks > int64(nd.n) {
				// A majority accepted: decide and flood.
				nd.decide(nd.prop.value)
			}
		} else {
			nd.met.nacks.Add(r.Count)
			nd.prop.nacks += r.Count
			if 2*nd.prop.nacks > int64(nd.n) {
				nd.retry()
			}
		}
	}
}

// beginPropose moves a prepared proposal to the propose phase, adopting the
// highest-numbered previous proposal's value when one was reported
// (Lemma 4.3's condition (b)), else this node's own input.
func (nd *Node) beginPropose() {
	nd.prop.phase = propProposing
	nd.prop.acks, nd.prop.nacks = 0, 0
	nd.gossAcks, nd.gossNacks = nd.gossAcks[:0], nd.gossNacks[:0]
	if nd.prop.bestPrev != nil {
		nd.prop.value = nd.prop.bestPrev.Val
	} else {
		nd.prop.value = nd.input
	}
	nd.originate(ProposerMsg{Kind: Propose, Num: nd.prop.num, Val: nd.prop.value})
}

// retry abandons the current number after a majority rejected it (under
// the flood transport: after a higher number superseded it, rise). The
// proposer has learned the largest committed number from the aggregated
// rejections (already folded into maxTagSeen), so the next number — if the
// two-numbers budget allows one and this node still believes it is the
// leader — beats everything that majority is committed to. A node that
// exhausts its budget goes idle; the failure detector's re-arm (or the
// next change event) gives it a fresh budget, so no proposer is gated
// forever while it believes itself leader.
func (nd *Node) retry() {
	nd.met.retries.Inc()
	if nd.det.Omega() != nd.id || nd.prop.triesLeft <= 0 {
		nd.prop.phase = propIdle
		nd.prop.num = ProposalNum{}
		return
	}
	nd.startProposal()
}

// Inspect implements amac.Inspector; a node that never started has no Ω.
func (nd *Node) Inspect() amac.View {
	v := amac.View{Decided: nd.decided, Decision: nd.decision, Omega: amac.NoID,
		RouteSince: nd.routeSince, Promised: amac.Ballot(nd.acc.promised), MaxTag: nd.prop.maxTagSeen}
	if nd.api != nil {
		v.Omega, v.OmegaSince = nd.det.Omega(), nd.det.OmegaSince()
	}
	if p := nd.acc.accepted; p != nil {
		v.Accepted, v.AcceptedVal = amac.Ballot(p.Num), p.Val
	}
	return v
}

// WorkingSet returns the sizes of the node's three growing tables: the roots
// its tree service tracks, the origins in its state gossip table and the
// propositions it has seen (the one never purged). The wpaxos_tree_roots,
// wpaxos_state_origins and wpaxos_seen_props gauges carry their high-water marks.
func (nd *Node) WorkingSet() (treeRoots, stateOrigins, seenProps int) {
	return len(nd.tree.ents), len(nd.states), len(nd.seenProps)
}

var (
	_ amac.Algorithm = (*Node)(nil)
	_ amac.Inspector = (*Node)(nil)
)

// NewDetector forwards to omega.NewDetector for the benchmark module's
// detector probe.
func NewDetector(self amac.NodeID, n int) *omega.Detector { return omega.NewDetector(self, n) }
