package wpaxos

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

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
	// Flood selects the flood transport: no aggregated tree path, so every
	// acceptor response reaches a counter through the relay (flood.go)
	// alone, individually through the whole network. It is Section 4.2's
	// strawman, registered as floodpaxos; everything else about the node,
	// the relay included, is the same.
	Flood bool
}

// NewFactory returns an amac.Factory producing wPAXOS nodes that share the
// given configuration. A node the engine hands back (amac.NodeConfig.Prev)
// is re-armed in place, keeping its struct, its broadcast message and its
// tables' storage from the previous run; any other call arms a new node
// (package comment, "Per-node state and the n² budget"). Within a
// run, what a node recycles is its one broadcast message, refilled at the
// next pump: at most one is in flight, and after its ack no handler is
// reading it. The factory registers the metric handles once per registry
// and hands every node of the run the same set.
func NewFactory(cfg Config) amac.Factory {
	if cfg.N < 1 {
		panic(fmt.Sprintf("wpaxos: invalid network size %d", cfg.N))
	}
	// The last registry seen and its handles, in one allocation.
	last := &struct {
		sync.Mutex // a factory may serve several engines at once
		reg        *metrics.Registry
		met        *nodeMetrics
	}{met: &noMetrics}
	return func(nc amac.NodeConfig) amac.Algorithm {
		nd, ok := nc.Prev.(*Node)
		if !ok {
			nd = allocNode(cfg.Flood)
		}
		nd.arm(nc.Input, cfg)
		last.Lock()
		if nc.Metrics != last.reg {
			last.reg, last.met = nc.Metrics, newNodeMetrics(nc.Metrics, cfg.Flood)
		}
		nd.mreg, nd.met = nc.Metrics, last.met
		last.Unlock()
		return nd
	}
}

// Node is one wPAXOS participant: the suspicion-based Ω detector, the
// PAXOS proposer and acceptor roles, the proposer flood, the decide flood,
// the response relay (fl, flood.go) and, under the tree transport, the
// aggregated fast path. The relay's state is inline; the tree transport's
// sits behind tr, which only a node armed for a tree run allocates and
// which re-arms keep. The metric handles (met) are the run's, shared by
// every node.
type Node struct {
	api   amac.API
	id    amac.NodeID
	n     int
	input amac.Value
	audit *CountAudit

	det  omega.Service
	prop proposerState
	acc  acceptorState

	// live is the highest proposal number seen, in a proposition or in a
	// relayed response. A rise clears what the relay holds for lower
	// numbers (rise).
	live ProposalNum
	// propQ is the proposer flood queue: the highest-numbered proposition
	// seen anywhere (a propose supersedes the prepare of the same
	// number). It is sticky — re-broadcast on every pump until superseded
	// — so a proposition survives lossy overlay edges. propSent marks the
	// entry as broadcast at least once, so retransmissions can be told
	// apart from first sends.
	propQ              ProposerMsg
	hasPropQ, propSent bool
	// lastProp is the proposition onProposer looked at last: the flood
	// queue is sticky, so nearly every delivery repeats it and is turned
	// away without a search.
	lastProp Proposition

	decideQ    DecideMsg
	hasDecideQ bool
	inflight   bool
	decided    bool
	flood      bool
	decision   amac.Value

	// mreg is the metrics registry handed down by the substrate (nil when
	// metrics are off); met holds the run's counter handles (zero =
	// disabled).
	mreg *metrics.Registry
	met  *nodeMetrics

	// msg is the one message the node ever broadcasts, refilled by every
	// pump. The queues are values and value slices, so steady-state pumping
	// does not allocate.
	msg *Combined

	fl floodRelay
	tr *treeTransport // nil for a node that never served a tree run
}

// treeTransport is the tree transport's own state: the tree service, the
// proposition dedup and the send-once aggregated response queue.
type treeTransport struct {
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
	// sticky relay (flood.go) is the loss-proof fallback.
	respQ []ResponseMsg

	// routeSince is when the distance to the current leader last improved,
	// the second stabilization time of experiment E6's GST decomposition
	// (View.RouteSince; the first, View.OmegaSince, is the detector's).
	routeSince int64
}

// treeNode is how NewFactory allocates a node for a tree run: the node with
// its tree state beside it.
type treeNode struct {
	Node
	tree treeTransport
}

// allocNode returns a zero node for the given transport. A tree node and
// its tree state share one allocation, so a delivery finds both in
// neighbouring cache lines.
func allocNode(flood bool) *Node {
	if flood {
		return new(Node)
	}
	tn := new(treeNode)
	tn.tr = &tn.tree
	return &tn.Node
}

// keepCap bounds the storage a re-arm keeps for a table that a run empties
// before it ends (amac.ReuseUpTo): the tree service's entries and queue,
// seenProps, respQ and the acceptor's slab. They hold O(roots +
// propositions), which grows with log n on the expanders measured (at
// most 32 entries, 16 queued roots and 64 propositions a node at n = 4096;
// 16, 16 and 32 at n = 256), so eight slots per bit of n keep what a run
// of this size fills and let a slot that served a larger network go.
func keepCap(n int) int { return 8 * bits.Len(uint(n)) }

// arm makes nd — a zero Node or one a finished run left — the unstarted
// node for the given binary input: every field as a fresh node has it,
// except the storage of its message and tables. The tables a run empties
// before it ends keep theirs up to keepCap (amac.ReuseUpTo); the relay's
// cycle and far sets keep theirs when the last run left them at least
// half full (amac.Reuse), and its heard table while it fits
// (amac.ReuseSized). A node armed for a tree run without tree state gets
// it here; a node keeps its tree state through later re-arms, and a flood
// run leaves it as the last tree run left it, so the next tree re-arm
// finds that run's tables to reuse. The paper restricts consensus to
// binary inputs because that strengthens its lower bounds; the algorithm
// itself carries any value unchanged (TestMultivaluedConsensus).
func (nd *Node) arm(input amac.Value, cfg Config) {
	if input != 0 && input != 1 {
		panic(fmt.Sprintf("wpaxos: input %d is not binary", input))
	}
	msg := nd.msg
	if msg == nil {
		msg = new(Combined)
	}
	fl := floodRelay{
		cycle: amac.Reuse(nd.fl.cycle), heard: amac.ReuseSized(nd.fl.heard, heardWords(cfg.N)),
		far: [2]omega.IDSet{amac.Reuse(nd.fl.far[0]), amac.Reuse(nd.fl.far[1])},
	}
	keep := keepCap(cfg.N)
	tr := nd.tr
	switch {
	case cfg.Flood: // kept as the last tree run left it
	case tr != nil:
		*tr = treeTransport{
			tree: treeService{
				ents:  amac.ReuseUpTo(tr.tree.ents, keep),
				queue: amac.ReuseUpTo(tr.tree.queue, keep),
			},
			seenProps: amac.ReuseUpTo(tr.seenProps, keep),
			respQ:     amac.ReuseUpTo(tr.respQ, keep),
		}
	default:
		tr = new(treeTransport)
	}
	*nd = Node{
		n: cfg.N, input: input, audit: cfg.Audit, flood: cfg.Flood, msg: msg,
		det: nd.det, // Start re-initializes it, keeping its tables
		acc: acceptorState{slab: amac.ReuseUpTo(nd.acc.slab, keep)},
		fl:  fl,
		tr:  tr,
	}
}

// nodeMetrics is the wPAXOS node's counter set. All nodes of a run share
// one (registration dedups by name, so the handles would be equal anyway),
// and values are network totals.
type nodeMetrics struct {
	proposals   metrics.Counter // proposal numbers started
	retries     metrics.Counter // proposals abandoned after a nack majority
	nacks       metrics.Counter // negative fast-path responses consumed
	retransmits metrics.Counter // sticky proposer-queue re-broadcasts
	superseded  metrics.Counter // flooded responses dropped or pruned as dead
	// The working set: the high-water marks are the largest tree table,
	// relay cycle and seen-proposition set any node held.
	treeRoots    metrics.Gauge // roots tracked by the tree service
	relayPending metrics.Gauge // responses pending in the relay's cycle
	seenProps    metrics.Gauge // propositions seen (never purged)
}

// noMetrics is the disabled handle set, shared by every node of every run
// without a registry.
var noMetrics nodeMetrics

// newNodeMetrics registers a run's metric slots against r. The flood
// transport's counters are named apart, so a sweep reports the two
// transports' cells under their own names.
func newNodeMetrics(r *metrics.Registry, flood bool) *nodeMetrics {
	if r == nil {
		return &noMetrics
	}
	if flood {
		return &nodeMetrics{
			proposals: r.Counter("flood_proposals"), retries: r.Counter("flood_retries"),
			retransmits: r.Counter("flood_retransmits"), superseded: r.Counter("flood_superseded"),
		}
	}
	return &nodeMetrics{
		proposals:    r.Counter("wpaxos_proposals"),
		retries:      r.Counter("wpaxos_retries"),
		nacks:        r.Counter("wpaxos_nacks"),
		retransmits:  r.Counter("wpaxos_retransmits"),
		treeRoots:    r.Gauge("wpaxos_tree_roots"),
		relayPending: r.Gauge("wpaxos_relay_pending"),
		seenProps:    r.Gauge("wpaxos_seen_props"),
	}
}

// Start implements amac.Algorithm.
func (nd *Node) Start(api amac.API) {
	nd.api = api
	nd.id = api.ID()
	nd.det.Init(api, nd.n, nd.mreg)
	if !nd.flood {
		nd.tr.tree.init(nd.id)
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
		nd.onResponse(c.Response)
	}
	if c.Relay != nil {
		nd.onFlooded(c.Relay)
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
		if nd.popFlood(&c.buf.relay) {
			c.Relay = &c.buf.relay
		}
		if !nd.flood {
			t := nd.tr
			if c.buf.search, ok = t.tree.pop(nd.det.Fired()); ok {
				c.Search = &c.buf.search
			}
			if c.buf.response, ok = t.popResp(); ok {
				c.Response = &c.buf.response
			}
		}
	}
	nd.det.NoteSend(nd.api.Now())
	nd.inflight = true
	nd.api.Broadcast(c)
}

// popResp removes the first relayable response (one whose next hop toward
// the proposer is known) and stamps its destination at send time.
func (t *treeTransport) popResp() (ResponseMsg, bool) {
	for i := range t.respQ {
		parent := t.tree.parentTo(t.respQ[i].Prop.Num.ID)
		if parent == amac.NoID {
			continue
		}
		r := t.respQ[i]
		r.Dest = parent
		t.respQ = append(t.respQ[:i], t.respQ[i+1:]...)
		return r, true
	}
	return ResponseMsg{}, false
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
	t := nd.tr
	t.tree.purge(nd.det.Omega())
	// OnLeaderChange (Algorithm 4): re-pin the tree queue.
	t.tree.prioritize(nd.det.Omega())
	// The fast-path response queue only ever holds material for the
	// current leader (Section 4.2.1 queue invariants); responses to
	// other proposers travel through the relay instead.
	t.maxLeaderNum = ProposalNum{}
	t.respQ = t.respQ[:0]
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
	t := nd.tr
	if !t.tree.receive(m, leader) {
		return
	}
	nd.met.treeRoots.Set(int64(len(t.tree.ents)))
	nd.det.Novel(nd.api.Now())
	// Only improvements of the distance to the *current leader* are
	// change events; see the package comment for why this reading of
	// Algorithm 3's "Omega_u or dist_u updated" is the one that yields
	// the paper's O(D*Fack) global stabilization time.
	if m.Root == nd.det.Omega() {
		t.routeSince = nd.api.Now()
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
	// through the relay.
	nd.enqueueProp(m)
	nd.respond(m)
}

// rise makes num the live number and clears what the relay holds for lower
// numbers (supersede). The flood transport has no refusals, so there a rise
// past the node's own round is how the proposer learns the round lost, and
// it retries; the tree transport waits for its fast path's refusals.
func (nd *Node) rise(num ProposalNum) {
	nd.live = num
	if nd.prop.maxTagSeen < num.Tag {
		nd.prop.maxTagSeen = num.Tag
	}
	nd.supersede()
	if nd.flood && nd.prop.phase != propIdle && num.ID != nd.id {
		nd.retry()
	}
}

// admit raises the live number to m's when m's is higher and does the
// relay's bookkeeping for it (admitFlood), then reports whether this node
// answers and relays m, and marks it seen. The flood transport admits only
// first sights for the live number; the tree transport admits every first
// sight, since its fast path carries refusals.
func (nd *Node) admit(m ProposerMsg) bool {
	if nd.live.Less(m.Num) {
		nd.rise(m.Num)
	}
	fresh := nd.admitFlood(m)
	if nd.flood {
		return fresh
	}
	return nd.markSeen(m.Proposition())
}

// findSeen returns p's position in seenProps, or the position it would be
// inserted at.
func (t *treeTransport) findSeen(p Proposition) (int, bool) {
	s := t.seenProps
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
	t := nd.tr
	i, found := t.findSeen(p)
	if !found {
		t.seenProps = slices.Insert(t.seenProps, i, p)
		nd.met.seenProps.Set(int64(len(t.seenProps)))
	}
	return !found
}

// noteLeaderNum updates the largest proposal number seen from the current
// leader and prunes the fast-path response queue accordingly (queue
// invariant (2)).
func (t *treeTransport) noteLeaderNum(num ProposalNum) {
	if t.maxLeaderNum.Less(num) {
		t.maxLeaderNum = num
		kept := t.respQ[:0]
		for _, r := range t.respQ {
			if !r.Prop.Num.Less(num) {
				kept = append(kept, r)
			}
		}
		t.respQ = kept
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

// respond runs the acceptor against a proposition and hands the answer on:
// the tree transport routes it toward the proposer when the fast path
// applies, and a positive one enters the relay under both.
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
	if !nd.flood {
		r.Count = 1
		if r.Positive {
			nd.audit.addGenerated(r.Prop)
		}
		if m.Num.ID == nd.id {
			// The proposer's own acceptor responds directly.
			nd.consumeResponse(r)
		} else if m.Num.ID == nd.det.Omega() {
			nd.tr.noteLeaderNum(m.Num)
			nd.enqueueResp(r)
		}
	}
	// Only a positive answer enters the relay: under the flood transport a
	// proposition for the live number is never below a promise, and the
	// tree transport's refusals travel on its fast path.
	if r.Positive {
		nd.routeFlood(m.Num, floodResp{acceptor: nd.id, prev: r.Prev, kind: m.Kind})
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
	t := nd.tr
	if r.Prop.Num.Less(t.maxLeaderNum) {
		return // queue invariant (2): stale proposition
	}
	t.noteLeaderNum(r.Prop.Num)
	for i := range t.respQ {
		q := &t.respQ[i]
		if q.Prop == r.Prop && q.Positive == r.Positive {
			q.Count += r.Count
			q.Prev = maxPrev(q.Prev, r.Prev)
			q.Committed = q.Committed.Max(r.Committed)
			return
		}
	}
	t.respQ = append(t.respQ, r)
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
	nd.originate(ProposerMsg{Kind: Prepare, Num: nd.prop.num})
}

// originate floods one of this node's own proposer messages and runs the
// local acceptor against it.
func (nd *Node) originate(m ProposerMsg) {
	nd.admit(m)
	if !nd.flood && nd.det.Omega() == nd.id {
		nd.tr.noteLeaderNum(m.Num)
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
		Promised: amac.Ballot(nd.acc.promised), MaxTag: nd.prop.maxTagSeen}
	if !nd.flood && nd.tr != nil {
		v.RouteSince = nd.tr.routeSince
	}
	if nd.api != nil {
		v.Omega, v.OmegaSince = nd.det.Omega(), nd.det.OmegaSince()
	}
	if p := nd.acc.accepted; p != nil {
		v.Accepted, v.AcceptedVal = amac.Ballot(p.Num), p.Val
	}
	return v
}

// WorkingSet returns the sizes of the node's three growing tables: the roots
// its tree service tracks, the responses pending in its relay's cycle and
// the propositions it has seen (the one never purged). Under the tree
// transport the wpaxos_tree_roots, wpaxos_relay_pending and
// wpaxos_seen_props gauges carry their high-water marks; a flood node
// reports zero roots and propositions.
func (nd *Node) WorkingSet() (treeRoots, relayPending, seenProps int) {
	if t := nd.tr; t != nil && !nd.flood {
		treeRoots, seenProps = len(t.tree.ents), len(t.seenProps)
	}
	return treeRoots, len(nd.fl.cycle), seenProps
}

var (
	_ amac.Algorithm = (*Node)(nil)
	_ amac.Inspector = (*Node)(nil)
)

// NewDetector forwards to omega.NewDetector for the benchmark module's
// detector probe.
func NewDetector(self amac.NodeID, n int) *omega.Detector { return omega.NewDetector(self, n) }
