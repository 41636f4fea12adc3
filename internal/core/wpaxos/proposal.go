// Package wpaxos implements the paper's wireless PAXOS (wPAXOS) algorithm
// for multihop topologies (Section 4.2): classic PAXOS proposer/acceptor
// logic connected to four model-specific support services — leader
// election, shortest-path-tree building, change notification, and a
// broadcast multiplexer — that together solve consensus in O(D*Fack) time
// in the abstract MAC layer model, assuming unique ids and knowledge of
// the network size n (both required by the paper's lower bounds).
//
// The services follow Figure 3 of the paper:
//
//   - Leader election (Algorithm 2) floods the maximum id; the local
//     estimate Omega_u stabilizes network-wide in O(D*Fack).
//   - Tree building (Algorithm 4) runs Bellman-Ford style iterative
//     refinement to grow, for every potential root, a shortest-path tree;
//     search messages for the current leader take priority, so the
//     eventual leader's tree completes O(D*Fack) after election
//     stabilizes. Parent pointers only ever point strictly downhill
//     (toward smaller distance), so routes never cycle.
//   - The change service (Algorithm 3) floods a timestamped notification
//     whenever a node's leader estimate or its distance to the current
//     leader improves, and tells the (self-believed) leader to generate a
//     new proposal; the final change in an execution marks the global
//     stabilization time (GST), after which the leader generates Theta(1)
//     further proposals and drives them to a decision.
//   - The broadcast service (Algorithm 5) multiplexes one message from
//     each non-empty service queue into a single bounded-size broadcast.
//
// Acceptor responses are unicast-over-broadcast toward the proposer along
// the proposer-rooted tree and aggregated hop by hop: same-polarity
// responses to the same proposition merge into a count, retaining only the
// highest-numbered previous proposal (for positive prepare responses) and
// the largest committed number (for rejections). Lemma 4.2's invariant —
// the proposer never counts more affirmative responses than acceptors
// generated — can be audited at runtime via CountAudit.
//
// # Two response transports
//
// Config.Flood changes how acceptor responses reach a counter, and nothing
// else. Both transports run the response relay (flood.go), which floods
// every acceptor's positive answer individually through the whole network
// and lets any node count it. The flood transport (registered as
// floodpaxos) has nothing else: the strawman of Section 4.2, Θ(n·Fack)
// near bottlenecks against the tree's O(D·Fack). The tree transport adds
// the aggregated fast path up Ω's tree, and the relay is its loss-proof
// fallback: a majority heard either way decides, the two tallies never
// summed. Ω, the proposer lifecycle, the acceptor, the proposition and
// decide floods, the relay and the broadcast multiplexer are the same code
// under both, so experiment E7 compares the fast path and nothing else.
//
// # Per-node state and the n² budget
//
// Theorem 4.6 has wPAXOS decide in O(D·Fack) — long before a node has
// heard from all n peers — and routes every aggregated response up one
// tree, the one rooted at the receiver's current leader estimate. A node
// therefore stores and relays only what can still be used; n nodes that
// each remember every id they hear of are the n² this section is named
// after. The contract:
//
//   - What is kept. The tree service tracks (parent, dist, pending) for
//     the node itself and for the roots that can be its leader estimate —
//     a short slice sorted by root, a handful of entries. The relay keeps
//     the responses to the live number it has yet to pass on (rule 2).
//     Every other set a delivery consults is a sorted slice with a
//     written-out binary search: as omega.IDSet the detector's suspects
//     and off-bitset members and the relay's two far sets, and under
//     Node.findSeen the propositions seen, sorted by (number, kind) — the
//     one table that is never purged, a few dozen entries a node at
//     n = 4096. A Go map lookup is four dependent loads and at this scale
//     each one misses the cache; there is no map in a node
//     (TestNoMapsOnTheDeliveryPath; the opt-in CountAudit, shared by a
//     run, keeps its two), so there is no iteration order for detlint to
//     police either. Keys are arbitrary NodeIDs — sparse, shuffled or
//     negative ids take the same path as 1..n. The wpaxos_tree_roots,
//     wpaxos_relay_pending and wpaxos_seen_props gauges are the largest
//     of each table any node held (flood_relay_pending the relay's under
//     the flood transport); Node.WorkingSet reads one node's.
//   - What is sent. The outbound queues are value slots with presence
//     flags, and a broadcast is one *Combined whose exported pointer
//     fields point into its own inline slots. A delivered *Combined is
//     immutable, and receivers copy what they keep; it is valid until the
//     sender's ack, after which the sender — who owns exactly one message,
//     one broadcast being in flight at a time — refills it, so neither
//     sending nor receiving allocates in steady state.
//   - What a node is made of: the shared fields, the Ω detector by value,
//     the relay and the state of the tree transport if its run uses it.
//     The relay is inline; the tree transport's tables sit behind one
//     pointer (Node.tr), and a flood node has none. A fresh tree node is
//     allocated with its 144-byte tree state beside it (treeNode, 848 B in
//     the 896-byte size class), so a delivery finds both in neighbouring
//     cache lines; a flood node re-armed for a tree run allocates the tree
//     state then.
//     The metric handles are one set per run, shared by its nodes, and a
//     run without metrics shares a package-level zero set. A relay entry
//     keeps an acceptor, its previous proposal and a kind — no proposal
//     number, since every entry answers the live number and pump stamps it
//     on the way out — so it is 24 B. A flood node is 704 B (the 704-byte
//     size class), with the acceptor's slab header in what field padding
//     took before; one node carrying both transports' fields and its own
//     handles was 1 056 B (the 1 152-byte class). TestNodeLayout pins the
//     sizes.
//   - Rule 1, trees: a root is tracked only while it can be this node's
//     leader estimate. A <search> for a root below Ω, or for a suspected
//     root, is dropped before any lookup and is not novel to the detector
//     (without a suspicion Ω only rises, so such a root is never routed
//     toward); whenever Ω moves, the roots below it other than the node
//     itself leave the table, the idle cycle and the pending queue.
//     Suspected roots above Ω stay, frozen: a wrap may re-promote them,
//     and a falsely suspected leader that never fired would not
//     re-advertise its own tree.
//   - Rule 2, the relay: a response is stored and relayed only while it
//     answers a proposition for the live number, the highest proposal
//     number this node has seen (flood.go's relay invariant). A rise of
//     that number clears the relay, a Propose retires the Prepare
//     responses of its number, and the rest is dropped on arrival, so a
//     node holds at most 2n responses and in practice tens.
//   - Acceptors must not forget their promises (weave's ipam/paxos):
//     promised and accepted live in acceptorState and are never pruned.
//     What rules 1 and 2 drop is routing state and other nodes'
//     responses, both of which the network re-offers.
//   - Rule 3, re-advertisement waits for a suspicion. Improvements are
//     flooded once, pending-first, and over reliable edges that reaches
//     every neighbor. The idle round-robin over the tracked roots (self
//     included) is anti-entropy that runs only once this node's own
//     detector has fired: a root ignored under rule 1 can only matter
//     after a suspicion, and after one the fired nodes re-offer what they
//     hold so the successor's tree forms over the region that demoted.
//     This is observed, not configured, and it is load-bearing: an
//     always-on cycle over {self, Ω} re-offers the leader's tree every
//     other broadcast, lossy overlay edges then hand nodes
//     shorter-but-lossy parents late, and each adoption is a change event
//     that restarts the proposal (TestWPaxosLossyOverlayDecideTime). A
//     node that has not fired neither tracks nor relays the successor's
//     tree, exactly as it refuses to route the successor's responses on
//     the fast path (queue invariant (1) of Section 4.2.1).
//   - Pointer validity: the tree service's entry pointers are valid
//     until its next receive or purge. Callers use them at once.
//   - The n-sized per-node structures are two. The first is the Ω
//     detector's member set, a bitset (n/64+1 words: 520 B per node, 2 MB
//     in total at n = 4096) for ids in [0, 64·words) and an omega.IDSet
//     for any other id; read in id order it is the rotation order, and the
//     gossip walk picks its k-th member by popcount. Learning a member is a
//     bit test and a bit set, with no allocation. The detector is embedded
//     in the node by value, so a delivery does not chase a pointer to
//     reach it. The second is the relay's heard table, under both
//     transports: two bits per id in [0, n] (n/4 bytes, 1 KB at
//     n = 4096), packed because a byte per id on tree nodes would add
//     half again to decide_expander4096's live heap; ids outside that
//     range go to the two far sets.
//   - The tree service's pending queue holds root ids, one per root with
//     an unsent improvement; the message is rebuilt from the table at pop
//     time (an improvement that arrives before the previous one went out
//     dominates it, so the table always describes the pending message).
//     The queue is head-indexed over a reused backing array. Invariant:
//     if the current leader is pending it is at the head — every change
//     of the leader estimate goes through purge and prioritize, other
//     roots are only appended behind it, pop removes the head — so
//     updateQ re-pins only when the root it enqueued is the leader. The
//     map-based service that tracked every root lives on as the oracle of
//     a differential test that drives receive, purge, prioritize and pop
//     through both and checks the invariant after every call.
//   - The proposer flood remembers the last proposition it looked up:
//     the flood queue is sticky, so nearly two in three deliveries repeat
//     it and skip the search of the seen set.
//   - Across runs nothing is rebuilt. Engine.Reset hands each slot's node
//     back to NewFactory (amac.NodeConfig.Prev), which re-arms it in
//     place: every field as a fresh node has it, while the struct, its
//     *Combined, the detector's bitset and sets, the tree transport's
//     state and every table keep their storage. One rule keeps it: a
//     table keeps its storage whatever the last run left in it, up to a
//     bound the configuration sets (amac.ReuseUpTo), so no slot ratchets
//     to the largest run it served. The tree service's entries and
//     queue, which purge and pop drain, respQ, which Ω changes and leader
//     numbers prune, seenProps and the acceptor's slab of accepted
//     proposals keep up to keepCap(n), eight slots per bit of n; a flood
//     run leaves the tree tables as the last tree run left them. The
//     relay's cycle is allocated at relayCap, measured from the largest
//     cycles the bench cells fill, and kept at it, so a warm node holds
//     what a fresh one does. The detector's bitset and the heard table,
//     whose size n fixes, are kept while they fit (amac.ReuseSized). On
//     decide_flood128 a warm op allocates almost nothing (0.3 MB while
//     the cycles were kept only when half full); on decide_expander4096
//     about 0.13 MB (3.6 MB while the tree tables were kept only when
//     half full, 42 MB before nodes were re-armed), every execution
//     unchanged (TestRecycledNodesMatchFresh, TestRearmKeepsEmptiedTables).
//
// Dense 0..n-1 slices for dist and parent — the obvious
// alternative when ids are dense — stay rejected on arithmetic (8 B ×
// 4096² is 128 MB for dist and parent alone, and they would need a second
// path for sparse ids). Measurements, before and after each change to
// this contract, are in CHANGES.md.
package wpaxos

import (
	"fmt"

	"github.com/absmac/absmac/internal/amac"
)

// ProposalNum is a PAXOS proposal number: a tag plus the proposing node's
// id, compared lexicographically (Section 4.2.1). The zero value is below
// every real proposal number and means "none".
type ProposalNum struct {
	Tag int64
	ID  amac.NodeID
}

// IsZero reports whether the number is the "none" sentinel.
func (p ProposalNum) IsZero() bool { return p.Tag == 0 && p.ID == 0 }

// Less orders proposal numbers lexicographically.
func (p ProposalNum) Less(q ProposalNum) bool {
	if p.Tag != q.Tag {
		return p.Tag < q.Tag
	}
	return p.ID < q.ID
}

// Max returns the larger of p and q.
func (p ProposalNum) Max(q ProposalNum) ProposalNum {
	if p.Less(q) {
		return q
	}
	return p
}

func (p ProposalNum) String() string {
	return fmt.Sprintf("(%d,%d)", p.Tag, p.ID)
}

// Proposal couples a proposal number with a value.
type Proposal struct {
	Num ProposalNum
	Val amac.Value
}

// maxPrev returns the proposal with the larger number, treating nil as
// "none". Used when aggregating previous proposals in responses.
func maxPrev(a, b *Proposal) *Proposal {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.Num.Less(b.Num):
		return b
	default:
		return a
	}
}

// PropKind distinguishes the two proposer message kinds.
type PropKind int

// Proposer message kinds.
const (
	Prepare PropKind = iota + 1
	Propose
)

func (k PropKind) String() string {
	switch k {
	case Prepare:
		return "prepare"
	case Propose:
		return "propose"
	default:
		return fmt.Sprintf("PropKind(%d)", int(k))
	}
}

// Proposition identifies one proposition in the paper's sense: a proposer,
// a message kind, and a proposal number. It keys response aggregation and
// the Lemma 4.2 audit.
type Proposition struct {
	Kind PropKind
	Num  ProposalNum
}

func (p Proposition) String() string {
	return fmt.Sprintf("%v%v", p.Kind, p.Num)
}
