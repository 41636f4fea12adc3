package wpaxos

import (
	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/omega"
)

// SearchMsg is the tree building service's <search, id, h> message
// (Algorithm 4). Sender identifies the broadcasting node; a receiver that
// adopts the message sets parent[Root] to Sender.
type SearchMsg struct {
	Root   amac.NodeID
	Hops   int64
	Sender amac.NodeID
}

// ProposerMsg is a flooded proposer message: a prepare or propose
// (Section 4.2.1). Val is meaningful only for Propose.
type ProposerMsg struct {
	Kind PropKind
	Num  ProposalNum
	Val  amac.Value
}

// Proposition returns the proposition this message belongs to.
func (m ProposerMsg) Proposition() Proposition {
	return Proposition{Kind: m.Kind, Num: m.Num}
}

// ResponseMsg is an aggregated acceptor response traveling up the
// proposer-rooted tree (the tree transport's fast path). It is broadcast
// like everything else but addressed to a single next hop (Dest); other
// receivers ignore it.
type ResponseMsg struct {
	// Dest is the next hop (the relay's parent in the tree rooted at the
	// proposer).
	Dest amac.NodeID
	// Prop identifies the proposition being answered; Prop.Num.ID is the
	// proposer.
	Prop Proposition
	// Positive distinguishes acks from rejections.
	Positive bool
	// Count is the number of acceptor responses aggregated here.
	Count int64
	// Prev is the highest-numbered previously-accepted proposal among
	// the aggregated positive prepare responses, if any.
	Prev *Proposal
	// Committed is the largest committed proposal number among the
	// aggregated rejections (the paper's standard optimization: a
	// rejecting acceptor appends the number it is committed to).
	Committed ProposalNum
}

// RelayMsg is one acceptor's positive answer to one proposition, flooded
// by the relay (flood.go) that both transports run: every node that sees
// it while it can still be counted relays it, and any node counts it.
// Refusals are not relayed; the tree transport's fast path carries them.
type RelayMsg struct {
	// Prop is the proposition answered; Prop.Num.ID is the proposer.
	Prop Proposition
	// Prev is the acceptor's previously accepted proposal, reported to a
	// Prepare; nil when none.
	Prev *Proposal
	// Acceptor is the acceptor the response speaks for.
	Acceptor amac.NodeID
}

// DecideMsg floods a decision through the network.
type DecideMsg struct {
	Val amac.Value
}

// Combined is the broadcast service's multiplexed message (Algorithm 5):
// one message from each non-empty queue, sent as a single bounded-size
// broadcast. Nil fields mean the corresponding queue was empty. The sender
// fills the inline slots of buf and points the exported fields at them, so
// a broadcast allocates nothing (see NewFactory).
type Combined struct {
	Leader   *omega.LeaderMsg
	Change   *omega.ChangeMsg
	Search   *SearchMsg
	Proposer *ProposerMsg
	Response *ResponseMsg
	Relay    *RelayMsg
	Decide   *DecideMsg

	// buf backs the pointer fields above when pump assembles the message.
	// Receivers must treat a delivered Combined as immutable and copy what
	// they keep (they do): it is valid only until the sender's ack, after
	// which the sender refills all of it.
	buf struct {
		leader   omega.LeaderMsg
		change   omega.ChangeMsg
		search   SearchMsg
		proposer ProposerMsg
		response ResponseMsg
		relay    RelayMsg
		decide   DecideMsg
	}
}

// IDCount implements amac.Message. Each constituent carries a constant
// number of ids, so the combined message does too (the model's O(1)-ids
// restriction, audited by the simulator).
func (m *Combined) IDCount() int {
	c := 0
	if m.Leader != nil {
		c++
	}
	if m.Change != nil {
		c++
	}
	if m.Search != nil {
		c += 2 // root and sender
	}
	if m.Proposer != nil {
		c++ // the number's proposer id
	}
	if m.Response != nil {
		c += 2 // dest and proposer
		if m.Response.Prev != nil {
			c++
		}
		if !m.Response.Committed.IsZero() {
			c++
		}
	}
	if m.Relay != nil {
		c += 2 // acceptor and proposer
		if m.Relay.Prev != nil {
			c++
		}
	}
	return c
}

var _ amac.Message = (*Combined)(nil)
