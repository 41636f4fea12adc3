package wpaxos

import (
	"sort"
	"sync"

	"github.com/absmac/absmac/internal/amac"
)

// This file implements the PAXOS roles (Section 4.2.1): every node plays
// both proposer and acceptor. The learner role is collapsed into the
// proposer, as in the paper: a proposer that counts a majority of accepts
// decides and floods the decision.

// proposerPhase tracks the proposer's progress on its current number.
type proposerPhase int

const (
	propIdle      proposerPhase = iota // no proposition outstanding
	propPreparing                      // counting prepare responses
	propProposing                      // counting propose responses
)

// proposerState is the proposer half of a node.
type proposerState struct {
	phase proposerPhase
	// num is the current proposal number (zero when idle).
	num ProposalNum
	// maxTagSeen is the largest tag observed anywhere; new proposals use
	// maxTagSeen+1 (Section 4.2.1).
	maxTagSeen int64
	// triesLeft limits the proposer to two proposal numbers per change
	// notification.
	triesLeft int
	// acks/nacks count aggregated responses for the current proposition.
	acks, nacks int64
	// bestPrev is the highest-numbered previous proposal reported by
	// positive prepare responses; nil means none, in which case the
	// proposer is free to propose its own input.
	bestPrev *Proposal
	// value is the value being proposed in the propose phase.
	value amac.Value
}

// acceptorState is the acceptor half of a node.
type acceptorState struct {
	// promised is the highest prepare number committed to.
	promised ProposalNum
	// accepted is the highest-numbered accepted proposal, if any. It
	// points into slab, which holds every proposal accepted in the run and
	// only appends: a pointer handed out stays valid for the run, since an
	// array that append outgrows stays alive for the pointers into it.
	// arm empties the slab, so across runs only nodes re-armed together
	// reference it, as with the recycled *Combined.
	accepted *Proposal
	slab     []Proposal
}

// handlePrepare applies a prepare message and returns the response
// polarity plus the data the response carries.
func (a *acceptorState) handlePrepare(num ProposalNum) (positive bool, prev *Proposal, committed ProposalNum) {
	if a.promised.Less(num) {
		a.promised = num
		return true, a.accepted, ProposalNum{}
	}
	return false, nil, a.promised
}

// handlePropose applies a propose message and returns the response
// polarity plus the committed number carried by rejections.
func (a *acceptorState) handlePropose(num ProposalNum, val amac.Value) (positive bool, committed ProposalNum) {
	// Standard PAXOS: accept unless committed to a strictly larger
	// number.
	if num.Less(a.promised) {
		return false, a.promised
	}
	a.promised = num
	a.slab = append(a.slab, Proposal{Num: num, Val: val})
	a.accepted = &a.slab[len(a.slab)-1]
	return true, ProposalNum{}
}

// CountAudit instruments the Lemma 4.2 invariant c(p) <= a(p): for every
// proposition, the total affirmative count received by the proposer never
// exceeds the number of acceptors that generated an affirmative response.
// One CountAudit is shared by all nodes of a run; it is safe for
// concurrent use, since the simulator's bucket phases run handlers of
// different nodes at once.
type CountAudit struct {
	mu        sync.Mutex
	generated map[Proposition]int64 // a(p)
	counted   map[Proposition]int64 // c(p)
}

// NewCountAudit returns an empty audit.
func NewCountAudit() *CountAudit {
	return &CountAudit{
		generated: make(map[Proposition]int64),
		counted:   make(map[Proposition]int64),
	}
}

func (c *CountAudit) addGenerated(p Proposition) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.generated[p]++
}

func (c *CountAudit) addCounted(p Proposition, k int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counted[p] += k
}

// Violations returns a deterministic list of propositions for which the
// proposer counted more affirmatives than acceptors generated. An empty
// result certifies Lemma 4.2's invariant for the run.
func (c *CountAudit) Violations() []Proposition {
	c.mu.Lock()
	defer c.mu.Unlock()
	var bad []Proposition
	for p, counted := range c.counted {
		if counted > c.generated[p] {
			bad = append(bad, p)
		}
	}
	sort.Slice(bad, func(i, j int) bool {
		if bad[i].Num != bad[j].Num {
			return bad[i].Num.Less(bad[j].Num)
		}
		return bad[i].Kind < bad[j].Kind
	})
	return bad
}

// Propositions returns the number of distinct propositions that received
// at least one affirmative response.
func (c *CountAudit) Propositions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.generated)
}
