package sim

import (
	"fmt"
	"math/rand"
	"slices"
)

// This file implements the message schedulers used throughout the paper's
// arguments and this repository's experiments. Every scheduler is
// deterministic given its construction parameters.
//
// Plans are positional (see Plan): slot i of p.Recv belongs to
// b.Neighbors[i], and slots past len(b.Neighbors) to the unreliable
// recipients. The engine hands every scheduler a pre-sized buffer filled
// with NoDelivery, so base schedulers only write the slots they deliver
// and wrapping schedulers mutate the filled buffer in place — the planning
// path performs no allocation.

// Synchronous is the paper's synchronous scheduler (Section 3.2): message
// behaviour proceeds in lock-step rounds of duration Round. All deliveries
// of a broadcast land at the next round boundary, and the ack arrives with
// them, so each broadcast/ack cycle takes exactly one round and
// Fack = Round.
type Synchronous struct {
	// Round is the lock-step round length; 0 means 1.
	Round int64
}

func (s Synchronous) round() int64 {
	if s.Round <= 0 {
		return 1
	}
	return s.Round
}

// Fack implements Scheduler.
func (s Synchronous) Fack() int64 { return s.round() }

// Plan implements Scheduler.
func (s Synchronous) Plan(b Broadcast, p *Plan) {
	r := s.round()
	// Next round boundary strictly after Now.
	at := (b.Now/r + 1) * r
	for i := range b.Neighbors {
		p.Recv[i] = at
	}
	p.Ack = at
}

// MaxDelay delays every delivery and ack to exactly Fack after the
// broadcast — the scheduler behind the Theorem 3.10 time lower bound.
type MaxDelay struct {
	F int64
}

// Fack implements Scheduler.
func (s MaxDelay) Fack() int64 {
	if s.F <= 0 {
		return 1
	}
	return s.F
}

// Plan implements Scheduler.
func (s MaxDelay) Plan(b Broadcast, p *Plan) {
	at := b.Now + s.Fack()
	for i := range b.Neighbors {
		p.Recv[i] = at
	}
	p.Ack = at
}

// Random delivers each message at an independent uniform time in
// [Now+1, Now+F] and acks at a uniform time between the last delivery and
// the deadline. It is the workhorse scheduler for correctness censuses.
type Random struct {
	F    int64
	Seed int64

	rng *rand.Rand
}

// NewRandom returns a Random scheduler with the given bound and seed.
func NewRandom(f, seed int64) *Random {
	if f <= 0 {
		panic(fmt.Sprintf("sim: Random scheduler needs F > 0, got %d", f))
	}
	return &Random{F: f, Seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Fack implements Scheduler.
func (s *Random) Fack() int64 { return s.F }

// Plan implements Scheduler.
func (s *Random) Plan(b Broadcast, p *Plan) {
	p.Ack = uniformTimes(s.rng, b.Now, s.F, p.Recv[:len(b.Neighbors)], false)
}

// uniformTimes is the one uniform planner (Random, Replay's fallback past
// a divergence, Schedule.JitterStep): each slot of recv gets a time drawn
// uniformly from (now, now+f], in slot order, and the returned ack is
// drawn between the latest of them and the deadline now+f. With
// deliveredOnly, slots holding NoDelivery are skipped and stay skipped —
// re-timing a recorded step keeps its coin outcomes. The rng call order is
// part of every recorded execution.
func uniformTimes(rng *rand.Rand, now, f int64, recv []int64, deliveredOnly bool) (ack int64) {
	latest := now + 1
	for i, old := range recv {
		if deliveredOnly && old == NoDelivery {
			continue
		}
		t := now + 1 + rng.Int63n(f)
		recv[i] = t
		if t > latest {
			latest = t
		}
	}
	ack = latest
	if room := now + f - latest; room > 0 {
		ack += rng.Int63n(room + 1)
	}
	return ack
}

// Gate wraps a base scheduler and silences a set of senders until a global
// time T: any broadcast a gated node issues before T has its deliveries and
// ack postponed to T plus the base scheduler's relative plan. This is the
// semi-synchronous scheduler of Sections 3.2 and 3.3 — the executions it
// produces are indistinguishable, for nodes outside the gated set, from
// executions in which the gated nodes' components are absent.
type Gate struct {
	Base Scheduler
	// Gated marks silenced senders by node index.
	Gated map[int]bool
	// Until is the global time at which gated senders become audible.
	Until int64
}

// Fack implements Scheduler: the bound covers the gate delay.
func (s Gate) Fack() int64 { return s.Until + s.Base.Fack() }

// Plan implements Scheduler.
func (s Gate) Plan(b Broadcast, p *Plan) {
	s.Base.Plan(b, p)
	if !s.Gated[b.Sender] || b.Now >= s.Until {
		return
	}
	// Shift the base plan's relative offsets past the gate.
	shift := s.Until - b.Now
	for i, t := range p.Recv {
		if t != NoDelivery {
			p.Recv[i] = t + shift
		}
	}
	p.Ack += shift
}

// SlowSubset wraps a base scheduler and multiplies the relative delays of
// broadcasts issued by the marked senders by Factor (capped at the declared
// bound). It exercises wPAXOS's majority-progress property: a slow minority
// must not slow decisions (Section 1, footnote on choosing PAXOS).
type SlowSubset struct {
	Base   Scheduler
	Slow   map[int]bool
	Factor int64
}

// Fack implements Scheduler.
func (s SlowSubset) Fack() int64 {
	f := s.Factor
	if f < 1 {
		f = 1
	}
	return s.Base.Fack() * f
}

// Plan implements Scheduler.
func (s SlowSubset) Plan(b Broadcast, p *Plan) {
	s.Base.Plan(b, p)
	if !s.Slow[b.Sender] {
		return
	}
	f := s.Factor
	if f < 1 {
		f = 1
	}
	for i, t := range p.Recv {
		if t != NoDelivery {
			p.Recv[i] = b.Now + (t-b.Now)*f
		}
	}
	p.Ack = b.Now + (p.Ack-b.Now)*f
}

// EdgeOrder delivers each broadcast's messages one neighbor at a time in a
// fixed node-index order with unit gaps, acking last — an adversarial
// serialization that stresses algorithms relying on delivery order. The
// declared bound must cover the widest neighborhood: MaxDegree+1 slots.
//
// EdgeOrder is used by pointer so its sort scratch persists across
// broadcasts.
type EdgeOrder struct {
	// MaxDegree must be at least the maximum degree in the topology.
	MaxDegree int
	// Descending reverses the serialization order.
	Descending bool

	scratch []int32
}

// Fack implements Scheduler.
func (s *EdgeOrder) Fack() int64 { return int64(s.MaxDegree) + 1 }

// Plan implements Scheduler. A neighbor's slot is its rank in the
// node-index serialization, computed by sorting a reusable permutation of
// slot indices by (neighbor, slot). The composite key is unique —
// duplicate neighbor entries tie-break on slot — so an unstable sort is
// deterministic (TestEdgeOrderSortMatchesQuadratic checks the positions
// against a direct rank count on every registered family).
func (s *EdgeOrder) Plan(b Broadcast, p *Plan) {
	d := len(b.Neighbors)
	if d > s.MaxDegree {
		panic(fmt.Sprintf("sim: EdgeOrder.MaxDegree=%d below degree %d of node %d", s.MaxDegree, d, b.Sender))
	}
	if cap(s.scratch) < d {
		s.scratch = make([]int32, d)
	}
	perm := s.scratch[:d]
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(x, y int32) int {
		vx, vy := b.Neighbors[x], b.Neighbors[y]
		if vx != vy {
			if vx < vy {
				return -1
			}
			return 1
		}
		return int(x) - int(y)
	})
	for rank, i := range perm {
		if s.Descending {
			p.Recv[i] = b.Now + int64(d-1-rank) + 1
		} else {
			p.Recv[i] = b.Now + int64(rank) + 1
		}
	}
	p.Ack = b.Now + int64(d) + 1
}

// Lossy adapts any base scheduler to dual-graph (unreliable link)
// configurations: the base scheduler plans the reliable deliveries, and
// Lossy independently delivers over each unreliable edge with probability
// P, at a uniform time no later than the ack. Use it as the outermost
// wrapper.
type Lossy struct {
	Base Scheduler
	P    float64

	rng *rand.Rand
}

// NewLossy returns a Lossy scheduler with delivery probability p over
// unreliable edges.
func NewLossy(base Scheduler, p float64, seed int64) *Lossy {
	if base == nil {
		panic("sim: Lossy needs a base scheduler")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("sim: invalid unreliable delivery probability %v", p))
	}
	return &Lossy{Base: base, P: p, rng: rand.New(rand.NewSource(seed))}
}

// Fack implements Scheduler.
func (s *Lossy) Fack() int64 { return s.Base.Fack() }

// Plan implements Scheduler.
func (s *Lossy) Plan(b Broadcast, p *Plan) {
	s.Base.Plan(b, p)
	flipUnreliable(s.rng, s.P, b, p)
}

// flipUnreliable is the one coin planner (Lossy, Replay's fallback): over
// a plan whose reliable slots and ack are final, each unreliable edge
// delivers with probability prob, at a uniform time no later than the ack
// — one coin per edge in slot order, a winner's time drawn right after it.
func flipUnreliable(rng *rand.Rand, prob float64, b Broadcast, p *Plan) {
	nr := len(b.Neighbors)
	for i := range b.Unreliable {
		if rng.Float64() >= prob {
			continue
		}
		span := p.Ack - b.Now
		if span < 1 {
			span = 1
		}
		t := b.Now + 1 + rng.Int63n(span)
		if t > p.Ack {
			t = p.Ack
		}
		p.Recv[nr+i] = t
	}
}

var (
	_ Scheduler = Synchronous{}
	_ Scheduler = MaxDelay{}
	_ Scheduler = (*Random)(nil)
	_ Scheduler = Gate{}
	_ Scheduler = SlowSubset{}
	_ Scheduler = (*EdgeOrder)(nil)
	_ Scheduler = (*Lossy)(nil)
)
