// Package lowerbound turns the paper's impossibility proofs into
// executable machinery:
//
//   - an exhaustive explorer over the *valid step* schedules of Section 3.1
//     (the restricted scheduler class behind the FLP generalization of
//     Theorem 3.2), which classifies configurations by valency and finds
//     crash-induced non-termination witnesses;
//   - drivers for the Figure 1 (anonymous, Theorem 3.3) and Figure 2
//     (unknown n, Theorem 3.9) indistinguishability constructions, which
//     run a concrete algorithm of the forbidden class into an agreement
//     violation while control runs succeed;
//   - the Theorem 3.10 partition harness, which runs anonflood with too
//     few ack cycles, so it decides before floor(D/2)*Fack and pays for it.
package lowerbound

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/absmac/absmac/internal/amac"
)

// Step is one valid step in the Section 3.1 sense, applied to the clique
// execution model in which every node is always sending:
//
//   - a receive step of node u delivers u's current message to the
//     smallest-index non-crashed node that has not yet received it;
//   - an ack step of u (valid once every non-crashed node received u's
//     current message) completes u's broadcast and starts its next one;
//   - a crash step halts u forever (counted against the crash budget).
//
// Which of receive/ack applies to u is determined by the configuration, so
// a step is fully described by the acted-on node and the crash flag.
type Step struct {
	Node  int
	Crash bool
}

func (s Step) String() string {
	if s.Crash {
		return fmt.Sprintf("crash(%d)", s.Node)
	}
	return fmt.Sprintf("step(%d)", s.Node)
}

// Valency classifies the decisions reachable from a configuration via
// valid-step extensions within the explorer's depth budget.
//
// A subtlety inherited from FLP: valid-step schedules include unfair ones
// that starve a node forever, and those are equivalent to crashing it — an
// algorithm is not required to decide under them. The explorer therefore
// does not treat mere absence of decision along a schedule as a
// termination violation. The certificate it reports via Dead is stronger
// and fairness-proof: a reachable configuration in which every non-crashed
// node is quiescent (sending noops, with no buffered broadcast) and nobody
// has decided. From such a configuration no handler ever runs again, so no
// extension — however fair — can decide.
type Valency struct {
	// Reach0 and Reach1 report that some extension decides 0 / 1.
	Reach0, Reach1 bool
	// Dead reports that a quiescent undecided configuration is
	// reachable: a true termination violation.
	Dead bool
	// Truncated reports that the depth budget cut some branch, so the
	// classification may be incomplete.
	Truncated bool
}

// Bivalent reports whether both decisions are reachable.
func (v Valency) Bivalent() bool { return v.Reach0 && v.Reach1 }

// Univalent reports whether exactly one decision is reachable.
func (v Valency) Univalent() bool { return v.Reach0 != v.Reach1 }

func (v Valency) String() string {
	switch {
	case v.Bivalent():
		return "bivalent"
	case v.Reach0:
		return "0-valent"
	case v.Reach1:
		return "1-valent"
	case v.Dead:
		return "dead"
	default:
		return "undecided"
	}
}

// Explorer exhaustively explores valid-step schedules of an algorithm on a
// single-hop network, memoizing configurations by the per-node local
// histories that determine them. It supports "ack-driven" algorithms that
// issue broadcasts from Start and OnAck (the proofs' always-sending normal
// form); a broadcast issued from OnReceive is buffered and becomes the
// node's next message at its ack, and a second buffered broadcast is
// discarded, matching the model's in-flight discard rule.
type Explorer struct {
	// N is the clique size (>= 2).
	N int
	// Factory builds the algorithm under test.
	Factory amac.Factory
	// Inputs are the initial values, length N.
	Inputs []amac.Value
	// MaxCrashes bounds the number of crash steps the adversary may use
	// (Theorem 3.2 needs just 1).
	MaxCrashes int
	// MaxDepth bounds schedule length; 0 means DefaultMaxDepth.
	MaxDepth int

	memo    map[string]Valency
	onPath  map[string]bool
	visited int
}

// DefaultMaxDepth bounds exploration when Explorer.MaxDepth is zero.
const DefaultMaxDepth = 64

// Visited returns the number of distinct configurations explored since the
// memo was last reset.
func (e *Explorer) Visited() int { return e.visited }

func (e *Explorer) validate() {
	if len(e.Inputs) != e.N {
		panic(fmt.Sprintf("lowerbound: %d inputs for %d nodes", len(e.Inputs), e.N))
	}
	if e.N < 2 {
		panic("lowerbound: explorer needs at least 2 nodes")
	}
}

func (e *Explorer) reset() {
	e.memo = make(map[string]Valency)
	e.onPath = make(map[string]bool)
	e.visited = 0
}

// Valency classifies the configuration reached from the initial one by the
// given step prefix (nil means the initial configuration itself).
func (e *Explorer) Valency(prefix []Step) Valency {
	e.validate()
	e.reset()
	return e.explore(prefix)
}

func (e *Explorer) maxDepth() int {
	if e.MaxDepth <= 0 {
		return DefaultMaxDepth
	}
	return e.MaxDepth
}

func (e *Explorer) explore(prefix []Step) Valency {
	cfg := e.replay(prefix)
	if cfg.decidedValue != nil {
		if *cfg.decidedValue == 0 {
			return Valency{Reach0: true}
		}
		return Valency{Reach1: true}
	}
	if cfg.quiescent() {
		// Frozen forever: no handler will ever run again.
		return Valency{Dead: true}
	}
	fp := cfg.fingerprint()
	if v, ok := e.memo[fp]; ok {
		return v
	}
	if e.onPath[fp] {
		// A revisited non-quiescent configuration: the adversary can
		// loop here, but only by starving someone (otherwise local
		// histories would have grown); starvation is crash-equivalent,
		// so the loop contributes nothing to the classification.
		return Valency{}
	}
	if len(prefix) >= e.maxDepth() {
		return Valency{Truncated: true}
	}
	e.onPath[fp] = true
	e.visited++

	var v Valency
	for _, s := range cfg.validSteps(e.MaxCrashes) {
		sub := e.explore(append(append([]Step(nil), prefix...), s))
		v.Reach0 = v.Reach0 || sub.Reach0
		v.Reach1 = v.Reach1 || sub.Reach1
		v.Dead = v.Dead || sub.Dead
		v.Truncated = v.Truncated || sub.Truncated
	}

	delete(e.onPath, fp)
	e.memo[fp] = v
	return v
}

// FindBivalentInitial searches all 2^n input assignments for one whose
// initial configuration is bivalent, mirroring FLP's Lemma 2. It returns
// the inputs and true when found.
func FindBivalentInitial(n int, factory amac.Factory, maxCrashes, maxDepth int) ([]amac.Value, bool) {
	for mask := 0; mask < 1<<n; mask++ {
		inputs := make([]amac.Value, n)
		for i := range inputs {
			if mask&(1<<i) != 0 {
				inputs[i] = 1
			}
		}
		e := &Explorer{N: n, Factory: factory, Inputs: inputs, MaxCrashes: maxCrashes, MaxDepth: maxDepth}
		if e.Valency(nil).Bivalent() {
			return inputs, true
		}
	}
	return nil, false
}

// FindStallingSchedule searches for a schedule (with at most maxCrashes
// crash steps, at least one of them used) that reaches a quiescent
// undecided configuration among the non-crashed nodes — a concrete witness
// that the algorithm loses termination under crash failures (the
// executable face of Theorem 3.2). It returns the schedule and true when
// found.
func FindStallingSchedule(n int, factory amac.Factory, inputs []amac.Value, maxCrashes, maxDepth int) ([]Step, bool) {
	e := &Explorer{N: n, Factory: factory, Inputs: inputs, MaxCrashes: maxCrashes, MaxDepth: maxDepth}
	e.validate()
	seen := make(map[string]bool)
	var dfs func(prefix []Step) ([]Step, bool)
	dfs = func(prefix []Step) ([]Step, bool) {
		cfg := e.replay(prefix)
		if cfg.decidedValue != nil {
			return nil, false
		}
		if cfg.quiescent() && cfg.liveCount() > 0 {
			return prefix, true
		}
		fp := cfg.fingerprint()
		if seen[fp] {
			return nil, false
		}
		seen[fp] = true
		if len(prefix) >= e.maxDepth() {
			return nil, false
		}
		for _, s := range cfg.validSteps(e.MaxCrashes) {
			if found, ok := dfs(append(append([]Step(nil), prefix...), s)); ok {
				return found, true
			}
		}
		return nil, false
	}
	return dfs(nil)
}

// ---- The valid-step execution engine ----

// flpConfig is a configuration reached by replaying a schedule.
type flpConfig struct {
	n            int
	algs         []amac.Algorithm
	cur          []amac.Message // current outgoing message; nil = noop
	pending      []amac.Message // broadcast buffered for the next ack
	sent         []int          // non-noop broadcasts each node has started
	delivered    [][]bool
	crashed      []bool
	crashesUsed  int
	hist         []strings.Builder
	decidedValue *amac.Value
}

// flpAPI is the amac.API handed to algorithms under exploration.
type flpAPI struct {
	cfg  *flpConfig
	node int
}

func (a flpAPI) ID() amac.NodeID { return amac.NodeID(a.node + 1) }

// Now returns 0: the valid-step model has no global clock, and the
// algorithms explored here (single-hop) do not use timestamps.
func (a flpAPI) Now() int64 { return 0 }

func (a flpAPI) Broadcast(m amac.Message) bool {
	if a.cfg.pending[a.node] != nil {
		return false
	}
	a.cfg.pending[a.node] = m
	return true
}

func (a flpAPI) Decide(v amac.Value) {
	if a.cfg.decidedValue == nil {
		val := v
		a.cfg.decidedValue = &val
	}
}

// replay executes a schedule from the initial configuration. Invalid steps
// panic: the explorer only generates valid ones.
func (e *Explorer) replay(schedule []Step) *flpConfig {
	cfg := &flpConfig{
		n:         e.N,
		algs:      make([]amac.Algorithm, e.N),
		cur:       make([]amac.Message, e.N),
		pending:   make([]amac.Message, e.N),
		sent:      make([]int, e.N),
		delivered: make([][]bool, e.N),
		crashed:   make([]bool, e.N),
		hist:      make([]strings.Builder, e.N),
	}
	for i := 0; i < e.N; i++ {
		cfg.delivered[i] = make([]bool, e.N)
		cfg.algs[i] = e.Factory(amac.NodeConfig{ID: amac.NodeID(i + 1), Input: e.Inputs[i]})
		cfg.algs[i].Start(flpAPI{cfg: cfg, node: i})
		cfg.next(i)
	}
	for _, s := range schedule {
		cfg.apply(s)
	}
	return cfg
}

// quiescent reports whether every non-crashed node is sending noops with
// nothing buffered: no handler will ever run again, so the configuration
// is frozen under every extension.
func (c *flpConfig) quiescent() bool {
	for u := 0; u < c.n; u++ {
		if c.crashed[u] {
			continue
		}
		if c.cur[u] != nil || c.pending[u] != nil {
			return false
		}
	}
	return true
}

// liveCount returns the number of non-crashed nodes.
func (c *flpConfig) liveCount() int {
	live := 0
	for _, crashed := range c.crashed {
		if !crashed {
			live++
		}
	}
	return live
}

// nextReceiver returns the smallest-index non-crashed node (other than u)
// that has not received u's current message, or -1 when delivery is
// complete.
func (c *flpConfig) nextReceiver(u int) int {
	for v := 0; v < c.n; v++ {
		if v == u || c.crashed[v] || c.delivered[u][v] {
			continue
		}
		return v
	}
	return -1
}

// validSteps enumerates the valid steps from this configuration: one
// receive-or-ack step per non-crashed node, plus crash steps while the
// budget lasts.
func (c *flpConfig) validSteps(maxCrashes int) []Step {
	var steps []Step
	for u := 0; u < c.n; u++ {
		if c.crashed[u] {
			continue
		}
		steps = append(steps, Step{Node: u})
		if c.crashesUsed < maxCrashes {
			steps = append(steps, Step{Node: u, Crash: true})
		}
	}
	return steps
}

func (c *flpConfig) apply(s Step) {
	u := s.Node
	if c.crashed[u] {
		panic(fmt.Sprintf("lowerbound: step on crashed node %d", u))
	}
	if s.Crash {
		c.crashed[u] = true
		c.crashesUsed++
		return
	}
	if v := c.nextReceiver(u); v >= 0 {
		// Receive step: deliver u's current message to v. Noop
		// messages advance delivery bookkeeping without touching the
		// receiving algorithm.
		c.delivered[u][v] = true
		if m := c.cur[u]; m != nil {
			// The message is fixed by its sender and the sender's
			// broadcast index: the sender's history is in the same
			// fingerprint.
			h := &c.hist[v]
			h.WriteByte('r')
			h.WriteString(strconv.Itoa(u))
			h.WriteByte(':')
			h.WriteString(strconv.Itoa(c.sent[u]))
			h.WriteByte(';')
			c.algs[v].OnReceive(m)
		}
		return
	}
	// Ack step: every non-crashed node has u's current message; complete
	// the broadcast and start the next one (the buffered broadcast if
	// the algorithm issued one, else a noop).
	prev := c.cur[u]
	for v := range c.delivered[u] {
		c.delivered[u][v] = false
	}
	if prev != nil {
		c.hist[u].WriteString("a;")
		c.algs[u].OnAck(prev)
	}
	// Noop acks leave the algorithm untouched and are deliberately not
	// recorded: a quiescent configuration cycling through noop rounds
	// keeps a stable fingerprint, which is what lets the explorer detect
	// the cycle and certify non-termination.
	c.next(u)
}

// next starts u's next broadcast: the one buffered, else a noop.
func (c *flpConfig) next(u int) {
	c.cur[u], c.pending[u] = c.pending[u], nil
	if c.cur[u] != nil {
		c.sent[u]++
	}
}

// fingerprint canonically encodes the configuration: per-node local
// histories (which determine the deterministic algorithm states), crash
// flags, and delivery progress.
func (c *flpConfig) fingerprint() string {
	var b strings.Builder
	for i := 0; i < c.n; i++ {
		b.WriteByte('|')
		b.WriteString(strconv.Itoa(i))
		b.WriteByte(':')
		if c.crashed[i] {
			b.WriteString("X")
		}
		b.WriteString(c.hist[i].String())
		b.WriteString("/")
		for v := 0; v < c.n; v++ {
			if c.delivered[i][v] {
				b.WriteString(strconv.Itoa(v))
				b.WriteByte(',')
			}
		}
	}
	return b.String()
}

// BivalentExtension searches, breadth-first, for a finite extension of
// prefix whose last step is a valid step of node u and after which the
// configuration is still bivalent — the object Lemma 3.1 proves must exist
// for any algorithm that solves consensus with one crash failure. For a
// real, terminating algorithm (which, by Theorem 3.2, cannot be 1-crash
// tolerant) the search must eventually fail at some bivalent
// configuration: that failure point is precisely where the adversary's
// crash bites. It returns the full schedule (prefix + extension) and true
// when one is found within the depth budget.
func (e *Explorer) BivalentExtension(prefix []Step, u int) ([]Step, bool) {
	e.validate()
	if u < 0 || u >= e.N {
		panic(fmt.Sprintf("lowerbound: node %d out of range", u))
	}
	type item struct{ schedule []Step }
	queue := []item{{schedule: append([]Step(nil), prefix...)}}
	seen := map[string]bool{}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		cfg := e.replay(cur.schedule)
		if cfg.decidedValue != nil {
			continue
		}
		fp := cfg.fingerprint()
		if seen[fp] {
			continue
		}
		seen[fp] = true
		if len(cur.schedule) >= len(prefix)+e.maxDepth() {
			continue
		}
		for _, s := range cfg.validSteps(0) { // Lemma 3.1 is crash-free
			next := append(append([]Step(nil), cur.schedule...), s)
			if s.Node == u {
				if e.Valency(next).Bivalent() {
					return next, true
				}
			}
			queue = append(queue, item{schedule: next})
		}
	}
	return nil, false
}
