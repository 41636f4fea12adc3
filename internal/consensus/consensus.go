// Package consensus defines the binary consensus problem from the paper
// (Section 2) and provides checkers that validate executions against its
// three properties:
//
//	agreement:   no two surviving nodes decide different values;
//	validity:    a surviving node's decision was some node's initial value;
//	termination: every non-faulty node eventually decides.
//
// All three properties are judged over survivors — crash-failure consensus
// places no obligation on nodes the adversary kills, so a node that
// decided and later crashed neither constrains nor violates agreement (the
// non-uniform variant of the problem, matching the paper's crash model).
// The report still counts the crashed nodes so fault-injected sweeps can
// aggregate fault statistics.
//
// The checkers consume simulator results. The package additionally
// provides an anonymity auditor used by the Section 3.2 experiments to
// certify that an algorithm claimed to be anonymous never reads its node
// id.
package consensus

import (
	"fmt"
	"sync/atomic"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/sim"
)

// Report is the outcome of checking one execution.
type Report struct {
	// Agreement, Validity and Termination report whether each property
	// held. Termination is meaningful only for runs that were given the
	// chance to finish (quiescent or decided runs).
	Agreement   bool
	Validity    bool
	Termination bool
	// Value is the agreed value when Agreement holds and at least one
	// surviving node decided.
	Value amac.Value
	// SomeoneDecided reports whether any surviving node decided at all.
	SomeoneDecided bool
	// Crashed counts the crashed nodes (the run's fault load).
	Crashed int
	// SurvivorDecideTime is the latest decision time among surviving
	// deciders — the fault-adjusted decision latency — or -1 when no
	// survivor decided. It differs from sim.Result.MaxDecideTime when a
	// node decided and then crashed.
	SurvivorDecideTime int64
	// Errors describes each violated property.
	Errors []string
}

// OK reports whether all three properties held and the execution raised no
// substrate violations.
func (r *Report) OK() bool {
	return r.Agreement && r.Validity && r.Termination && len(r.Errors) == 0
}

// Check validates a simulator result against the consensus properties for
// the given inputs (which must be the inputs the run was configured with).
func Check(inputs []amac.Value, res *sim.Result) *Report {
	rep := &Report{Agreement: true, Validity: true, Termination: true, SurvivorDecideTime: -1}
	if len(inputs) != len(res.Decided) {
		rep.Errors = append(rep.Errors, fmt.Sprintf("inputs/result size mismatch: %d vs %d", len(inputs), len(res.Decided)))
		rep.Agreement, rep.Validity, rep.Termination = false, false, false
		return rep
	}

	valid := make(map[amac.Value]bool, 2)
	for _, v := range inputs {
		valid[v] = true
	}

	first := true
	for i, decided := range res.Decided {
		if res.Crashed[i] {
			// Crashed nodes carry no obligations: their decisions (if
			// any) are judged by nobody, and termination exempts them.
			rep.Crashed++
			continue
		}
		if !decided {
			rep.Termination = false
			rep.Errors = append(rep.Errors, fmt.Sprintf("termination: non-faulty node %d never decided", i))
			continue
		}
		rep.SomeoneDecided = true
		if res.DecideTime[i] > rep.SurvivorDecideTime {
			rep.SurvivorDecideTime = res.DecideTime[i]
		}
		v := res.Decision[i]
		if !valid[v] {
			rep.Validity = false
			rep.Errors = append(rep.Errors, fmt.Sprintf("validity: node %d decided %d, which no node proposed", i, v))
		}
		if first {
			rep.Value = v
			first = false
		} else if v != rep.Value {
			rep.Agreement = false
			rep.Errors = append(rep.Errors, fmt.Sprintf("agreement: node %d decided %d, conflicting with %d", i, v, rep.Value))
		}
	}

	for _, viol := range res.Violations {
		rep.Errors = append(rep.Errors, "substrate violation: "+viol.String())
	}
	return rep
}

// anonAPI wraps an amac.API and records id reads.
type anonAPI struct {
	amac.API
	reads *atomic.Int64
}

func (a anonAPI) ID() amac.NodeID {
	a.reads.Add(1)
	return a.API.ID()
}

// anonAlg defers wrapping until Start, where the API becomes available.
type anonAlg struct {
	inner amac.Algorithm
	reads *atomic.Int64
}

func (a *anonAlg) Start(api amac.API)       { a.inner.Start(anonAPI{API: api, reads: a.reads}) }
func (a *anonAlg) OnReceive(m amac.Message) { a.inner.OnReceive(m) }
func (a *anonAlg) OnAck(m amac.Message)     { a.inner.OnAck(m) }

// AnonymityAudit wraps a factory so that every id read through the API is
// counted. The returned counter can be inspected after the run: a truly
// anonymous algorithm (Section 3.2) leaves it at zero. Every node of a run
// shares it, so it is atomic: handlers of different nodes may run
// concurrently (amac.Algorithm).
func AnonymityAudit(f amac.Factory) (amac.Factory, *atomic.Int64) {
	reads := new(atomic.Int64)
	wrapped := func(cfg amac.NodeConfig) amac.Algorithm {
		// Hide the id from the constructor too: anonymous algorithms
		// must not see it even at build time.
		cfg.ID = amac.NoID
		return &anonAlg{inner: f(cfg), reads: reads}
	}
	return wrapped, reads
}
