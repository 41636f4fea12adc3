package lowerbound

import (
	"fmt"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/baseline/anonflood"
	"github.com/absmac/absmac/internal/baseline/gatherall"
	"github.com/absmac/absmac/internal/baseline/waitall"
	"github.com/absmac/absmac/internal/consensus"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/sim"
)

// This file drives the paper's two indistinguishability constructions as
// concrete counterexample executions (experiments E2 and E3). An
// impossibility theorem cannot be "run", but its adversarial construction
// can: we instantiate the networks, play the constructions' schedulers,
// and watch a natural algorithm of the forbidden class violate agreement —
// while control runs (the forbidden assumption restored, or the
// construction's premise removed) succeed.

// AnonResult reports one run of the Theorem 3.3 construction.
type AnonResult struct {
	// Fig is the instantiated Figure 1 pair of networks.
	Fig *graph.Figure1
	// Rounds is the round budget handed to the anonymous algorithm,
	// derived from a diameter bound valid for both networks.
	Rounds int
	// ControlOK reports that the algorithm solved consensus on network B
	// under the synchronous scheduler (Lemma 3.5's premise).
	ControlOK bool
	// ViolationInA reports that the same algorithm, same parameters,
	// violated agreement on network A under the Section 3.2 scheduler
	// (bridge node silenced until both gadgets decide).
	ViolationInA bool
	// IDReads counts id reads observed by the anonymity audit across all
	// runs; it must be zero for the construction to apply.
	IDReads int
	// Decisions maps a few salient network-A nodes to their decisions.
	Gadget0Decision, Gadget1Decision amac.Value
}

// RunAnonImpossibility executes the Theorem 3.3 construction for an even
// diameter D >= 6 and minimum size n.
func RunAnonImpossibility(D, n int) (*AnonResult, error) {
	fig := graph.BuildFigure1(D, n)
	if err := fig.VerifyCoverProperty(); err != nil {
		return nil, fmt.Errorf("lowerbound: cover property: %w", err)
	}
	diamBound := fig.DiamA
	if fig.DiamB > diamBound {
		diamBound = fig.DiamB
	}
	rounds := anonflood.RoundsForDiameter(diamBound)
	res := &AnonResult{Fig: fig, Rounds: rounds}

	totalReads := 0

	// Control: network B under the synchronous scheduler, with a mixed
	// input assignment; the anonymous algorithm must solve consensus.
	{
		inputs := make([]amac.Value, fig.N)
		for i := range inputs {
			inputs[i] = amac.Value(i % 2)
		}
		factory, reads := consensus.AnonymityAudit(anonflood.NewFactory(rounds))
		out := sim.Run(sim.Config{
			Graph:           fig.B,
			Inputs:          inputs,
			Factory:         factory,
			Scheduler:       sim.Synchronous{},
			StopWhenDecided: true,
		})
		rep := consensus.Check(inputs, out)
		res.ControlOK = rep.OK()
		totalReads += *reads
	}

	// Counterexample: network A, gadget copy 0 starts with 0, gadget
	// copy 1 with 1, bridge and clique with 0; the bridge node q is
	// silenced until both gadgets have exhausted their round budgets.
	{
		inputs := make([]amac.Value, fig.N)
		for _, u := range fig.AGadget[1] {
			inputs[u] = 1
		}
		factory, reads := consensus.AnonymityAudit(anonflood.NewFactory(rounds))
		gate := sim.Gate{
			Base:  sim.Synchronous{},
			Gated: map[int]bool{fig.Q: true},
			Until: int64(rounds) + 2,
		}
		out := sim.Run(sim.Config{
			Graph:           fig.A,
			Inputs:          inputs,
			Factory:         factory,
			Scheduler:       gate,
			StopWhenDecided: true,
		})
		rep := consensus.Check(inputs, out)
		res.ViolationInA = !rep.Agreement
		totalReads += *reads
		g0 := fig.AGadget[0][fig.Gadget.C()]
		g1 := fig.AGadget[1][fig.Gadget.C()]
		if out.Decided[g0] {
			res.Gadget0Decision = out.Decision[g0]
		}
		if out.Decided[g1] {
			res.Gadget1Decision = out.Decision[g1]
		}
	}

	res.IDReads = totalReads
	return res, nil
}

// SizeResult reports one run of the Theorem 3.9 construction.
type SizeResult struct {
	// KD is the instantiated Figure 2 network.
	KD *graph.KDNetwork
	// Rounds is the round budget handed to the n-oblivious algorithm.
	Rounds int
	// ControlLineOK reports that the algorithm solves consensus on the
	// standalone line L_D under the synchronous scheduler (Lemma 3.8).
	ControlLineOK bool
	// ViolationInKD reports the split-brain on K_D under the
	// semi-synchronous scheduler (hub silenced).
	ViolationInKD bool
	// ControlWithNOK reports that gatherall — identical setting but
	// knowing n — solves consensus on K_D under the same scheduler.
	ControlWithNOK bool
	// L1Decision and L2Decision are the partitioned decisions.
	L1Decision, L2Decision amac.Value
}

// RunSizeImpossibility executes the Theorem 3.9 construction for D >= 2.
func RunSizeImpossibility(D int) (*SizeResult, error) {
	kd := graph.BuildKD(D)
	rounds := waitall.RoundsForDiameter(D)
	res := &SizeResult{KD: kd, Rounds: rounds}

	// Control 1: the standalone line L_D (the alpha executions of
	// Lemma 3.8) — correct without knowing n.
	{
		line := graph.Line(D + 1)
		inputs := make([]amac.Value, D+1)
		for i := range inputs {
			inputs[i] = amac.Value(i % 2)
		}
		out := sim.Run(sim.Config{
			Graph:           line,
			Inputs:          inputs,
			Factory:         waitall.NewFactory(rounds),
			Scheduler:       sim.Synchronous{},
			StopWhenDecided: true,
		})
		res.ControlLineOK = consensus.Check(inputs, out).OK()
	}

	inputs := make([]amac.Value, kd.G.N())
	for _, u := range kd.L2 {
		inputs[u] = 1
	}
	gate := sim.Gate{
		Base:  sim.Synchronous{},
		Gated: map[int]bool{kd.Hub: true},
		Until: int64(rounds) + 2,
	}

	// Counterexample: K_D with the hub silenced until both lines have
	// decided; L1 (all zeros) and L2 (all ones) each behave exactly as
	// they would alone.
	{
		out := sim.Run(sim.Config{
			Graph:           kd.G,
			Inputs:          inputs,
			Factory:         waitall.NewFactory(rounds),
			Scheduler:       gate,
			StopWhenDecided: true,
		})
		rep := consensus.Check(inputs, out)
		res.ViolationInKD = !rep.Agreement
		if out.Decided[kd.L1[0]] {
			res.L1Decision = out.Decision[kd.L1[0]]
		}
		if out.Decided[kd.L2[0]] {
			res.L2Decision = out.Decision[kd.L2[0]]
		}
	}

	// Control 2: gatherall knows n, so the silenced hub merely delays
	// it; once the gate lifts, everyone completes the census and agrees.
	{
		out := sim.Run(sim.Config{
			Graph:           kd.G,
			Inputs:          inputs,
			Factory:         gatherall.NewFactory(kd.G.N()),
			Scheduler:       gate,
			StopWhenDecided: true,
		})
		res.ControlWithNOK = consensus.Check(inputs, out).OK()
	}

	return res, nil
}
