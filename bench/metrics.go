package main

import (
	"math"
	"sort"
)

// metricSpec names one metric. BENCHMARK.json restates these tables (the
// test holds the two together); the glossary is in README.md.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: tolerated worsening, as a share
	Exact  bool    // simulated: repeats to the digit for one (commit, seed)
}

var endToEnd = []metricSpec{
	{Name: "wall_s_per_op", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "deliveries_per_op", Unit: "count", Better: "lower", Bound: 0.15, Exact: true},
	{Name: "decide_ticks_per_dfack", Unit: "ratio", Better: "lower", Bound: 0.15, Exact: true},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "ok_share", Unit: "fraction", Better: "higher", Bound: 0.01, Exact: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// sweepAlgos are the algorithms of the canonical grids, in the order their
// algo.<name>.share metrics print.
var sweepAlgos = []string{"anonflood", "benor", "floodpaxos", "gatherall", "twophase", "waitall", "wpaxos"}

var perLayer = func() []metricSpec {
	lower := func(unit string, names ...string) []metricSpec {
		out := make([]metricSpec, len(names))
		for i, n := range names {
			out[i] = metricSpec{Name: n, Unit: unit, Better: "lower"}
		}
		return out
	}
	var m []metricSpec
	m = append(m, lower("s", "graph.build_s", "graph.diameter_s")...)
	m = append(m, lower("count", "graph.edges")...)
	m = append(m, lower("s", "harness.config_s")...)
	m = append(m, lower("fraction", "harness.sweep_overhead_share")...)
	m = append(m, metricSpec{Name: "harness.sweep_scaling_w2", Unit: "ratio", Better: "higher"})
	m = append(m, lower("s", "harness.replay_s_per_call")...)
	m = append(m, lower("s", "sim.engine.reset_self_s", "sim.engine.cold_run_s", "sim.engine.loop_self_s", "sim.engine.broadcast_self_s")...)
	m = append(m, lower("ns", "sim.engine.self_ns_per_event", "sim.engine.host_ns_per_event")...)
	m = append(m, lower("fraction", "sim.engine.share")...)
	m = append(m, lower("count", "sim.engine.events", "sim.engine.deliveries", "sim.engine.broadcasts", "sim.engine.acks", "sim.engine.discards")...)
	m = append(m, lower("fraction", "sim.engine.discard_ratio")...)
	m = append(m, lower("count", "sim.sched.plan_calls")...)
	m = append(m, lower("s", "sim.sched.plan_self_s")...)
	m = append(m, lower("ns", "sim.sched.plan_ns_per_call")...)
	m = append(m, lower("fraction", "sim.sched.share")...)
	m = append(m, lower("s", "algo.factory_s", "algo.start_self_s", "algo.onreceive_self_s", "algo.onack_self_s")...)
	m = append(m, lower("count", "algo.onreceive_calls", "algo.onack_calls")...)
	m = append(m, lower("ns", "algo.self_ns_per_call")...)
	m = append(m, lower("fraction", "algo.share")...)
	m = append(m, lower("B", "algo.live_bytes_per_node")...)
	for _, a := range sweepAlgos {
		m = append(m, lower("fraction", "algo."+a+".share")...)
	}
	m = append(m, lower("ns", "wpaxos.detector.learn_ns_per_call", "wpaxos.detector.check_ns_per_call")...)
	m = append(m, lower("s", "consensus.check_s_per_op", "consensus.classify_s_per_op")...)
	m = append(m, lower("s", "explore.record_s", "explore.search_s")...)
	m = append(m, lower("count", "explore.replays", "explore.deduped", "explore.diverged")...)
	m = append(m, lower("fraction", "explore.dedup_ratio")...)
	m = append(m, metricSpec{Name: "explore.replays_per_s", Unit: "1/s", Better: "higher"})
	m = append(m, lower("s", "explore.shrink_s")...)
	m = append(m, lower("count", "explore.shrink_attempts")...)
	m = append(m, lower("ratio", "metrics.overhead_ratio", "critpath.overhead_ratio")...)
	m = append(m, lower("s", "critpath.extract_s")...)
	m = append(m, lower("ticks", "critpath.election_ticks", "critpath.proposal_ticks", "critpath.aggregation_ticks", "critpath.stall_ticks")...)
	m = append(m, lower("count", "reg.wpaxos_proposals", "reg.wpaxos_retransmits", "reg.wpaxos_nacks",
		"reg.flood_proposals", "reg.flood_retransmits", "reg.flood_nacks", "reg.det_suspicions", "reg.sim_queue_depth_high")...)
	m = append(m, lower("ns", "trace.timer_ns")...)
	m = append(m, lower("ratio", "trace.overhead_ratio")...)
	m = append(m, lower("fraction", "trace.unattributed_share")...)
	return m
}()

// metricValue is one reported number. Samples and the tail percentile are
// informational: only Value is compared against a bound.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	// Tail is the highest percentile with at least ten samples beyond it
	// (0 when the sample is too small to have one).
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

// values maps metric name to value; it marshals with sorted keys.
type values map[string]metricValue

// set stores v under name with the unit of its spec.
func (vs values) set(specs []metricSpec, name string, v float64) {
	for _, s := range specs {
		if s.Name == name {
			vs[name] = metricValue{Value: v, Unit: s.Unit}
			return
		}
	}
	panic("bench: metric " + name + " has no spec")
}

// fill gives every spec absent from vs the value 0, so each workload
// reports every name (a layer a workload never enters reads 0).
func (vs values) fill(specs []metricSpec) {
	for _, s := range specs {
		if _, ok := vs[s.Name]; !ok {
			vs[s.Name] = metricValue{Unit: s.Unit}
		}
	}
}

// median interpolates between the two middle values of an even sample
// (stats.Median is nearest-rank, which on four ops is the second fastest).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// timing reports xs as its median, with the sample count and — when the
// sample supports one — the highest percentile that still has ten samples
// beyond it.
func timing(xs []float64, unit string) metricValue {
	mv := metricValue{Value: median(xs), Unit: unit, Samples: len(xs)}
	if n := len(xs); n > 20 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		mv.TailPct = math.Floor(100 * float64(n-10) / float64(n))
		mv.Tail = s[n-11]
	}
	return mv
}
