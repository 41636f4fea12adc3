// Package absmac is a from-scratch Go reproduction of "Consensus with an
// Abstract MAC Layer" (Calvin Newport, PODC 2014, arXiv:1405.1382).
//
// The repository implements the paper's model (acknowledged local
// broadcast under an adversarial scheduler with unknown delivery bound
// Fack), both of its algorithms (two-phase consensus for single-hop
// networks, wPAXOS for multihop networks), the baselines its analysis
// argues against, and executable versions of all four lower-bound
// constructions. This page is the per-layer architecture reference (the
// sections below state each layer's contracts and invariants);
// internal/exp's Index is the experiment index E1..E12, whose simulated
// runs outside the lower-bound constructions (E4's wPAXOS control and
// E5–E12) are harness Scenarios and Grids on the harness executor, and
// `go run ./cmd/benchsuite` prints the paper-vs-measured tables;
// CHANGES.md records what each PR changed and measured.
//
// The root package carries no code — the library lives under internal/
// (this is a research artifact: the stable entry points are the example
// programs and the cmd/ tools; bench/ is the performance record).
//
// internal/harness is the scenario entry point: it names algorithms,
// topologies, input patterns, schedulers, crash patterns and unreliable
// overlays in registries, assembles them into runnable Scenario values,
// and sweeps scenario grids in parallel with per-cell latency, fault and
// message statistics. Sweeps are cell-grouped: a grid expands into cell
// work-units (all seeds of one axis combination), each cell runs its
// seeds back to back on a reusable simulator engine, and workers share
// per-sweep caches of built topologies, their diameters and overlay dual
// graphs keyed by (topo, seed) — so everything that depends only on the
// topology and seed is computed once per sweep, not once per scenario (a
// single run builds through a cache of its own: a sweep of one). The two
// adversity registries put the paper's fault
// models on sweep axes: crash patterns (none, one@T, maxid@T,
// coordinator, midbroadcast, minorityrand) schedule the crash failures
// of Theorem 3.2
// — including the mid-broadcast crash that loses part of a delivery plan
// and the ack — and overlay families (none, randomextra:P, extra:K,
// chords, each with an optional @Q delivery probability) build the
// unreliable dual graph of the Kuhn–Lynch–Newport model variant, with
// consensus properties judged over the surviving nodes. cmd/amacsim, one
// command with five modes (a single run, -sweep, -explore, -grid,
// -replay), cmd/benchsuite -grid and the examples are all built on it;
// cmd/amacsim's package comment has the grammar and the JSON cell schema:
//
//	amacsim -sweep -algos floodpaxos -topos ring:9 -scheds random \
//	        -facks 4 -crashes one@0,midbroadcast \
//	        -overlays randomextra:0.25,chords -seeds 8
//
// Every execution — a single run, a recording, a replay, a sweep run, a
// CLI invocation — goes through one executor in internal/harness
// (execute.go). The paper puts every nondeterministic choice in the
// message scheduler, so the tooling is scheduler wrappers, and the
// executor is the one place that stacks them, in the one legal order: the
// scenario's scheduler (under sim.Lossy when there is an overlay) or a
// sim.Replay of a given schedule in their place; then sim.ScheduleRecorder,
// which captures each broadcast's finished delivery plan, every
// unreliable-edge coin and the crash times into a JSON-serializable
// Schedule that replays byte-identically; then sim.Fingerprinter, which
// folds the same decisions into a coverage digest
// (Outcome.Fingerprint == Schedule.Fingerprint() of the same run). A
// caller names what it wants in a request value (harness.Exec: replay this
// schedule, record, fingerprint, observer, metrics registry); the executor
// installs it, runs on an engine it owns — fresh, or reused across a
// ReplayRunner's replays and a sweep worker's seeds, which is why an
// Outcome's sim.Result is valid only until that executor's next run —
// judges the result with consensus.Check and returns the one Outcome.
// Scenario.Run/RunRecorded, ReplayRunner.Run/RunRecorded and the sweep
// worker are adapters of a few lines (bench/ compiles against their
// signatures); anything that must see every execution is installed in
// the executor, once.
//
// internal/explore searches perturbations of recorded schedules — swapped
// delivery orders, re-jittered delays within Fack, flipped overlay coins,
// shifted crashes — for property violations, replaying each candidate
// through a ReplayRunner and deduplicating candidates on
// Schedule.Fingerprint, then delta-debugs what it finds into minimal
// replayable counterexample artifacts (every accepted reduction is a
// replay-with-re-recording, so artifacts replay with zero divergence).
// `amacsim -explore` runs it (-budget, -minimize, -out), `amacsim
// -record` captures any single run as an artifact, `amacsim -replay`
// re-verifies one, and `-trace` dumps machine-readable JSONL event traces.
//
// The campaign layer composes sweeps and the explorer: a sweep whose
// requests ask for fingerprints reports how many distinct delivery
// orderings each cell exercised and stops saturated cells early, and every
// sweep returns each cell's violating (scenario, seed) runs in seed order
// in harness.Cell.Flagged. A run is flagged exactly when consensus.Classify
// returns a violation, the one verdict behind Correct, the sweep exit
// codes, amacsim's exit code and the explorer. internal/explore.Campaign
// then re-records, perturbs and parallel-shrinks the first flagged run of
// every flagged cell on one shared pool of per-worker ReplayRunners into
// minimized artifacts, all byte-reproducible at any worker count.
// `amacsim -grid` runs campaigns over the same sweep axes as `-sweep`.
// The first artifacts found this way were two multihop liveness stalls (a
// wPAXOS response lost forever on a lossy chord, a floodpaxos leader
// dying after election); both are fixed (see the next section). The
// canonical violating artifact under
// internal/harness/testdata/ is the minimized two-phase coordinator-crash
// stall — the paper's Theorem 3.2 counterexample, which is supposed to
// stall.
//
// # Liveness under leader death
//
// Both multihop algorithms (internal/core/wpaxos and its flooding
// baseline internal/baseline/floodpaxos) survive the death of their
// elected proposer. Two mechanisms, the second shared as internal/omega:
//
//   - Retransmit until superseded. Every queue a node pumps — leader
//     announcements, change notices, the highest-numbered proposition,
//     acceptor responses, gossiped acceptor state — stays sticky: it is
//     re-broadcast on every pump until a strictly newer item supersedes
//     it, rather than sent once and forgotten. Receivers deduplicate, so
//     retransmission is idempotent; a message lost to a crash or an
//     unreliable overlay edge is simply sent again. wPAXOS's aggregated
//     fast-path response counts remain send-once (re-aggregating would
//     double-count); robustness there comes from per-origin monotone
//     acceptor-state gossip, merged idempotently, with a chosen-value
//     watch that lets any node observe a majority and decide even if
//     the proposer who assembled it is dead. What "superseded" means for
//     floodpaxos's individually flooded responses is the relay invariant
//     of its package comment: only responses to the highest proposal
//     number a node has seen are relayed, which keeps the strawman at the
//     paper's Θ(n·Fack) (measured ≈ 0.25·n·Fack on expanders).
//   - Suspicion-based Ω with deterministic rotation: silence demotes Ω to
//     the next-highest member (internal/omega's package comment).
//
// # Reading a node
//
// Every algorithm implements amac.Inspector: Inspect returns an amac.View
// of Decided and Decision, the leader estimate Omega with OmegaSince and
// RouteSince (when it last moved, when the route to it last improved), the
// acceptor's Promised, Accepted and AcceptedVal (ballots are
// amac.Ballot{Tag, ID}) and MaxTag, the highest tag seen. It is computed on
// request, never on the run path; fields an algorithm does not track are
// zero, and Omega is NoID where there is no leader. Its readers are
// experiments E6 and E8, examples/sensorfield and tests.
//
// # Determinism contract
//
// Everything above leans on one invariant: a (scenario, seed) pair fully
// determines an execution — byte-identical schedule replay, golden cell
// JSON, campaign reports identical at any worker count. The event cap is
// part of the scenario (Scenario.MaxEvents; 0 is sim.DefaultMaxEvents, the
// one default), so every entry point stops a run at the same event. The
// contract is
// enforced statically by cmd/detlint (a standard-library multichecker
// over the internal/lint analyzer suite; `go run ./cmd/detlint ./...`
// must exit 0 and CI runs it on every push), so a violation is rejected
// at review time instead of surfacing as a flaky golden test later. The
// rules:
//
//   - norawrand: in the deterministic core (internal/sim, graph, harness,
//     explore, baseline, ext, metrics, critpath, core, omega) randomness
//     must flow through a *rand.Rand constructed as
//     rand.New(rand.NewSource(seed)) from a scenario- or search-seed
//     derivation. Global math/rand functions, opaque sources and
//     wall-clock seeds are rejected.
//   - nowallclock: no time.Now/Since/Until anywhere under internal/
//     except the wall-clock runtime internal/live and its UDP MAC
//     internal/netmac; simulated time is the event queue's logical clock.
//   - maporder: a `range` over a map must not feed an order-sensitive
//     sink (encoding/json, fmt output, hash writes, or an append whose
//     slice the function returns). Collect the keys, sort them, iterate
//     the slice — or annotate (below).
//   - goroutineorder: worker goroutines (a `go` literal, or a literal
//     handed to a pool submit method) publish results only into
//     pre-addressed slots (results[i] = ...) or channels whose consumer
//     reduces in candidate order — never by appending to, or mutating,
//     captured state, mutex or not (mutexes serialize, they don't order).
//
// Justified exceptions to the two order rules carry an audited
// annotation on (or directly above) the flagged line:
//
//	//lint:deterministic <why iteration/publication order cannot be observed>
//
// The reason is part of the contract — reviewers grep for the tag.
// norawrand and nowallclock have no annotation escape on purpose: their
// exceptions are whole packages (the scope lists above), not lines.
// Seed-derivation hygiene, audited with the suite's introduction: the
// scheduler consumes the scenario seed directly, every other consumer in
// internal/harness draws its own stream through one affine map of the
// seed-stream block in internal/harness/harness.go, and ben-or
// decorrelates per node — distinct multipliers
// (TestSeedStreamsDistinct), so no two consumers ever walk the same
// stream. Each analyzer's package doc
// states its precise rule; fixtures under internal/lint/*/testdata pin
// both the findings and the escape hatches, and `detlint -fix` inserts
// annotation skeletons for human audit.
//
// # Wall-clock substrates
//
// The paper's deployability claim — the algorithms run unchanged on a
// real MAC layer — is carried by one wall-clock runtime and two MACs
// under it. The runtime (internal/live) owns everything an algorithm can
// observe: configuration checks and defaults, ids, one unbounded mailbox
// (internal/mailbox) and one goroutine per node that serializes its
// handlers, the amac.API (Now is a shared atomic counter; Broadcast is
// refused and counted as a discard while one is in flight), termination
// (all decided, timeout, cancellation, contract breach), teardown order
// and the result. A MAC (live.MAC) only moves messages: handed
// (sender, msg) it owes the runtime exactly one Deliver(sender, to, msg)
// per neighbor of sender and then one Ack(sender). The timer MAC in
// internal/live sleeps seeded random delays inside a wall-clock Fack;
// internal/netmac retransmits gob datagrams over loopback UDP until every
// neighbor's socket has acknowledged them, so its Fack is emergent.
//
// Invariant, enforced in one place for every MAC: Broadcast clears a
// per-sender bitset over the sender's adjacency row, Deliver sets the
// receiver's bit (rejecting a non-neighbor, or a bit already set), Ack
// requires every bit to be set. A MAC that acks with a delivery
// outstanding, delivers twice to one neighbor or delivers after the ack
// ends the run with live.ErrContract naming the sender. For the
// UDP MAC this dictates the reader's order: enqueue the datagram, then
// acknowledge it on the wire. Its sockets are open to any local process,
// so a datagram that does not decode, or whose source address is not the
// socket of the neighbor it names, is dropped and counted (net_dropped).
//
// The runtime then holds the ack until every neighbor's OnReceive of the
// broadcast has returned, the order amac.Algorithm promises on every
// substrate. The periodic metrics exposition (live_* from the runtime,
// net_* from the UDP MAC) is the only place in the repository wall-clock
// stamps surface. One contract test, TestSubstrateContract in
// internal/netmac, runs the same algorithm rows on the simulator and on
// both MACs through a decorator that asserts the amac.Algorithm/API
// contract as the algorithm sees it.
//
// # Scale
//
// The simulator is sized for n in the 10^3..10^4 range, not just the
// paper's small worked examples. Three layers carry the load:
//
//   - internal/graph stores adjacency in flat CSR arrays (one offsets
//     slice, one packed neighbor slice). A graph is built once, by
//     graph.Build from a whole edge list, and is immutable afterwards:
//     there is no edge log, no edge set and no Freeze, and a graph is
//     safe to share between goroutines with no preparation. Row order is
//     part of the determinism contract — the random scheduler draws
//     per-neighbor delivery times by row index — so rows are in edge-list
//     order, families built by graph.FromEdges have ascending rows (where
//     HasEdge binary-searches), and Diameter switches from the exact
//     all-pairs BFS to a bounded-effort double-sweep + iFUB lower-bound
//     certificate past 512 nodes.
//   - internal/sim keeps node runtime state structure-of-arrays: flat
//     slices per field, decisions living directly in the reusable
//     Result, and per-node amac.API values pre-boxed at Reset so a run
//     performs no per-node interface allocation. Steady-state allocs/op
//     on a reused engine are independent of n (BenchmarkBroadcastPlanLarge
//     pins this at n=1024 and n=4096; BENCH_engine.json holds the
//     ceilings CI enforces). Reset also hands each slot's algorithm back
//     to the factory (amac.NodeConfig.Prev), and every registered factory
//     re-arms its own nodes in place with their tables' storage, so a
//     warm run does not rebuild its nodes either (BenchmarkWarmRunWPaxos).
//   - Two degree-bounded sparse families put large n on sweep axes:
//     expander:N:D (seeded random D-regular via stub pairing with
//     conflict repair) and pods:P:K:C (an Octopus-style mesh of P
//     k-node ring pods joined by C cross links per pod). Degree stays
//     fixed as n grows, which is the regime where the abstract MAC
//     layer's per-broadcast costs stay flat.
//
// # wPAXOS per-node state and the n² budget
//
// What a wPAXOS node keeps, sends and forgets, and why, is documented in
// internal/core/wpaxos's package comment (proposal.go).
//
// # Two-phase per-node state
//
// The clique algorithm's one-probe-per-delivery id table is documented in
// internal/core/twophase's package comment (twophase.go).
//
// # Event queue and the Fack horizon
//
// The simulator's event queue, its run loop and the parallel bucket
// phases are documented in internal/sim's package comment (sim.go).
//
// # Observability
//
// internal/metrics is a flight-recorder registry built for the engine's
// hot path: fixed slots allocated at registration (counters, gauges with
// high-water marks), handles that are plain value structs, and every
// mutation a branch plus an array write —
// no locks, no interfaces, no allocation. A nil registry hands out
// disabled handles whose mutators are one predictable branch, so
// instrumented code never guards call sites and the metrics-off
// configuration is the one the allocation pins in BENCH_engine.json
// measure. Export (WriteText, Snapshot) walks slots sorted by name —
// never a map — so output is deterministic and sweep cell JSON stays
// byte-identical at any worker width; the golden grid JSON does not
// change at all unless SweepOptions.Metrics is set. Wall-clock
// timestamps appear in exactly one place: the periodic text exposition
// of the wall-clock runtime (internal/live, whichever MAC it runs over),
// which the nowallclock scope already exempts.
//
// internal/critpath answers "where did the decide latency go": it
// observes a run through sim.Config.Observer, then walks the causal
// delivery chain backward from the first decide to the first broadcast,
// attributing each hop to an algorithm phase (election, proposal,
// aggregation, decide) and each queueing delay to a stall span. The
// spans partition (0, decide-time] exactly — they sum to the decide
// time by construction, and a golden test pins both committed replay
// artifacts' breakdowns. `amacsim -metrics` prints the registry and the
// critical path after a single run (and adds aggregated per-cell metric
// rows to sweep JSON); `amacsim -replay -critpath` recovers the
// same breakdown from a recorded artifact, because a replayed schedule
// produces the identical execution.
package absmac
