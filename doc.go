// Package absmac is a from-scratch Go reproduction of "Consensus with an
// Abstract MAC Layer" (Calvin Newport, PODC 2014, arXiv:1405.1382).
//
// The repository implements the paper's model (acknowledged local
// broadcast under an adversarial scheduler with unknown delivery bound
// Fack), both of its algorithms (two-phase consensus for single-hop
// networks, wPAXOS for multihop networks), the baselines its analysis
// argues against, and executable versions of all four lower-bound
// constructions. This page is the map: which package does what, the
// model's contracts every layer relies on, the determinism contract, and
// where the numbers live. Each package comment states its own layer's
// contracts and invariants in full.
//
// The root package carries no code. The library lives under internal/;
// the stable entry points are the cmd/ tools and the example programs.
//
// # Package map
//
// The model and its simulator:
//
//   - internal/amac: the model contract — Message, API, Algorithm, and
//     the read-only node View (Inspector) that experiments, tests and
//     examples read without naming a concrete algorithm.
//   - internal/sim: the deterministic discrete-event simulator — the
//     Scheduler interface and its plans, the calendar event queue, crash
//     cutoffs, the stop rule, parallel bucket phases, and the recording,
//     replay and fingerprinting scheduler wrappers.
//   - internal/graph: immutable CSR topologies, the standard and sparse
//     large-n families, and the paper's lower-bound networks.
//
// The algorithms:
//
//   - internal/core/twophase (Algorithm 1, single-hop) and
//     internal/core/wpaxos (wPAXOS, multihop), on the leader estimate Ω
//     of internal/omega. wPAXOS has two response transports: the paper's
//     tree aggregation, backed by a relay that floods every response, and
//     floodpaxos, the strawman with the relay alone (Config.Flood).
//   - internal/baseline: gatherall (knows n), anonflood and waitall (the
//     natural attempts the Figure 1 and Figure 2 constructions defeat).
//   - internal/ext/benor: randomized consensus, beyond the paper.
//
// Judging and running executions:
//
//   - internal/consensus: agreement, validity and termination over the
//     surviving nodes, and the one verdict (Classify, with its severity
//     table) behind every exit code, sweep count and explorer pick.
//   - internal/harness: the scenario entry point. Registries name
//     algorithms, topologies, input patterns, schedulers, crash patterns
//     and unreliable overlays; a Scenario names one execution and a Grid
//     a sweep of them, run cell by cell on reusable engines. Every
//     execution — a single run, a recording, a replay, a sweep run —
//     goes through its one executor (execute.go), the one place that
//     stacks the scheduler wrappers, in the one legal order: the
//     scenario's scheduler (under sim.Lossy with an overlay) or a
//     sim.Replay of a given schedule, then sim.ScheduleRecorder, then
//     sim.Fingerprinter.
//   - internal/explore: schedule-space search around recorded runs,
//     delta-debugging into minimal replayable artifacts, and campaigns
//     that sweep a grid and hunt every flagged cell.
//   - internal/lowerbound: the FLP valid-step explorer (Theorem 3.2). The
//     Figure 1 and Figure 2 constructions and the Theorem 3.10 partition
//     are registered scenarios (the fig1a, fig1b and kd rows, gate, cut).
//   - internal/metrics, internal/critpath, internal/trace: the
//     allocation-free metrics registry, the decide-latency critical path,
//     and event traces.
//   - internal/exp: the experiment drivers E1..E12, one per theorem,
//     figure or complexity claim, with internal/stats' summaries, fits
//     and tables.
//   - internal/lint: the determinism analyzers (below).
//
// Commands:
//
//   - cmd/amacsim: one command with seven modes — a single run, -sweep,
//     -explore, -grid (campaigns), -replay, -claims (the experiment tables)
//     and -canonical (the canonical grid). Its package comment has the
//     spec grammar and the JSON cell schema.
//   - cmd/detlint: the determinism-contract multichecker.
//   - examples/: quickstart, partition and sensorfield.
//
// # The model's contracts
//
// A node is an amac.Algorithm, a deterministic state machine. Its
// substrate calls Start once, then OnReceive for each delivered message
// and OnAck when its in-flight broadcast completes, serially per node. A
// node has one broadcast in flight: API.Broadcast refuses a second until
// the ack, and the refusal is counted as a discard. Messages carry O(1)
// node ids (Message.IDCount), and an anonymous algorithm never calls
// API.ID.
//
// Deliver → handle → ack. A broadcast reaches every neighbor of its
// sender once, and only then is the sender acknowledged. On every
// substrate OnAck(m) runs after every neighbor's OnReceive(m) has
// returned, so from the ack on the sender may reuse m. wPAXOS, under
// either transport, refills one message per node at each ack, so anything
// that keeps a delivered message past its sender's ack must copy it.
//
// Plan. All nondeterminism lives in the scheduler. At each broadcast,
// sim.Scheduler.Plan fills a sim.Plan in an engine-owned buffer: Recv[i]
// is the receive time of slot i (the reliable neighbors in row order, then
// the unreliable ones) and Ack is the sender's ack time. A valid plan has
// Now < Recv[i] <= Ack <= Now+Fack for every reliable slot; an unreliable
// slot may instead hold sim.NoDelivery. The engine validates every plan
// and panics on the first broken rule, so a buggy scheduler cannot
// produce an execution outside the model. Fack is the scheduler's to
// declare and the engine's to enforce; no algorithm sees it.
//
// Crashes are per-node cutoff times: events that reach a node after its
// crash time are dropped, which is the paper's mid-broadcast crash (some
// neighbors have the message, the rest never will, and the ack is lost).
// A node owes a decision when it has no scheduled crash (sim's
// Engine.owes), and a run ends on the event that makes the last owed
// decision, at quiescence, or at its event cap.
//
// # Determinism contract
//
// Everything above leans on one invariant: a (scenario, seed) pair fully
// determines an execution — byte-identical schedule replay, golden cell
// JSON, campaign reports identical at any worker count. The event cap is
// part of the scenario (Scenario.MaxEvents; 0 is sim.DefaultMaxEvents, the
// one default), so every entry point stops a run at the same event.
//
// cmd/detlint enforces the contract statically over the internal/lint
// analyzer suite, and `go test ./cmd/detlint/` runs it over the whole
// module, so the tier-1 gate rejects a violation instead of a golden test
// flaking later. The rules:
//
//   - norawrand: in the deterministic core (internal/sim, graph, harness,
//     explore, baseline, ext, metrics, critpath, core, omega) randomness
//     must flow through a *rand.Rand constructed as
//     rand.New(rand.NewSource(seed)) from a scenario- or search-seed
//     derivation. Global math/rand functions, opaque sources and
//     wall-clock seeds are rejected.
//   - nowallclock: no time.Now/Since/Until anywhere under internal/;
//     simulated time is the event queue's logical clock.
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
//
// Seeds: the scheduler consumes the scenario seed directly; every other
// consumer in internal/harness draws its own stream through one affine
// map of the seed-stream block in internal/harness/harness.go, and ben-or
// decorrelates per node. The multipliers are distinct
// (TestSeedStreamsDistinct), so no two consumers walk the same stream.
//
// Each analyzer's package doc states its precise rule; fixtures under
// internal/lint/*/testdata pin both the findings and the escape hatches,
// and `detlint -fix` inserts annotation skeletons for human audit.
//
// # Where the numbers live
//
//   - The paper's claims: `amacsim -claims all` prints one table per entry
//     of internal/exp's Index, E1..E12, each with a pass/fail shape check;
//     internal/exp/testdata/experiments.golden is its output.
//   - Executions: the golden sweep and replay artifacts under
//     internal/harness/testdata, which every execution change must keep or
//     deliberately move.
//   - Performance: bench/ and BENCHMARK.json, the end-to-end benchmark
//     (wall time, deliveries, decide time and allocation per operation on
//     five workloads); BENCH_engine.json, the allocs/op ceiling of each
//     hot-path benchmark that CI enforces.
//   - History: CHANGES.md, one entry per change with what it measured.
package absmac
