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
// consensus properties judged over the surviving nodes. cmd/amacsim
// (single cell and -sweep), cmd/benchsuite -grid and the examples are all
// built on it; see cmd/amacsim's package comment for the sweep grammar —
// e.g.
//
//	amacsim -sweep -algos floodpaxos -topos ring:9 -scheds random \
//	        -facks 4 -crashes one@0,midbroadcast \
//	        -overlays randomextra:0.25,chords -seeds 8
//
// — and the JSON cell schema.
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
// cmd/amacexplore is the CLI (-budget, -minimize, -replay); `amacsim
// -record` captures any single run as an artifact and `amacsim -trace`
// dumps machine-readable JSONL event traces.
//
// The campaign layer composes sweeps and the explorer: a sweep whose
// requests ask for fingerprints reports how many distinct delivery
// orderings each cell exercised and stops saturated cells early, and
// streams every violating (scenario, seed) to a consumer as cell workers
// classify it (harness.SweepOptions/FlaggedRun, the verdict being
// consensus.Classify on both sides); internal/explore.Campaign then
// re-records, perturbs and parallel-shrinks every flagged cell on one
// shared pool of per-worker ReplayRunners into minimized artifacts, all
// byte-reproducible at any worker count. `amacexplore -grid` runs
// campaigns from the same sweep-axis grammar as `amacsim -sweep` (the
// shared harness.AxisFlags helper) and emits a JSON campaign report. The
// first artifacts found this way were two multihop liveness stalls (a
// wPAXOS response lost forever on a lossy chord, a floodpaxos leader
// dying after election); both are fixed (see the next section). The
// canonical violating artifact under internal/harness/testdata/ is the
// minimized two-phase coordinator-crash stall — the paper's Theorem 3.2
// counterexample, which is supposed to stall.
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
// JSON, campaign reports identical at any worker count. The contract is
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
// scheduler consumes the scenario seed directly, overlay construction
// uses seed*1000003+17, per-delivery loss coins seed*6700417+257,
// minorityrand crashes seed*2654435761+97, the seeded topology builders
// use seed*9176741+389 (expander) and seed*15485863+577 (pods), and
// ben-or decorrelates per node — distinct affine maps, so no two
// consumers ever walk the same stream. Each analyzer's package doc
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
// Invariant, enforced in one place for every MAC: Broadcast arms a
// per-sender countdown with the sender's degree, Deliver decrements it
// (and rejects a non-neighbor), Ack requires it to be exactly zero. A MAC
// that acks with a delivery outstanding, delivers twice or delivers after
// the ack ends the run with live.ErrContract naming the sender. For the
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
//     ceilings CI enforces).
//   - Two degree-bounded sparse families put large n on sweep axes:
//     expander:N:D (seeded random D-regular via stub pairing with
//     conflict repair) and pods:P:K:C (an Octopus-style mesh of P
//     k-node ring pods joined by C cross links per pod). Degree stays
//     fixed as n grows, which is the regime where the abstract MAC
//     layer's per-broadcast costs stay flat.
//
// # wPAXOS per-node state and the n² budget
//
// Theorem 4.6 has wPAXOS decide in O(D·Fack) — long before a node has
// heard from all n peers — and routes every aggregated response up one
// tree, the one rooted at the receiver's current leader estimate. A node
// therefore stores and relays only what can still be used; n nodes that
// each remember every id they hear of are the n² this section is named
// after. The contract, all of it in internal/core/wpaxos:
//
//   - What is kept. The tree service tracks (parent, dist, pending) for
//     the node itself and for the roots that can be its leader estimate —
//     a short slice sorted by root, a handful of entries. The state gossip
//     keeps the latest StateMsg of the origins some counter can still
//     count in one slice sorted by origin, which is the lookup (binary
//     search), the gossip cycle (a cursor walks it in id order, one entry
//     a pump) and the purge target (compacted in place; the cursor is not
//     adjusted, so the lap goes on over what is left and wraps when it
//     runs off the end). A slice and not a hash table because rule 2
//     keeps it at tens of entries however large n is, and because the
//     cycle needs id order anyway: a table would want a second, sorted
//     structure beside it. Every other set a delivery consults is the
//     same thing, a sorted slice with a written-out binary search: as
//     omega.IDSet the detector's suspects and off-bitset members, the
//     proposer's two gossip tallies and the origins behind each
//     chosen-value tally (one tally per accepted proposal number: a
//     handful, scanned), and under Node.findSeen the propositions seen,
//     sorted by (number, kind) — the one table that is never purged, a
//     few dozen entries a node at n = 4096. A Go map lookup
//     is four dependent loads and at this scale each one misses the cache;
//     there is no map in a node (TestNoMapsOnTheDeliveryPath; the opt-in
//     CountAudit, shared by a run, keeps its two), so there is no
//     iteration order for detlint to police either. Keys are arbitrary
//     NodeIDs — sparse, shuffled or negative ids take the same path as
//     1..n. The wpaxos_tree_roots, wpaxos_state_origins and
//     wpaxos_seen_props gauges are the largest of each table any node
//     held; Node.WorkingSet reads one node's.
//   - What is sent. The outbound queues are value slots with presence
//     flags, and a broadcast is one *Combined whose exported pointer
//     fields point into its own inline slots. A delivered *Combined is
//     immutable, and receivers copy what they keep; it is valid until the
//     sender's ack, after which the sender — who owns exactly one message,
//     one broadcast being in flight at a time — refills it, so neither
//     sending nor receiving allocates in steady state. floodpaxos'
//     Combined makes the same promise.
//   - Rule 1, trees: a root is tracked only while it can be this node's
//     leader estimate. A <search> for a root below Ω, or for a suspected
//     root, is dropped before any lookup and is not novel to the detector
//     (without a suspicion Ω only rises, so such a root is never routed
//     toward); whenever Ω moves, the roots below it other than the node
//     itself leave the table, the idle cycle and the pending queue.
//     Suspected roots above Ω stay, frozen: a wrap may re-promote them,
//     and a falsely suspected leader that never fired would not
//     re-advertise its own tree.
//   - Rule 2, gossip: another origin's acceptor state is stored and
//     relayed only while some counter can still count it — it carries an
//     acceptance (the chosen-value watch counts those whatever their
//     number), or its promise is at least the highest proposition number
//     this node has seen (the proposer's two gossip tallies look at
//     Promised == num and num < Promised, so a bare promise below that
//     number can only serve a proposal it has already superseded). The
//     rest is dropped before the table lookup, and when the highest number
//     seen rises the entries that now fail the test leave the table.
//   - Own acceptor state is exempt from rule 2, always. "Acceptors must
//     not forget their promises" (weave's ipam/paxos): promised and
//     accepted live in acceptorState and are never pruned, and the node's
//     own gossip entry — how everyone else hears of them — stays whatever
//     it says, including the instant between a higher proposition
//     entering the flood queue and the local acceptor answering it. What
//     rules 1 and 2 drop is routing state and other nodes' state, both of
//     which the network re-offers.
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
//     tree, exactly as it refuses to relay the successor's responses
//     (queue invariant (1) of Section 4.2.1).
//   - Pointer validity: the tree service's entry pointers are valid
//     until its next receive or purge. Callers use them at once.
//   - The one n-sized per-node structure is the Ω detector's member set,
//     a bitset (n/64+1 words: 520 B per node, 2 MB in total at n = 4096)
//     for ids in [0, 64·words) and an omega.IDSet for any other id; read
//     in id order it is the rotation order, and the gossip walk picks its
//     k-th member by popcount. Learning a member is a bit test and a bit
//     set, with no allocation. The detector is embedded in the node by
//     value, so a delivery does not chase a pointer to reach it.
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
//
// Dense 0..n-1 slices for dist, parent and state — the obvious
// alternative when ids are dense — stay rejected on arithmetic (8 B ×
// 4096² is 128 MB for dist and parent alone, and they would need a second
// path for sparse ids). Measurements, before and after each change to
// this contract, are in CHANGES.md.
//
// # Two-phase per-node state
//
// Two-phase (internal/core/twophase) runs on cliques, where every node
// hears every other twice: at n = 1024 that is 2·n·(n−1) ≈ 2.1 M deliveries
// in 2·Fack ticks, each of which only has to answer "is this sender a
// witness, and has its phase-2 message arrived". The contract for that
// state:
//
//   - One probe per delivery. The ids a node has heard live in one
//     open-addressed table keyed by 64-id block (id >> 6; Fibonacci hash,
//     linear probing, doubled before it passes half full). A slot is one
//     24 B record {blk, member, phase2}: bit id & 63 of member marks a
//     member, the same bit of phase2 marks that member's phase-2 delivery.
//     A delivery hashes the sender's block, probes once over those
//     records, and writes at most one bit.
//   - Keys are arbitrary NodeIDs (sim.Config.IDs): 0, NoID, negative ids
//     and both ends of int64 are members like any other. A slot is empty
//     iff its member word is zero, so no key value is reserved and no
//     occupancy bitset sits beside the table.
//   - Size follows the blocks, not the ids. The harness's dense ids
//     1..n share n/64 + 1 blocks, so a node of clique:1024 keeps 17 blocks
//     in 64 slots, about 1.5 KB, and all 1024 nodes' tables fit in cache.
//     Sparse ids pay up to one block each, about 48 B of table per id;
//     only tests use them.
//   - The witness set is the table at the phase-2 ack, frozen by not
//     inserting afterwards: an id first heard in the witness wait is by
//     definition not in W, so its messages only feed the decided(0) scan.
//     The table therefore never grows after the freeze, and a node that
//     has decided stops probing at all.
//   - missing counts witnesses without their phase-2 flag. It is armed at
//     the freeze (Σ popcount(member &^ phase2) over the slots) and
//     decremented when a witness's flag is first set, so the release test
//     of the witness wait is a compare, where the listing walks W on every
//     delivery.
//   - The listing's three maps survive as the oracle of a differential test
//     (twophase_oracle_test.go) that compares phase, status, broadcasts and
//     decisions after every call over dense, shuffled, strided, negative,
//     NoID-adjacent, block-edge and one-per-block ids; idset_test.go checks
//     the set against maps on random int64 ids, whose blocks collide; and
//     a test pins a node of clique:1024 at ≤ 2 KB retained (struct plus
//     slot records). Measurements are in CHANGES.md.
//
// # Event queue and the Fack horizon
//
// Invariant: the engine's event ring covers the scheduler's declared
// horizon. validatePlan panics on any plan whose deliveries or ack fall
// outside (Now, Now+Fack], so every queued event lies within one Fack of
// the clock. internal/sim/queue.go therefore keeps one structure, a
// calendar ring of per-time buckets whose span is the smallest power of
// two above Scheduler.Fack(). Config.Validate rejects a Fack above
// sim.MaxFack (2^20-1) with an error naming the number, and a push panics
// on an event outside [cur, cur+span), so nothing can alias another time's
// bucket. A push appends to a bucket array and sets the bucket's bit in a
// bitmap; deliveries and acks have a push each, so the per-delivery push
// has no kind switch.
//
// The run loop (Engine.drain) works a bucket at a time. Once per nonempty
// bucket it advances the cursor by a bitmap word scan (one word per 64
// buckets) and moves the clock, the crash cursor and Result.Time; then it
// reads the bucket's delivery array and its ack array in place, front to
// back, handing each entry to Engine.deliver or Engine.ack. The per-event
// checks stay per event: the MaxEvents cutoff, the event counts, the
// StopWhenDecided test and the differential hook. The StopWhenDecided test
// runs after an event that reaches a node, never after a crash drop, so a
// run whose last undecided node is written off by the crash cursor goes on
// to the next delivered event or to quiescence (TestStopWaitsPastCrashDrops).
// A drained bucket is truncated and its bit cleared once.
//
// Invariant: no handler pushes into the bucket being drained. validatePlan
// requires every delivery and the ack to fall strictly after the
// broadcast's Now, including the ack of a sender with no recipient, so
// the arrays being read cannot grow under the loop. Replay applies the
// same rule to recorded steps, so a hand-edited artifact that acks at its
// broadcast diverges to the fallback planner instead.
//
// Re-arm rule: a run stopped by StopWhenDecided or MaxEvents returns from
// inside a bucket and leaves it untruncated, with its bit still set. That
// happens even with no event left queued: StopWhenDecided fires on the
// last ack of a run in which every node decides. Reset therefore resets
// every bucket still marked in the bitmap, not only when events remain;
// otherwise the next run would append behind the stale entries and every
// warm run would grow the arrays (TestResetAfterEarlyStop, and the zero
// allocs/op pin of BenchmarkWarmRunClique).
//
// Invariant: the message of a queued delivery is its sender's in-flight
// message. The abstract MAC layer gives a node one outstanding broadcast
// (Engine.broadcast discards a second), validatePlan puts every delivery
// of a broadcast at or before its ack, and co-timed deliveries are
// processed before acks — so from the moment a delivery is pushed until it
// is processed, Engine.inMsg[sender] is the message it was planned with.
// The queue stores none: a bucket is two append-only arrays, []{receiver,
// sender int32} for deliveries and []{node, bseq int32} for acks. Time is
// the bucket and insertion order is the array position, so neither is
// stored; an entry is 8 bytes with no pointer in it (clique:1024 peaks at
// 2^20 queued deliveries: 8 MB, where an event that carried its message
// was 72 B and 72 MB). Config.Validate bounds the node count by
// sim.MaxNodes so indices fit. A test outside the engine
// (TestDeliveryCarriesItsBroadcastsMessage) logs every plan and checks
// each delivery against it — message, time, before the ack, once — under
// mid-broadcast crashes, lossy overlays and the plan-stretching
// schedulers.
//
// What the GC sees: the entry arrays are pointer-free and never scanned;
// the ring itself is 48 B a bucket (two slice headers) and is scanned, as
// is inMsg (one interface per node). The ring is 384 B at Fack 4, 24 KiB
// for Gate at Until ≈ 500, 384 KiB for EdgeOrder on clique:4096 and 48 MiB
// at MaxFack. Entry arrays stay with their bucket across runs, so a reused
// engine allocates nothing on the event path once every bucket has seen
// its peak. A fresh engine would pay for its 2·span arrays one doubling at
// a time, so arrays under 2048 entries are cut from shared 4096-entry
// blocks instead (a sim.Run on clique:16 allocates 53 times, 2 of them for
// the queue; the outgrown halves stay in their block, at most 32 KiB an
// array) and only larger ones grow by append. BENCH_engine.json pins those
// counts.
//
// The engine's total order is (time, deliveries before acks, insertion
// order); an array read front to back is insertion order, so one array per
// (bucket, kind) yields exactly that order. The reference is a quaternary
// heap that exists only in internal/sim's tests: the differential test
// attaches it to an engine through an unexported hook, stamps its own
// sequence number on every push it mirrors, and requires every processed
// event to be the heap's minimum — across every registered scheduler,
// crash pattern and overlay family plus a seeded fuzz loop.
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
// rows to sweep JSON); `amacexplore -replay -critpath` recovers the
// same breakdown from a recorded artifact, because a replayed schedule
// produces the identical execution.
package absmac
