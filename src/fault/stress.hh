/**
 * @file
 * Stress harness: randomized workloads under random fault plans,
 * with seed replay and counterexample shrinking (docs/TESTING.md).
 *
 * A StressCase is everything one run needs — system size, workload
 * parameters, and a FaultPlan — derived deterministically from a
 * single uint64 seed via independent split() streams, so workload
 * randomness and fault randomness can be varied or shrunk without
 * perturbing each other. Runs attach the PR 1 invariant catalog in
 * Collect mode behind a digesting hook, so
 *
 *  - any safety violation is recorded with its step and time,
 *  - starvation shows up as programs unfinished at quiescence
 *    (annotated by check::diagnoseStall), and
 *  - the FNV-1a digest over every observed engine step certifies a
 *    replay reproduced the exact interleaving bit-identically.
 *
 * A failing case is shrunk greedily — drop fault events ddmin-style,
 * then halve workload scalars — and serialized to a text reproducer
 * in the same spirit as the model checker's counterexample traces.
 */

#ifndef CENJU_FAULT_STRESS_HH
#define CENJU_FAULT_STRESS_HH

#include <string>
#include <vector>

#include "check/invariants.hh"
#include "fault/fault_plan.hh"
#include "protocol/proto_config.hh"
#include "reliable/kind.hh"
#include "transport/transport.hh"
#include "workload/stress_patterns.hh"

namespace cenju::fault
{

/** One self-contained stress run, reproducible from its fields. */
struct StressCase
{
    unsigned nodes = 16;
    unsigned xbCapacity = 8;
    /**
     * Interconnect backend. Pinned to the multistage fabric by
     * default — NOT transportAxis.fromEnv() — so the committed golden
     * digests (tests/golden/) certify the same fabric regardless of
     * the CENJU_TRANSPORT environment.
     */
    TransportKind transport = TransportKind::Multistage;
    /**
     * Coherence backend. Pinned to queuing by default — NOT
     * protocolAxis.fromEnv() — for the same reason as transport: the
     * committed goldens must not depend on CENJU_PROTOCOL.
     */
    ProtocolKind protocol = ProtocolKind::Queuing;
    /**
     * Reliability decorator. Pinned off by default — NOT
     * reliabilityAxis.fromEnv() — so committed goldens must not
     * depend on CENJU_RELIABILITY. Loss faults in @ref plan require
     * E2e (the injector rejects them on bare backends).
     */
    ReliabilityKind reliability = ReliabilityKind::Off;
    ProtoBug bug = ProtoBug::None;
    StressWorkload workload;
    FaultPlan plan;
};

/** Knobs for deriving a case from a seed. */
struct StressOptions
{
    unsigned nodes = 16;
    /** Interconnect backend (multistage unless asked otherwise). */
    TransportKind transport = TransportKind::Multistage;
    /** Coherence backend (queuing unless asked otherwise). */
    ProtocolKind protocol = ProtocolKind::Queuing;
    /** Reliability decorator (off unless asked otherwise). */
    ReliabilityKind reliability = ReliabilityKind::Off;
    /**
     * Lossy mode: force reliability on, and append a random loss
     * plan (drop/dup/corrupt windows, drawn from a seed stream
     * independent of the legal-fault stream) to the case's plan.
     */
    bool lossy = false;
    ProtoBug bug = ProtoBug::None;
    bool patternFixed = false; ///< use @ref pattern, don't draw one
    StressPattern pattern = StressPattern::SharingHeavy;
};

/** Derive the full case for @p seed under @p opts. */
StressCase makeStressCase(std::uint64_t seed,
                          const StressOptions &opts);

/** What one run observed. */
struct StressResult
{
    bool completed = false;  ///< every node program finished
    bool budgetHit = false;  ///< stopped by the event budget
    std::vector<check::Violation> violations;
    std::string stallDiagnosis; ///< set when !completed
    std::uint64_t digest = 0;   ///< FNV-1a over observed steps
    std::uint64_t steps = 0;    ///< engine steps observed
    std::uint64_t events = 0;   ///< simulation events executed
    unsigned faultWindows = 0;  ///< fault windows opened

    /**
     * FNV-1a over the coherent final value of every word of the
     * stress array (an M/E cached copy wins over home memory). The
     * lossy oracle compares this against the fault-free run of the
     * same seed: equal fingerprints certify the reliability layer
     * hid the loss completely.
     */
    std::uint64_t memFingerprint = 0;

    // Reliability-layer activity (zero when the decorator is off).
    std::uint64_t retransmits = 0;     ///< retransmitted packets
    std::uint64_t dupDiscards = 0;     ///< duplicates deduplicated
    std::uint64_t checksumRejects = 0; ///< corrupted packets refused
    bool linkDead = false; ///< a link exhausted its retry budget

    bool
    failed() const
    {
        return !completed || !violations.empty() || linkDead;
    }
};

/** Default per-run event budget (runaway/livelock backstop). */
constexpr std::uint64_t defaultEventBudget = 20000000;

/**
 * Build the system, run the case to completion or budget.
 *
 * @param shards simulation shards (docs/ARCHITECTURE.md). Any value
 * above 1 runs the case on the sharded parallel engine; the digest,
 * step count and completion verdict are bit-identical to shards == 1
 * (the parallel-determinism test tier certifies this against the
 * committed goldens), with two documented differences: per-step
 * invariant checking is replaced by quiescent-only checking (so a
 * --bug mutation may go undetected mid-run), and on backends with
 * hardware multicast the event *count* can differ because one
 * fabric fanout becomes one arrival event per member. Backends
 * without a cross-shard latency floor (multistage) clamp back to
 * one shard.
 */
StressResult runStressCase(const StressCase &c,
                           std::uint64_t eventBudget =
                               defaultEventBudget,
                           unsigned shards = 1);

/** Shrinker progress counters. */
struct ShrinkStats
{
    unsigned runs = 0;    ///< candidate executions
    unsigned accepts = 0; ///< candidates that still failed
};

/**
 * Greedily minimize @p failing (which must fail under @p budget):
 * ddmin-lite over plan events, then workload scalars, iterated to a
 * fixpoint or @p maxRuns candidate executions.
 */
StressCase shrinkCase(const StressCase &failing,
                      std::uint64_t eventBudget, unsigned maxRuns,
                      ShrinkStats *stats = nullptr);

/** Text reproducer (replayed by tools/stress --replay-file). */
std::string serializeCase(const StressCase &c);

/**
 * Apply one reproducer key (nodes, xbcap, transport, protocol,
 * reliability, bug, pattern, blocks, ops, rounds, wseed) to @p c.
 * Shared by parseCase and the tools' --set key=value overrides, so
 * the override vocabulary is exactly the serialized-case vocabulary.
 * @retval false with @p err naming the key and value on an unknown
 * key, an unknown name or a malformed number
 */
bool applyCaseKey(StressCase &c, const std::string &key,
                  const std::string &value, std::string &err);

/**
 * Parse a serializeCase reproducer.
 * @retval false with @p err set on malformed input
 */
bool parseCase(const std::string &text, StressCase &out,
               std::string &err);

} // namespace cenju::fault

#endif // CENJU_FAULT_STRESS_HH
