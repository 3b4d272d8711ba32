/**
 * @file
 * One benchmark sample: build one machine for one workload from a
 * seed, run it to completion, check its outputs, tear it down, and
 * print one JSON line of host times, simulated results and layer
 * counters. perfbench/run.py starts a fresh process per sample and
 * aggregates them; README.md explains the workloads and why every
 * sample is its own single-threaded process.
 *
 *   perfbench_sampler --workload NAME --seed N [--trace-out FILE]
 *                    [--expect-checksum X]
 *   perfbench_sampler --workload npb_cg_128 --seed N --reference
 *
 * Every machine is sequential (shards = 1), uses the queuing
 * policy, has runtime checks off, and starts with empty caches.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/app_bench.hh"
#include "core/dsm_system.hh"
#include "memory/address_map.hh"
#include "perfbench/trace.hh"
#include "reliable/reliable_transport.hh"
#include "sim/rng.hh"
#include "workload/npb.hh"

namespace perfbench
{
namespace
{

using namespace cenju;
using SpanId = SpanRecorder::Id;

/** Ordered name -> value list, printed as a JSON object. */
using Fields = std::vector<std::pair<std::string, double>>;

/** Checked operations of one sample. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    expect(bool ok)
    {
        ++attempted;
        failed += ok ? 0 : 1;
    }
};

/**
 * Times the phases of one machine's life from outside: construction
 * and array set-up, each call into the event loop, and teardown, on
 * the process CPU clock (trace.hh says why). Allocation counts and
 * spans are recorded only when traced.
 */
class Harness
{
  public:
    explicit Harness(bool traced) : spans(traced)
    {
        setAllocCounting(traced);
        root = spans.begin("sample", 0);
    }

    SpanRecorder spans;
    SpanId root = 0;
    Checks checks;

    DsmSystem &
    build(const SystemConfig &cfg)
    {
        _wallStart = wallNowNs();
        _start = cpuNowNs();
        SpanId id = spans.begin("core.construct", root);
        _sys = std::make_unique<DsmSystem>(cfg);
        spans.end(id);
        return *_sys;
    }

    DsmSystem &system() { return *_sys; }

    /** Machine and workload arrays are ready; events come next. */
    void
    setupDone()
    {
        _setupNs = cpuNowNs() - _start;
        _setupAllocs = allocCount();
    }

    /** Run @p fn (a call into the event loop) as one span. */
    template <typename Fn>
    void
    simulate(const char *name, SpanId parent, Fn &&fn)
    {
        SpanId id = spans.begin(name, parent);
        std::uint64_t a0 = allocCount();
        std::uint64_t t0 = cpuNowNs();
        fn(id);
        _simNs += cpuNowNs() - t0;
        _simAllocs += allocCount() - a0;
        spans.end(id);
    }

    /** Drain the event queue. */
    void
    drain(SpanId parent)
    {
        simulate("sim.run", parent,
                 [this](SpanId) { _sys->eq().run(); });
    }

    /** Destroy the machine; call after reading its counters. */
    void
    teardown()
    {
        SpanId id = spans.begin("core.teardown", root);
        std::uint64_t t0 = cpuNowNs();
        _sys.reset();
        std::uint64_t t1 = cpuNowNs();
        _wallNs = wallNowNs() - _wallStart;
        spans.end(id);
        _teardownNs = t1 - t0;
        _totalNs = t1 - _start;
        spans.end(root);
    }

    Fields
    host() const
    {
        return {{"cpu_s", double(_totalNs) * 1e-9},
                {"wall_s", double(_wallNs) * 1e-9},
                {"setup_s", double(_setupNs) * 1e-9},
                {"sim_cpu_s", double(_simNs) * 1e-9},
                {"teardown_s", double(_teardownNs) * 1e-9},
                {"peak_rss_mb", peakRssMb()},
                {"setup_allocs", double(_setupAllocs)},
                {"sim_allocs", double(_simAllocs)}};
    }

  private:
    std::unique_ptr<DsmSystem> _sys;
    std::uint64_t _wallStart = 0;
    std::uint64_t _start = 0;
    std::uint64_t _setupNs = 0;
    std::uint64_t _simNs = 0;
    std::uint64_t _teardownNs = 0;
    std::uint64_t _totalNs = 0;
    std::uint64_t _wallNs = 0;
    std::uint64_t _setupAllocs = 0;
    std::uint64_t _simAllocs = 0;
};

/** What a workload leaves behind for the report. */
struct Outcome
{
    RunStats run;    ///< zero when the workload has no Env run
    Fields fidelity; ///< printed, never gated
};

SystemConfig
baseConfig(unsigned nodes)
{
    SystemConfig cfg;
    cfg.numNodes = nodes;
    cfg.transport = TransportKind::Multistage;
    cfg.reliability = ReliabilityKind::Off;
    cfg.shards = 1;
    cfg.proto.protocol = ProtocolKind::Queuing;
    cfg.proto.runtimeChecks = false;
    return cfg;
}

/** Fisher-Yates shuffle driven by the sample's seed stream. */
template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/** Node ids 0 .. n-1 in a seeded order. */
std::vector<NodeId>
shuffledNodes(unsigned n, Rng &rng)
{
    std::vector<NodeId> v(n);
    for (NodeId i = 0; i < n; ++i)
        v[i] = i;
    shuffle(v, rng);
    return v;
}

// --- inval_fanout_1024 ----------------------------------------------

constexpr unsigned fanoutNodes = 1024;
constexpr unsigned fanoutRounds = 12;
constexpr NodeId fanoutWriter = 1;

/**
 * Each round: all 1024 nodes load one fresh block in the same tick
 * (a seeded issue order), so its home takes them as one burst,
 * parking some under the reservation bit, and the directory switches
 * to the bit-pattern; then node 1 stores (the paper's Fig. 10 probe at 1024 sharers);
 * then a seeded former sharer loads the block back.
 */
Outcome
runFanout(Harness &h, std::uint64_t seed)
{
    struct Round
    {
        Addr addr;
        std::uint64_t value;
        NodeId checker;
        std::vector<NodeId> order;
    };
    Rng rng(seed);
    std::vector<Round> rounds(fanoutRounds);
    for (unsigned r = 0; r < fanoutRounds; ++r) {
        Round &rd = rounds[r];
        // Any home but the writer, so the store's ownership request
        // crosses the network as in the paper's measurement.
        auto home = NodeId(rng.below(fanoutNodes - 1));
        if (home >= fanoutWriter)
            ++home;
        // One fresh block per round: distinct offsets per round.
        Addr off = Addr(r * 64 + rng.below(64)) * blockBytes +
                   8 * rng.below(blockBytes / 8);
        rd.addr = addr_map::makeShared(home, off);
        rd.value = rng.next() | 1;
        rd.checker = NodeId(rng.below(fanoutNodes - 1));
        if (rd.checker >= fanoutWriter)
            ++rd.checker;
        rd.order = shuffledNodes(fanoutNodes, rng);
    }

    DsmSystem &sys = h.build(baseConfig(fanoutNodes));
    h.setupDone();
    EventQueue &eq = sys.eq();

    /** State shared by one batch of access callbacks. */
    struct Batch
    {
        Harness *h;
        EventQueue *eq;
        SpanId parent;
        std::uint64_t expect;
        unsigned done = 0;
    };

    std::vector<std::uint64_t> storeLat;
    for (const Round &rd : rounds) {
        SpanId rs = h.spans.begin("workload.round", h.root);

        Batch loads{&h, &eq, rs, 0};
        for (NodeId n : rd.order) {
            Tick t0 = eq.now();
            sys.node(n).master().load(
                rd.addr, [b = &loads, t0](std::uint64_t v) {
                    ++b->done;
                    b->h->checks.expect(v == b->expect);
                    b->h->spans.sim("access.load", b->parent, t0,
                                    b->eq->now());
                });
        }
        h.drain(rs);
        for (unsigned i = loads.done; i < fanoutNodes; ++i)
            h.checks.expect(false);

        Batch store{&h, &eq, rs, rd.value};
        Tick t0 = eq.now();
        Tick storeDone = 0;
        sys.node(fanoutWriter)
            .master()
            .store(rd.addr, rd.value,
                   [b = &store, t0, &storeDone] {
                       ++b->done;
                       storeDone = b->eq->now();
                       b->h->spans.sim("access.store", b->parent, t0,
                                       storeDone);
                   });
        h.drain(rs);
        h.checks.expect(store.done == 1);
        storeLat.push_back(storeDone - t0);

        Batch check{&h, &eq, rs, rd.value};
        Tick t1 = eq.now();
        sys.node(rd.checker)
            .master()
            .load(rd.addr, [b = &check, t1](std::uint64_t v) {
                ++b->done;
                b->h->checks.expect(v == b->expect);
                b->h->spans.sim("access.load", b->parent, t1,
                                b->eq->now());
            });
        h.drain(rs);
        if (check.done != 1)
            h.checks.expect(false);
        h.spans.end(rs);
    }
    return Outcome{RunStats{},
                   {{"store_1024_ns",
                     double(percentile(storeLat, 50))}}};
}

// --- npb_cg_128 ------------------------------------------------------

constexpr unsigned cgNodes = 128;

SystemConfig
cgConfig(unsigned nodes)
{
    SystemConfig cfg = baseConfig(nodes);
    cfg.proto.cacheBytes = bench::appCacheBytes;
    return cfg;
}

/**
 * The scaled CG problem of the Fig. 11b/12 and Table 3 benches with
 * its row count moved by the seed, by at most 0.7%: the kernel's
 * column generator depends on the row count, so every seed gathers
 * from different columns for nearly the same work.
 */
NpbConfig
cgProblem(std::uint64_t seed)
{
    NpbConfig npb = bench::appConfig(AppKind::CG);
    npb.cgRows += 16 * unsigned(seed % 8);
    return npb;
}

/** NPB CG dsm(1) with data mappings on 128 nodes. */
Outcome
runCg(Harness &h, std::uint64_t seed, double expectChecksum)
{
    NpbConfig npb = cgProblem(seed);
    auto app = makeNpbApp(AppKind::CG, Variant::Dsm1, npb);
    DsmSystem &sys = h.build(cgConfig(cgNodes));
    h.setupDone();
    Outcome out;
    h.simulate("sim.run_npb", h.root,
               [&](SpanId) { out.run = runNpb(sys, *app); });
    double sum = app->checksum();
    h.checks.expect(std::isfinite(sum) &&
                    std::fabs(sum - expectChecksum) <=
                        1e-12 * std::fabs(expectChecksum));
    return out;
}

/** The Seq variant's checksum on one node: CG's reference output. */
double
cgReference(std::uint64_t seed)
{
    NpbConfig npb = cgProblem(seed);
    auto app = makeNpbApp(AppKind::CG, Variant::Seq, npb);
    DsmSystem sys(cgConfig(1));
    runNpb(sys, *app);
    return app->checksum();
}

// --- prodcons_direct_e2e --------------------------------------------

constexpr unsigned pcNodes = 256;
constexpr unsigned pcBlocks = 32;
constexpr unsigned pcRounds = 128;
/** Block b is homed on node b * pcHomeStride, spread over the machine. */
constexpr unsigned pcHomeStride = pcNodes / pcBlocks;

/**
 * Consumer-set sizes, dealt to the blocks of each round in a seeded
 * order: every seed loads the same total, only who loads what moves.
 */
constexpr unsigned pcConsumerSizes[] = {1, 2, 4, 8, 16, 32, 64, 3};

/**
 * In round r the blocks of parity r % 2 are stored by a producer
 * that rotates with r, while every block stored in round r - 1 is
 * loaded by its seeded consumer set (up to 64 nodes), so stores run
 * beside loads. One barrier ends a round; a block's next store
 * therefore invalidates the consumers of its previous value. Many
 * short rounds keep the simulated time within about 1% across seeds.
 */
Outcome
runProdCons(Harness &h, std::uint64_t seed)
{
    constexpr unsigned nsizes = std::size(pcConsumerSizes);
    Rng rng(seed);
    std::vector<NodeId> base = shuffledNodes(pcNodes, rng);
    // value[r][b] is meaningful when block b is stored in round r.
    std::vector<std::vector<std::uint64_t>> value(
        pcRounds, std::vector<std::uint64_t>(pcBlocks));
    // work[r][n]: (block, is_store) accesses of node n in round r.
    using Access = std::pair<unsigned, bool>;
    std::vector<std::vector<std::vector<Access>>> work(
        pcRounds + 1, std::vector<std::vector<Access>>(pcNodes));
    for (unsigned r = 0; r < pcRounds; ++r) {
        std::vector<unsigned> sizes;
        for (unsigned b = r % 2; b < pcBlocks; b += 2)
            sizes.push_back(pcConsumerSizes[(b / 2) % nsizes]);
        shuffle(sizes, rng);
        // Consumers are dealt from a shuffled deck of all nodes, so
        // each node loads the same number of blocks, +-1, per round.
        std::vector<NodeId> deck = shuffledNodes(pcNodes, rng);
        unsigned k = 0, next = 0;
        for (unsigned b = r % 2; b < pcBlocks; b += 2) {
            value[r][b] = rng.next() | 1;
            // base is a permutation: one store per producer a round.
            work[r][(base[b] + r) % pcNodes].push_back({b, true});
            for (unsigned c = 0; c < sizes[k]; ++c) {
                work[r + 1][deck[next]].push_back({b, false});
                next = (next + 1) % pcNodes;
            }
            ++k;
        }
    }

    SystemConfig cfg = baseConfig(pcNodes);
    cfg.transport = TransportKind::Direct;
    cfg.reliability = ReliabilityKind::E2e;
    DsmSystem &sys = h.build(cfg);
    // Block-cyclic placement homes array block i on node i.
    ShmArray arr = sys.shmAlloc(pcNodes * ShmArray::wordsPerBlock,
                                Mapping::blockCyclic());
    h.setupDone();

    Outcome out;
    h.simulate("sim.run", h.root, [&](SpanId run) {
        out.run = sys.run([&](Env &env) -> Task {
            const NodeId me = env.id();
            for (unsigned r = 0; r <= pcRounds; ++r) {
                for (auto [b, isStore] : work[r][me]) {
                    Addr a = arr.addrOf(b * pcHomeStride *
                                        ShmArray::wordsPerBlock);
                    Tick t0 = env.now();
                    if (isStore) {
                        co_await env.store(a, value[r][b]);
                        h.checks.expect(true);
                        h.spans.sim("access.store", run, t0,
                                    env.now());
                    } else {
                        std::uint64_t v = co_await env.load(a);
                        h.checks.expect(v == value[r - 1][b]);
                        h.spans.sim("access.load", run, t0,
                                    env.now());
                    }
                }
                co_await env.barrier();
            }
        });
    });
    return out;
}

// --- counters ----------------------------------------------------------

std::uint64_t
counterOf(const StatGroup &g, const char *name)
{
    for (const auto &[n, c] : g.counters()) {
        if (n == name)
            return c.value();
    }
    return 0;
}

double
sampleMeanOf(const StatGroup &g, const char *name)
{
    for (const auto &[n, s] : g.sampleStats()) {
        if (n == name)
            return s.mean();
    }
    return 0.0;
}

void
addGroup(Fields &raw, const StatGroup &g)
{
    for (const auto &[n, c] : g.counters())
        raw.push_back({g.name() + "." + n, double(c.value())});
    for (const auto &[n, s] : g.sampleStats()) {
        raw.push_back({g.name() + "." + n + ".count",
                       double(s.count())});
        raw.push_back({g.name() + "." + n + ".sum", s.sum()});
    }
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

template <typename Module>
using CounterTable = std::initializer_list<
    std::pair<const char *, Counter Module::*>>;

/** Every public Counter of the protocol modules, by report name. */
const CounterTable<MasterModule> masterCounters = {
    {"loads", &MasterModule::loads},
    {"stores", &MasterModule::stores},
    {"cache_hits", &MasterModule::cacheHits},
    {"cache_misses", &MasterModule::cacheMisses},
    {"miss_private", &MasterModule::missPrivate},
    {"miss_shared_local", &MasterModule::missSharedLocal},
    {"miss_shared_remote", &MasterModule::missSharedRemote},
    {"acc_private", &MasterModule::accPrivate},
    {"acc_shared_local", &MasterModule::accSharedLocal},
    {"acc_shared_remote", &MasterModule::accSharedRemote},
    {"writebacks", &MasterModule::writebacks},
    {"nack_retries", &MasterModule::nackRetries},
    {"ownership_reissues", &MasterModule::ownershipReissues},
    {"update_stores", &MasterModule::updateStores},
    {"atomic_ops", &MasterModule::atomicOps},
};
const CounterTable<HomeModule> homeCounters = {
    {"requests_processed", &HomeModule::requestsProcessed},
    {"requests_queued", &HomeModule::requestsQueued},
    {"nacks_sent", &HomeModule::nacksSent},
    {"inval_multicasts", &HomeModule::invalidationMulticasts},
    {"inval_unicasts", &HomeModule::invalidationUnicasts},
    {"writebacks_processed", &HomeModule::writebacksProcessed},
    {"gather_waits", &HomeModule::gatherWaits},
    {"atomics_processed", &HomeModule::atomicsProcessed},
};
const CounterTable<SlaveModule> slaveCounters = {
    {"invalidations_received", &SlaveModule::invalidationsReceived},
    {"forwards_received", &SlaveModule::forwardsReceived},
    {"updates_received", &SlaveModule::updatesReceived},
    {"mem_overflowed", &SlaveModule::memOverflowed},
    {"self_inv_filtered", &SlaveModule::selfInvFiltered},
};

/** Add "<prefix>.<name>" = the sum over all nodes of each counter. */
template <typename Module>
void
addNodeCounters(Fields &raw, DsmSystem &sys, const char *prefix,
                Module &(DsmNode::*module)(),
                CounterTable<Module> table)
{
    for (auto [name, field] : table) {
        std::uint64_t total = 0;
        for (NodeId n = 0; n < sys.numNodes(); ++n)
            total += ((sys.node(n).*module)().*field).value();
        raw.push_back({std::string(prefix) + "." + name, double(total)});
    }
}

double
valueOf(const Fields &f, const std::string &name)
{
    for (const auto &[n, v] : f) {
        if (n == name)
            return v;
    }
    return 0.0;
}

/**
 * Read every public counter of the machine. @p raw gets all of them
 * (the determinism fingerprint); @p layer gets the per-layer metrics
 * the benchmark reports.
 */
void
collect(DsmSystem &sys, const Outcome &out, const Harness &h,
        Fields &raw, Fields &layer)
{
    SampleStat loadMiss, storeMiss, queueDepth;
    std::uint64_t sent = 0;
    for (NodeId n = 0; n < sys.numNodes(); ++n) {
        DsmNode &node = sys.node(n);
        loadMiss.merge(node.master().loadMissLatency);
        storeMiss.merge(node.master().storeMissLatency);
        queueDepth.merge(node.home().queueWaitDepth);
        sent += node.sentCount();
    }

    ReliableTransport *rel = sys.reliableLayer();
    Transport &fabric = rel ? rel->inner() : sys.transport();
    const StatGroup &fs = fabric.stats();

    raw = {{"sim.time_ns", double(sys.eq().now())},
           {"sim.events", double(sys.eq().executed())},
           {"checks.attempted", double(h.checks.attempted)},
           {"checks.failed", double(h.checks.failed)},
           {"master.load_miss.count", double(loadMiss.count())},
           {"master.load_miss.sum", loadMiss.sum()},
           {"master.store_miss.count", double(storeMiss.count())},
           {"master.store_miss.sum", storeMiss.sum()},
           {"home.queue_depth.count", double(queueDepth.count())},
           {"home.queue_depth.sum", queueDepth.sum()},
           {"node.sent", double(sent)},
           {"run.exec_ns", double(out.run.execTime)},
           {"run.mem_ns", double(out.run.memTime)},
           {"run.sync_ns", double(out.run.syncTime)},
           {"run.comm_ns", double(out.run.commTime)},
           {"run.compute_ns", double(out.run.computeTime)},
           {"run.instructions", double(out.run.instructions)},
           {"run.mem_accesses", double(out.run.memAccesses)},
           {"run.cache_misses", double(out.run.cacheMisses)}};
    addNodeCounters(raw, sys, "master", &DsmNode::master,
                    masterCounters);
    addNodeCounters(raw, sys, "home", &DsmNode::home, homeCounters);
    addNodeCounters(raw, sys, "slave", &DsmNode::slave, slaveCounters);
    addGroup(raw, fs);
    if (rel)
        addGroup(raw, rel->stats());

    const TransportKind kind = sys.config().transport;
    auto fabricCounter = [&](TransportKind k, const char *name) {
        return kind == k ? double(counterOf(fs, name)) : 0.0;
    };
    auto relCounter = [&](const char *name) {
        return rel ? double(counterOf(rel->stats(), name)) : 0.0;
    };
    auto node = [&](const char *name) { return valueOf(raw, name); };
    double hits = node("master.cache_hits");
    double misses = node("master.cache_misses");
    double nodeTime = double(out.run.execTime) * sys.numNodes();
    auto loadLat = h.spans.durations("access.load");
    auto storeLat = h.spans.durations("access.store");
    constexpr auto multistage = TransportKind::Multistage;
    constexpr auto direct = TransportKind::Direct;

    layer = {
        {"sim.events", double(sys.eq().executed())},
        {"network.injected", fabricCounter(multistage, "injected")},
        {"network.multicast_copies",
         fabricCounter(multistage, "multicast_copies")},
        {"network.gather_absorbed",
         fabricCounter(multistage, "gather_absorbed")},
        {"network.latency_ns_mean",
         kind == multistage ? sampleMeanOf(fs, "latency_ns") : 0.0},
        {"transport.injected", fabricCounter(direct, "injected")},
        {"transport.multicast_copies",
         fabricCounter(direct, "multicast_copies")},
        {"transport.gather_absorbed",
         fabricCounter(direct, "gather_absorbed")},
        {"reliable.data_sent", relCounter("data_sent")},
        {"reliable.acks", relCounter("acks")},
        {"reliable.gather_merged", relCounter("gather_merged")},
        {"reliable.retransmits", relCounter("retransmits")},
        {"reliable.acks_per_data",
         ratio(relCounter("acks"), relCounter("data_sent"))},
        {"protocol.loads", node("master.loads")},
        {"protocol.stores", node("master.stores")},
        {"protocol.miss_ratio", ratio(misses, hits + misses)},
        {"protocol.load_miss_ns_mean", loadMiss.mean()},
        {"protocol.store_miss_ns_mean", storeMiss.mean()},
        {"protocol.home_queued", node("home.requests_queued")},
        {"protocol.home_queue_depth_mean", queueDepth.mean()},
        {"protocol.inval_multicasts", node("home.inval_multicasts")},
        {"protocol.inval_unicasts", node("home.inval_unicasts")},
        {"protocol.gather_waits", node("home.gather_waits")},
        {"protocol.invalidations_received",
         node("slave.invalidations_received")},
        {"policy.nack_retries", node("master.nack_retries")},
        {"policy.ownership_reissues",
         node("master.ownership_reissues")},
        {"env.mem_frac", ratio(double(out.run.memTime), nodeTime)},
        {"env.sync_frac", ratio(double(out.run.syncTime), nodeTime)},
        {"env.comm_frac", ratio(double(out.run.commTime), nodeTime)},
        {"access.load_ns_p50", double(percentile(loadLat, 50))},
        {"access.load_ns_p99", double(percentile(loadLat, 99))},
        {"access.store_ns_p50", double(percentile(storeLat, 50))},
        {"access.store_ns_p99", double(percentile(storeLat, 99))},
    };
}

// --- output --------------------------------------------------------------

void
printObject(const char *key, const Fields &f, bool last = false)
{
    std::printf("\"%s\":{", key);
    for (std::size_t i = 0; i < f.size(); ++i) {
        std::printf("%s\"%s\":%.17g", i ? "," : "",
                    f[i].first.c_str(), f[i].second);
    }
    std::printf("}%s", last ? "" : ",");
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_sampler: %s\nusage: perfbench_sampler "
                 "--workload inval_fanout_1024|npb_cg_128|"
                 "prodcons_direct_e2e --seed N [--trace-out FILE] "
                 "[--expect-checksum X] [--reference]\n",
                 msg);
    std::exit(2);
}

int
mainImpl(int argc, char **argv)
{
    std::string workload, traceOut;
    std::uint64_t seed = 0;
    bool haveSeed = false, reference = false;
    double expectChecksum = std::nan("");
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            workload = value();
        } else if (a == "--seed") {
            char *end = nullptr;
            const char *v = value();
            seed = std::strtoull(v, &end, 10);
            if (!*v || *end)
                usage("--seed takes a non-negative integer");
            haveSeed = true;
        } else if (a == "--trace-out") {
            traceOut = value();
        } else if (a == "--expect-checksum") {
            char *end = nullptr;
            const char *v = value();
            expectChecksum = std::strtod(v, &end);
            if (!*v || *end)
                usage("--expect-checksum takes a number");
        } else if (a == "--reference") {
            reference = true;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }

    if (!haveSeed)
        usage("--seed is required");
    if (reference) {
        if (workload != "npb_cg_128")
            usage("--reference is defined for npb_cg_128 only");
        std::printf("{\"checksum\":%.17g}\n", cgReference(seed));
        return 0;
    }

    Harness h(!traceOut.empty());
    Outcome out;
    if (workload == "inval_fanout_1024") {
        out = runFanout(h, seed);
    } else if (workload == "npb_cg_128") {
        if (std::isnan(expectChecksum))
            usage("npb_cg_128 needs --expect-checksum (from "
                  "--reference)");
        out = runCg(h, seed, expectChecksum);
    } else if (workload == "prodcons_direct_e2e") {
        out = runProdCons(h, seed);
    } else {
        usage(("unknown workload \"" + workload + "\"").c_str());
    }

    // A dead link is a failed delivery even if the protocol's
    // retries let every check pass.
    if (ReliableTransport *rel = h.system().reliableLayer())
        h.checks.failed += counterOf(rel->stats(), "links_dead");
    Fields raw, layer;
    collect(h.system(), out, h, raw, layer);
    h.teardown();

    if (!traceOut.empty() && !h.spans.writeJson(traceOut)) {
        std::fprintf(stderr, "perfbench_sampler: cannot write %s\n",
                     traceOut.c_str());
        return 1;
    }

    std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"traced\":%s,",
                workload.c_str(), (unsigned long long)seed,
                traceOut.empty() ? "false" : "true");
    std::printf("\"attempted\":%llu,\"failed\":%llu,",
                (unsigned long long)h.checks.attempted,
                (unsigned long long)h.checks.failed);
    printObject("host", h.host());
    printObject("counters", raw);
    printObject("layer", layer);
    printObject("fidelity", out.fidelity, true);
    std::printf("}\n");
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::mainImpl(argc, argv);
}
