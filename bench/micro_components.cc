/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's hot
 * components: directory encode/decode, node-set operations,
 * topology routing, and end-to-end simulated message cost (host
 * time per simulated packet). These guard the simulator's own
 * performance; the paper-reproduction numbers live in the table
 * and figure benches.
 */

#include <benchmark/benchmark.h>

#include "directory/cenju_node_map.hh"
#include "directory/node_map.hh"
#include "network/network.hh"
#include "sim/rng.hh"

namespace cenju
{
namespace
{

void
BM_BitPatternAdd(benchmark::State &state)
{
    Rng rng(1);
    std::vector<NodeId> ids(1024);
    for (auto &v : ids)
        v = static_cast<NodeId>(rng.below(1024));
    std::size_t i = 0;
    BitPattern p;
    for (auto _ : state) {
        p.add(ids[i++ & 1023]);
        benchmark::DoNotOptimize(p);
    }
}
BENCHMARK(BM_BitPatternAdd);

void
BM_BitPatternDecode1024(benchmark::State &state)
{
    BitPattern p;
    Rng rng(2);
    for (auto v : rng.sampleDistinct(32, 1024))
        p.add(v);
    for (auto _ : state) {
        NodeSet s = p.decode(1024);
        benchmark::DoNotOptimize(s);
    }
}
BENCHMARK(BM_BitPatternDecode1024);

void
BM_CenjuMapPackUnpack(benchmark::State &state)
{
    CenjuNodeMap m;
    Rng rng(3);
    for (auto v : rng.sampleDistinct(
             static_cast<std::uint32_t>(state.range(0)), 1024))
        m.add(v);
    for (auto _ : state) {
        std::uint64_t raw = m.pack();
        CenjuNodeMap u = CenjuNodeMap::unpackMap(raw);
        benchmark::DoNotOptimize(u);
    }
}
BENCHMARK(BM_CenjuMapPackUnpack)->Arg(2)->Arg(8)->Arg(64);

void
BM_TopologyHop(benchmark::State &state)
{
    Topology topo(static_cast<unsigned>(state.range(0)));
    Rng rng(4);
    for (auto _ : state) {
        NodeId s =
            static_cast<NodeId>(rng.below(topo.numNodes()));
        NodeId d =
            static_cast<NodeId>(rng.below(topo.numNodes()));
        for (unsigned st = 0; st < topo.stages(); ++st) {
            RouteHop h = topo.hop(s, d, st);
            benchmark::DoNotOptimize(h);
        }
    }
}
BENCHMARK(BM_TopologyHop)->Arg(16)->Arg(128)->Arg(1024);

/** Host cost of simulating one unicast end to end. */
void
BM_SimulatedUnicast(benchmark::State &state)
{
    struct P : Packet
    {
        std::unique_ptr<Packet>
        clone() const override
        {
            return std::make_unique<P>(*this);
        }
    };
    class Sink : public Endpoint
    {
      public:
        bool reserveDelivery(const Packet &) override
        {
            return true;
        }
        void deliver(PacketPtr) override {}
    };

    EventQueue eq;
    NetConfig cfg;
    cfg.numNodes = static_cast<unsigned>(state.range(0));
    Network net(eq, cfg);
    std::vector<std::unique_ptr<Sink>> sinks;
    for (NodeId n = 0; n < cfg.numNodes; ++n) {
        sinks.push_back(std::make_unique<Sink>());
        net.attach(n, sinks.back().get());
    }
    Rng rng(5);
    for (auto _ : state) {
        auto pkt = std::make_unique<P>();
        pkt->src = static_cast<NodeId>(rng.below(cfg.numNodes));
        pkt->dest = DestSpec::unicast(
            static_cast<NodeId>(rng.below(cfg.numNodes)));
        net.tryInject(std::move(pkt));
        eq.run();
    }
}
BENCHMARK(BM_SimulatedUnicast)->Arg(16)->Arg(128)->Arg(1024);

} // namespace
} // namespace cenju

BENCHMARK_MAIN();
