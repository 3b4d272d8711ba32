/**
 * @file
 * The multistage interconnection network: switches, per-node
 * injection queues, ejection flow control and statistics.
 *
 * Features modelled after the paper (section 2):
 *  - in-order message delivery between any two nodes (unique path +
 *    FIFO crosspoint buffers),
 *  - multicast and gathering functions,
 *  - freedom from deadlock inside the network (feed-forward stages
 *    with crosspoint buffers). Note that *ejection* can still block
 *    on a full endpoint — that back-pressure is exactly what the
 *    protocol-level deadlock-prevention buffers of section 3.4
 *    resolve.
 */

#ifndef CENJU_NETWORK_NETWORK_HH
#define CENJU_NETWORK_NETWORK_HH

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "transport/net_config.hh"
#include "network/topology.hh"
#include "network/xbar_switch.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "transport/transport.hh"

namespace cenju
{

/**
 * One omega-network instance connecting up to 1024 nodes: the
 * Transport backend that models the paper's fabric cycle-by-cycle
 * (TransportKind::Multistage).
 */
class Network final : public Transport
{
  public:
    Network(EventQueue &eq, const NetConfig &cfg);
    ~Network() override;

    const char *name() const override { return "multistage"; }

    /** Attach @p ep as node @p n's interface. */
    void attach(NodeId n, Endpoint *ep) override;

    /**
     * Submit a packet for transmission from pkt->src.
     * @retval false if the node's injection queue is full; the
     * packet is left untouched in @p pkt (so callers can retry) and
     * the endpoint is notified via injectSpaceAvailable() later.
     */
    bool tryInject(PacketPtr &&pkt) override;

    /** Endpoint signals that refused deliveries can be retried. */
    void deliveryRetry(NodeId n) override;

    const Topology &topology() const { return _topo; }
    const NetConfig &config() const { return _cfg; }
    unsigned numNodes() const override { return _cfg.numNodes; }
    EventQueue &eventQueue() override { return _eq; }

    /**
     * The multistage fabric cannot be sharded: pumpInjector mutates
     * stage-0 switch state synchronously with the injecting node, and
     * ejection calls endpoints synchronously from switch arbitration,
     * so there is no latency floor between one node's action and
     * another node's state. Explicit 0 = "do not shard me"; a sharded
     * SystemConfig falls back to one shard on this backend.
     */
    Tick minCrossShardLatency() const override { return 0; }

    StatGroup &stats() override { return _stats; }

    /**
     * A fault window squeezing node @p n's injection queue closed:
     * re-run the endpoint's space callback if it was refused while
     * the squeeze was active.
     */
    void faultInjectRetry(NodeId n) override;

    unsigned
    injectCapacity(NodeId n) const override
    {
        return effectiveInjectCapacity(n);
    }

    unsigned
    injectBacklog(NodeId n) const override
    {
        return _injectors[n].q.size();
    }

    FabricShape
    fabricShape() const override
    {
        return {_topo.stages(), _topo.rowsPerStage()};
    }

    /** A no-op on an unbuilt switch: no packet can reach it. */
    void
    fabricKick(unsigned stage, unsigned row) override
    {
        if (XbarSwitch *sw = findSwitch(stage, row))
            sw->faultKick();
    }

    /** Packets accepted for transmission so far. */
    std::uint64_t injectedCount() const override { return _injected; }

    /** Packets handed to endpoints so far. */
    std::uint64_t deliveredCount() const override
    {
        return _delivered;
    }

    // --- interface used by XbarSwitch -----------------------------

    /** Final-stage reserve toward endpoint @p n. */
    bool ejectReserve(NodeId n, const Packet &pkt);

    /** Final-stage delivery of a reserved packet to endpoint @p n. */
    void ejectDeliver(NodeId n, PacketPtr pkt);

    /** Remember a final-stage output blocked on endpoint @p n. */
    void registerEjectWaiter(NodeId n, XbarSwitch *sw, unsigned out);

    Counter &multicastCopies() { return _multicastCopies; }
    Counter &gatherAbsorbed() { return _gatherAbsorbed; }
    Counter &gatherForwarded() { return _gatherForwarded; }
    Counter &combineMerged() { return _combineMerged; }
    Counter &combineSkipped() { return _combineSkipped; }
    Counter &combineDecombined() { return _combineDecombined; }

    /**
     * Switch at (stage, row), or nullptr if it lies on no route and
     * was therefore not built (Topology::routed).
     */
    XbarSwitch *
    findSwitch(unsigned stage, unsigned row)
    {
        if (stage >= _stageBase.size() || !_topo.routed(stage, row))
            return nullptr;
        unsigned a = row >> (2 * stage);
        unsigned b = row & ((1u << (2 * stage)) - 1);
        return &*_switches[_stageBase[stage] +
                           a * _topo.routedRows(stage).dstPrefixes + b];
    }

    /** Built switch at (stage, row) — exposed for tests. */
    XbarSwitch &switchAt(unsigned stage, unsigned row);

    /** Call @p fn on every built switch in (stage, row) order. */
    template <typename Fn>
    void
    forEachSwitch(Fn &&fn)
    {
        for (std::optional<XbarSwitch> &sw : _switches)
            fn(*sw);
    }

  private:
    /** Per-node injection queue and serializer. */
    struct Injector
    {
        PacketRing q;
        bool busy = false;
        bool waitingSpace = false; ///< blocked on stage-0 buffer
        bool wasFull = false;      ///< owner needs a space callback
        XbarSwitch *sw0 = nullptr; ///< stage-0 switch it feeds
        unsigned swPort = 0;
    };

    /** A final-stage output blocked on a full endpoint. */
    struct EjectWaiter
    {
        NodeId node;
        XbarSwitch *sw;
        unsigned out;
    };

    void pumpInjector(NodeId n);

    /**
     * Combined-reply descent (ROADMAP item 4): retrace the request
     * route home -> requester through stages [stage..0], consuming
     * combining records and spawning absorbed requesters' replies,
     * then eject. Modeled as the switch's dedicated return channel:
     * per-hop stageLatency (+ gatherMergeLatency per decombine) with
     * no crosspoint contention — the request path keeps full
     * contention and the home is charged once per *merged* packet,
     * which is where the O(log N) win lives (docs/ARCHITECTURE.md).
     */
    void descendReply(PacketPtr pkt, int stage);

    /** Final hop of a descent: reserve-or-park, then deliver. */
    void deliverCombinedReply(NodeId n, PacketPtr pkt);

    EventQueue &_eq;
    NetConfig _cfg;
    Topology _topo;
    /**
     * Packet slots of every crosspoint buffer, then of every
     * injection queue: the rings index into it, so it outlives
     * them.
     */
    std::unique_ptr<PacketPtr[]> _slots;
    /**
     * The routed switches in (stage, row) order, built in place:
     * wiring and callbacks hold their addresses.
     */
    std::vector<std::optional<XbarSwitch>> _switches;
    /** Index in _switches of each stage's first switch. */
    std::vector<unsigned> _stageBase;
    std::vector<Injector> _injectors;
    std::vector<Endpoint *> _endpoints;
    std::vector<EjectWaiter> _ejectWaiters;

    /**
     * Combined replies refused at the endpoint, per node; sized on
     * the first park.
     */
    std::vector<std::deque<PacketPtr>> _combineParked;

    /** Injection-queue capacity with any active fault squeeze. */
    unsigned effectiveInjectCapacity(NodeId n) const;

    StatGroup _stats{"network"};
    Counter &_injectedCtr;
    Counter &_deliveredCtr;
    Counter &_multicastCopies;
    Counter &_gatherAbsorbed;
    Counter &_gatherForwarded;
    Counter &_combineMerged;
    Counter &_combineSkipped;
    Counter &_combineDecombined;
    SampleStat &_latency;
    std::uint64_t _injected = 0;
    std::uint64_t _delivered = 0;
    std::uint64_t _nextPacketId = 1;
};

} // namespace cenju

#endif // CENJU_NETWORK_NETWORK_HH
