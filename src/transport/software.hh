/**
 * @file
 * Analytical (non-switched) Transport backends.
 *
 * Both backends here model an interconnect as a fixed-latency pipe
 * per message — injection queue, serializing source port, a single
 * end-to-end latency equal to the multistage fabric's *uncontended*
 * path (injectLatency + stages * stageLatency + ejectLatency), and
 * a delivery queue per destination — without modelling any internal
 * switch contention:
 *
 *  - IdealTransport keeps the fabric's hardware multicast and
 *    gathering semantics (one injection covers the whole NodeSet,
 *    sibling replies merge before delivery) but removes all
 *    contention. It bounds every figure from below: whatever it
 *    reports is the protocol-limited latency.
 *
 *  - DirectTransport is the paper's "without multicast/gathering"
 *    baseline (Figure 10's upper curve): a multicast expands into a
 *    sender-side loop of point-to-point packets, each paying its own
 *    port occupancy, and gather replies arrive as N individual
 *    messages that the destination counts in software — the receive
 *    port serializes them, charging per-reply processing time.
 *
 * Both still honor the full Transport contract (back-pressure,
 * check/fault hooks, per-source-destination ordering), so stress,
 * modelcheck and the invariant engine run unchanged on top of them.
 */

#ifndef CENJU_TRANSPORT_SOFTWARE_HH
#define CENJU_TRANSPORT_SOFTWARE_HH

#include <deque>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/hashing.hh"
#include "sim/stats.hh"
#include "transport/combine_ledger.hh"
#include "transport/net_config.hh"
#include "transport/software_fanout.hh"
#include "transport/transport.hh"

namespace cenju
{

/** Shared machinery of the analytical backends. */
class SoftwareTransport : public Transport
{
  public:
    unsigned numNodes() const override { return _cfg.numNodes; }
    EventQueue &eventQueue() override { return _eq; }

    /** Refreshes the group from per-node state, then returns it. */
    StatGroup &stats() override;

    const NetConfig &config() const { return _cfg; }

    void attach(NodeId n, Endpoint *ep) override;
    bool tryInject(PacketPtr &&pkt) override;
    void deliveryRetry(NodeId n) override;
    void faultInjectRetry(NodeId n) override;

    /**
     * One message takes at least the uncontended pipe to become
     * visible at another node, so the pipe latency is a valid
     * conservative sharding lookahead.
     */
    Tick minCrossShardLatency() const override
    {
        return _pipeLatency;
    }

    bool bindShards(shard::Router *router) override;

    unsigned injectCapacity(NodeId n) const override;

    unsigned
    injectBacklog(NodeId n) const override
    {
        const Injector &inj = _injectors[n];
        return static_cast<unsigned>(inj.q.size() +
                                     inj.fanout.size());
    }

    std::uint64_t injectedCount() const override
    {
        std::uint64_t sum = 0;
        for (const Injector &inj : _injectors)
            sum += inj.injected;
        return sum;
    }

    std::uint64_t deliveredCount() const override
    {
        std::uint64_t sum = 0;
        for (const DeliveryPort &p : _ports)
            sum += p.delivered;
        return sum;
    }

  protected:
    /**
     * @param software_fanout expand multicasts into serial unicasts
     *        (DirectTransport) instead of delivering the whole set
     *        from one injection (IdealTransport).
     * @param serialize_eject charge per-packet software processing
     *        time at the destination port (reply counting in
     *        software) instead of accepting back-to-back arrivals.
     */
    SoftwareTransport(EventQueue &eq, const NetConfig &cfg,
                      bool software_fanout, bool serialize_eject,
                      const char *stat_name);

  private:
    /**
     * Ideal's hardware combining station at the home's interface:
     * while one request per key is outstanding at the endpoint, the
     * next becomes pending and later arrivals fold into it, so a
     * hot-spot storm completes in two home visits regardless of N.
     * Presence of a station means a request is outstanding.
     */
    struct HwStation
    {
        /** Ticket of the request currently at the home. A reply
         * for any other ticket (a mixed-op request delivered
         * serially past the station) must not release pending. */
        std::uint64_t outstandingTicket = 0;
        PacketPtr pending;
        /** Merges folded into this key's aggregates, by rep. */
        CombineLedger records;
    };

    /**
     * Direct's per-node software combiner: same-key requests from
     * this node's tree subtree buffered for swCombineWindow, then
     * forwarded as one merged packet toward the tree parent. All
     * state is per-node so sharding ownership holds.
     */
    struct SwCombiner
    {
        /** An aggregate being built and the node its rep came from. */
        struct Pending
        {
            PacketPtr agg;
            NodeId from = invalidNode;
        };

        /** combineKey -> aggregate being built. */
        std::unordered_map<std::uint64_t, Pending, U64MixHash> pending;
        /** Merges performed here, taken on the reply descent. */
        CombineLedger records;
        /** Forwarded ticket -> where its reply should continue. */
        std::unordered_map<std::uint64_t, NodeId, U64MixHash>
            fwdFrom;
    };

    /**
     * Per-source injection queue and serializing port. All mutable
     * transmit-side state — including statistics and the packet-id
     * sequence — lives here (not in transport-wide members) so that
     * under sharding every field is only ever touched from the
     * source node's owning shard.
     */
    struct Injector
    {
        std::deque<PacketPtr> q;
        /** Unicast expansion of the multicast in flight (direct). */
        std::deque<PacketPtr> fanout;
        bool busy = false;
        bool wasFull = false; ///< owner needs a space callback
        std::uint64_t injected = 0;
        std::uint64_t multicastCopies = 0;
        std::uint64_t nextPacketId = 1;
    };

    /**
     * Per-destination delivery queue and (optional) serializer.
     * Receive-side statistics and gather merges live here for the
     * same shard-ownership reason as Injector's.
     */
    struct DeliveryPort
    {
        std::deque<PacketPtr> q;
        bool busy = false;    ///< serialized processing in progress
        bool pumping = false; ///< re-entrancy guard
        std::uint64_t delivered = 0;
        std::uint64_t gatherAbsorbed = 0;
        std::uint64_t gatherForwarded = 0;
        SampleStat latency;
        GatherCountdown gathers;
        /** Ideal: combining stations, keyed by combineKey. */
        std::unordered_map<std::uint64_t, HwStation, U64MixHash>
            stations;
    };

    void pumpInjector(NodeId n);
    void sendOne(Injector &inj, NodeId n, PacketPtr pkt);
    void arrive(NodeId dst, PacketPtr pkt);
    void pumpDelivery(NodeId dst);

    /**
     * Schedule @p pkt's arrival at @p dst for tick @p when, sent by
     * @p src: through the shard router when sharded (crossing shards
     * if @p dst lives on another), else on the one event queue.
     */
    void routeArrival(NodeId src, NodeId dst, Tick when,
                      PacketPtr pkt);

    // --- combinable atomics (ROADMAP item 4) ----------------------

    /** Ideal: reply leaves the home via the hardware primitive. */
    void hwCombineReply(NodeId home, PacketPtr pkt);

    /**
     * Ideal: combinable request reaching the home's station.
     * @retval true if consumed (merged or parked); false means the
     * caller should deliver it (a station now tracks it).
     */
    bool hwCombineArrive(NodeId dst, PacketPtr &pkt);

    /** Direct: tree parent of @p x for requests homed at @p home. */
    NodeId swParent(NodeId x, NodeId home) const;

    /** Direct: request enters node @p x's software combiner. */
    void swCombineAccept(NodeId x, PacketPtr pkt);

    /** Direct: flush window expired; forward the aggregate. */
    void swCombineFlush(NodeId x, std::uint64_t key);

    /** Direct: reply descending the software tree reaches @p x. */
    void swReplyArrive(NodeId x, PacketPtr pkt);

    /** Direct: send @p pkt through @p x's injector (tree hop). */
    void swForward(NodeId x, PacketPtr pkt);

    /** Deliver at @p x's port (normal reserve/serialize path). */
    void deliverLocal(NodeId x, PacketPtr pkt);

    /** Clock node @p n's events run on (shard-aware). */
    EventQueue &queueOf(NodeId n);
    Tick nowOf(NodeId n);

    unsigned effectiveInjectCapacity(NodeId n) const;

    EventQueue &_eq;
    NetConfig _cfg;
    const bool _softwareFanout;
    const bool _serializeEject;
    Tick _pipeLatency;
    shard::Router *_router = nullptr;

    std::vector<Injector> _injectors;
    std::vector<DeliveryPort> _ports;
    std::vector<Endpoint *> _endpoints;

    /** Direct: per-node software combiners (empty on ideal). */
    std::vector<SwCombiner> _combiners;

    StatGroup _stats;
    Counter &_injectedCtr;
    Counter &_deliveredCtr;
    Counter &_multicastCopies;
    Counter &_gatherAbsorbed;
    Counter &_gatherForwarded;
    SampleStat &_latency;
};

/**
 * Zero-contention fabric with hardware multicast/gathering
 * (TransportKind::Ideal): the protocol-limit lower bound.
 */
class IdealTransport final : public SoftwareTransport
{
  public:
    IdealTransport(EventQueue &eq, const NetConfig &cfg)
        : SoftwareTransport(eq, cfg, /*software_fanout=*/false,
                            /*serialize_eject=*/false, "ideal")
    {}

    const char *name() const override { return "ideal"; }
};

/**
 * Point-to-point-only interconnect (TransportKind::Direct): the
 * paper's "without multicast/gathering" baseline. Multicasts become
 * sender-side unicast loops; gather replies are counted in software
 * at a serializing receive port.
 */
class DirectTransport final : public SoftwareTransport
{
  public:
    DirectTransport(EventQueue &eq, const NetConfig &cfg)
        : SoftwareTransport(eq, cfg, /*software_fanout=*/true,
                            /*serialize_eject=*/true, "direct")
    {}

    const char *name() const override { return "direct"; }
};

} // namespace cenju

#endif // CENJU_TRANSPORT_SOFTWARE_HH
