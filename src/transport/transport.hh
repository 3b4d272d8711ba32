/**
 * @file
 * The interconnect abstraction the protocol stack is written
 * against (docs/ARCHITECTURE.md).
 *
 * A Transport moves Packets between node Endpoints: unicast,
 * multicast to the set a DestSpec encodes, and in-flight merging of
 * gathered replies (one merged delivery per gather group). The
 * protocol engines, the node dispatch logic, and the message-passing
 * layer talk only to this interface; the concrete fabric — the
 * paper's multistage crossbar network, an idealised zero-contention
 * pipe, or a point-to-point-only interconnect — is a backend chosen
 * at system construction (transport/factory.hh).
 *
 * The contract every backend must honor (tests/test_transport.cc):
 *  - deliveries between one (source, destination) pair stay in
 *    injection order;
 *  - a multicast reaches exactly the nodes its DestSpec decodes to,
 *    once each;
 *  - the sibling replies of a gather (same gatherId, shared
 *    gatherGroup, same destination) merge into a single delivery;
 *  - back-pressure round-trips: tryInject() may refuse and must
 *    later fire Endpoint::injectSpaceAvailable(); a refused
 *    reserveDelivery() parks the packet until deliveryRetry();
 *  - the check hook observes every delivery and the fault hook's
 *    squeeze/hold queries are consulted, so stress and invariant
 *    checking work on any backend.
 *
 * Header-only on purpose: backends (cenju_transport, cenju_network)
 * and consumers (cenju_protocol, cenju_msgpass) can all include it
 * without a link-time cycle.
 */

#ifndef CENJU_TRANSPORT_TRANSPORT_HH
#define CENJU_TRANSPORT_TRANSPORT_HH

#include "check/hooks.hh"
#include "fault/hooks.hh"
#include "sim/parse.hh"
#include "transport/combine.hh"
#include "transport/packet.hh"

namespace cenju
{

class EventQueue;
class StatGroup;

namespace shard
{
class Router;
}

/**
 * A node's attachment to the transport (the controller chip's
 * network interface). Delivery uses a reserve/deliver pair so that
 * finite input buffers exert back-pressure into the fabric.
 */
class Endpoint
{
  public:
    virtual ~Endpoint() = default;

    /**
     * Claim input-buffer space for an incoming packet.
     * @retval false if the endpoint cannot accept now; it must call
     * Transport::deliveryRetry() once space frees.
     */
    virtual bool reserveDelivery(const Packet &pkt) = 0;

    /** Hand over a packet whose space was reserved. */
    virtual void deliver(PacketPtr pkt) = 0;

    /** A previously full injection queue has space again. */
    virtual void injectSpaceAvailable() {}
};

/** Abstract interconnect connecting up to 1024 node endpoints. */
class Transport
{
  public:
    virtual ~Transport() = default;

    Transport(const Transport &) = delete;
    Transport &operator=(const Transport &) = delete;

    /** Backend name ("multistage", "ideal", "direct", ...). */
    virtual const char *name() const = 0;

    /** Real endpoints this instance connects. */
    virtual unsigned numNodes() const = 0;

    /** Simulation clock all latencies are charged against. */
    virtual EventQueue &eventQueue() = 0;

    /** Attach @p ep as node @p n's interface. */
    virtual void attach(NodeId n, Endpoint *ep) = 0;

    /**
     * Submit a packet for transmission from pkt->src.
     * @retval false if the node's injection queue is full; the
     * packet is left untouched in @p pkt (so callers can retry) and
     * the endpoint is notified via injectSpaceAvailable() later.
     */
    virtual bool tryInject(PacketPtr &&pkt) = 0;

    /** Endpoint signals that refused deliveries can be retried. */
    virtual void deliveryRetry(NodeId n) = 0;

    // --- capacity / back-pressure queries --------------------------

    /**
     * Node @p n's injection-queue capacity right now (after any
     * active fault squeeze).
     */
    virtual unsigned injectCapacity(NodeId n) const = 0;

    /** Packets waiting in node @p n's injection queue. */
    virtual unsigned injectBacklog(NodeId n) const = 0;

    /** Packets accepted for transmission so far. */
    virtual std::uint64_t injectedCount() const = 0;

    /** Packets handed to endpoints so far. */
    virtual std::uint64_t deliveredCount() const = 0;

    /** Backend statistics (injected/delivered/latency/...). */
    virtual StatGroup &stats() = 0;

    /** Decoded destination set of @p pkt (cached in the packet). */
    const NodeSet &
    decodedDest(const Packet &pkt) const
    {
        if (!pkt.decodedDestValid) {
            pkt.decodedDestCache = pkt.dest.decode(numNodes());
            pkt.decodedDestValid = true;
        }
        return pkt.decodedDestCache;
    }

    // --- sharded simulation (src/shard, docs/ARCHITECTURE.md) -----

    /**
     * Minimum simulated latency between an injection at one node and
     * any state change observable at a *different* node — the
     * conservative lookahead a sharded run may use as its window
     * length. Zero (the default) means the backend cannot bound
     * cross-node effects and therefore cannot be sharded; the system
     * falls back to one shard.
     */
    virtual Tick minCrossShardLatency() const { return 0; }

    /**
     * Bind the backend to a shard router: keep per-node fabric state
     * on the owning shard, schedule node-local work on
     * Router::queueFor(), and route cross-shard effects through
     * Router::crossSchedule(). Called once, before any traffic.
     * @retval false if the backend does not support sharding
     */
    virtual bool
    bindShards(shard::Router *router)
    {
        (void)router;
        return false;
    }

    // --- checking subsystem (src/check, docs/CHECKING.md) ---------

    /** Invariant hook observing deliveries (may be null). */
    check::CheckHook *checkHook() const { return _checkHook; }
    virtual void setCheckHook(check::CheckHook *hook)
    {
        _checkHook = hook;
    }

    // --- fault injection (src/fault, docs/TESTING.md) -------------

    /** Fault-injection hook (may be null). */
    fault::FaultHook *faultHook() const { return _faultHook; }
    virtual void setFaultHook(fault::FaultHook *hook)
    {
        _faultHook = hook;
    }

    /**
     * A fault window squeezing node @p n's injection queue closed:
     * re-run the endpoint's space callback if it was refused while
     * the squeeze was active.
     */
    virtual void faultInjectRetry(NodeId n) = 0;

    /**
     * Switched-fabric geometry, for fault plans that target switch
     * coordinates. Backends without internal switches report zero
     * stages/rows; the injector clamps such targets away.
     */
    struct FabricShape
    {
        unsigned stages = 0;
        unsigned rows = 0;
    };

    virtual FabricShape fabricShape() const { return {}; }

    /**
     * A fault window on fabric element (@p stage, @p row) closed:
     * re-arbitrate anything it stalled. No-op on backends without
     * internal switches.
     */
    virtual void
    fabricKick(unsigned stage, unsigned row)
    {
        (void)stage;
        (void)row;
    }

  protected:
    Transport() = default;

    check::CheckHook *_checkHook = nullptr;
    fault::FaultHook *_faultHook = nullptr;
};

/** Selectable interconnect backends (transport/factory.hh). */
enum class TransportKind : std::uint8_t
{
    Multistage, ///< the paper's crossbar fabric (src/network/)
    Ideal,      ///< zero-contention fixed-latency pipe
    Direct,     ///< point-to-point only: software multicast/gather
};

/**
 * The interconnect axis. Default multistage, overridable with
 * CENJU_TRANSPORT (how the CI backend matrix reruns the unit tier
 * per backend).
 */
inline constexpr ConfigAxis transportAxis(
    enumTable<TransportKind>({
        {TransportKind::Multistage, "multistage"},
        {TransportKind::Ideal, "ideal"},
        {TransportKind::Direct, "direct"},
    }),
    TransportKind::Multistage, "transport", "CENJU_TRANSPORT",
    "interconnect backend");

} // namespace cenju

#endif // CENJU_TRANSPORT_TRANSPORT_HH
