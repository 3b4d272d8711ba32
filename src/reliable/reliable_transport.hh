/**
 * @file
 * Link-level reliability decorator (docs/ARCHITECTURE.md
 * "Reliability layer").
 *
 * ReliableTransport wraps any Transport backend and upgrades its
 * delivery guarantee to exactly-once, in order per (src, dst) pair —
 * even when the fault plan drops, duplicates or corrupts packets on
 * the inner fabric (the *illegal* fault classes of docs/TESTING.md).
 * The machinery is the classic go-back-N ARQ:
 *
 *  - the send side stamps a per-(src,dst) sequence number and a
 *    header checksum into every data packet and keeps a retransmit
 *    copy until it is cumulatively acknowledged;
 *  - the receive side delivers only the exact next sequence number,
 *    discarding duplicates (re-acking them) and out-of-order gaps
 *    (go-back-N retransmission refills them in order), and rejects
 *    packets whose checksum does not verify;
 *  - acks are small out-of-band control messages scheduled straight
 *    on the event queue (a hardware ack wire, not subject to loss),
 *    so the clean path costs no extra fabric occupancy;
 *  - a lost packet is recovered by a simulated-time retransmit timer
 *    with deterministic exponential backoff (rtoBase doubling up to
 *    rtoCap); after retryBudget fruitless rounds the channel
 *    escalates to a fatal, seed-replayable "link dead" verdict
 *    instead of hanging (the stress harness installs a handler that
 *    turns this into a shrinkable reproducer).
 *
 * Because per-pair sequencing is incompatible with in-fabric fan-out
 * and fan-in, the wrapper normalizes the wire: multicasts fan out
 * into per-destination unicast clones at the sender, gathered
 * replies travel as plain unicasts and merge in software at the
 * receiver, and combinable atomics lose their fabric-combining flags
 * (the home serializes the RMWs). The original service flags ride in
 * Packet::relSavedFlags and are restored before upward delivery, so
 * the protocol stack observes identical semantics on any backend.
 *
 * The wrapper cannot bound cross-node lookahead (acks and timers are
 * zero-latency control events), so it reports no cross-shard latency
 * floor and sharded runs clamp to one shard.
 */

#ifndef CENJU_RELIABLE_RELIABLE_TRANSPORT_HH
#define CENJU_RELIABLE_RELIABLE_TRANSPORT_HH

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/hashing.hh"
#include "sim/inline_function.hh"
#include "sim/stats.hh"
#include "transport/software_fanout.hh"
#include "transport/transport.hh"

namespace cenju
{

/** Exactly-once, in-order delivery over a lossy inner fabric. */
class ReliableTransport final : public Transport
{
  public:
    /** Retransmit timer: initial value, doubling cap, retry budget.
     * The base comfortably exceeds the uncontended pipe round-trip
     * of every backend at default timings, so the clean path never
     * retransmits spuriously. */
    static constexpr Tick rtoBase = 6000;
    static constexpr Tick rtoCap = 96000;
    static constexpr unsigned retryBudget = 12;

    /** Simulated latency of the out-of-band ack wire. */
    static constexpr Tick ackLatency = 400;

    explicit ReliableTransport(std::unique_ptr<Transport> inner);

    const char *name() const override { return "reliable"; }
    unsigned numNodes() const override { return _inner->numNodes(); }
    EventQueue &eventQueue() override { return _eq; }

    void attach(NodeId n, Endpoint *ep) override;
    bool tryInject(PacketPtr &&pkt) override;
    void deliveryRetry(NodeId n) override;
    void faultInjectRetry(NodeId n) override;

    unsigned
    injectCapacity(NodeId n) const override
    {
        return _inner->injectCapacity(n);
    }

    unsigned
    injectBacklog(NodeId n) const override
    {
        return _inner->injectBacklog(n) +
               static_cast<unsigned>(_tx[n].wireQ.size());
    }

    std::uint64_t injectedCount() const override { return _injected; }
    std::uint64_t deliveredCount() const override { return _delivered; }

    StatGroup &stats() override { return _stats; }

    // minCrossShardLatency() stays 0 and bindShards() stays false
    // (Transport defaults): the control events have no latency
    // floor, so a sharded run clamps to one shard.

    /** The inner fabric still answers squeeze/hold queries. */
    void
    setFaultHook(fault::FaultHook *hook) override
    {
        _faultHook = hook;
        _inner->setFaultHook(hook);
    }

    // setCheckHook() is inherited unchanged: the hook is kept local
    // and *not* forwarded, so each exactly-once upward delivery is
    // observed exactly once (the inner fabric's deliveries to the
    // wrapper's shims are invisible to the checker).

    Transport::FabricShape
    fabricShape() const override
    {
        return _inner->fabricShape();
    }

    void
    fabricKick(unsigned stage, unsigned row) override
    {
        _inner->fabricKick(stage, row);
    }

    /** The wrapped backend (for its statistics and geometry). */
    Transport &inner() { return *_inner; }

    /**
     * Invoked instead of fatal() when a channel exhausts its retry
     * budget: (src, dst) of the dead link. The stress harness uses
     * this to record a failure and emit a reproducer.
     */
    using LinkDeadFn = InlineFunction<void(NodeId, NodeId)>;
    void setLinkDeadHandler(LinkDeadFn fn) { _onLinkDead = std::move(fn); }

    // --- counters (also exported via stats()) ---------------------
    std::uint64_t dataSent() const { return _dataSent.value(); }
    std::uint64_t retransmits() const { return _retransmits.value(); }
    std::uint64_t dupDiscards() const { return _dupDiscards.value(); }
    std::uint64_t gapDiscards() const { return _gapDiscards.value(); }
    std::uint64_t checksumRejects() const
    {
        return _checksumRejects.value();
    }
    std::uint64_t acksSent() const { return _acks.value(); }
    std::uint64_t backoffTicks() const { return _backoffTicks.value(); }
    std::uint64_t faultDrops() const { return _faultDrops.value(); }
    std::uint64_t faultDups() const { return _faultDups.value(); }
    std::uint64_t faultCorrupts() const
    {
        return _faultCorrupts.value();
    }
    std::uint64_t linksDead() const { return _linksDead.value(); }

    /** Header checksum as stamped at send time (relChecksum). */
    static std::uint32_t headerSum(const Packet &pkt);

  private:
    /** The wrapper's attachment to the inner fabric for one node:
     * elastic (never refuses a delivery), so the inner backend never
     * parks packets on the wrapper's behalf. */
    struct Shim final : Endpoint
    {
        ReliableTransport *rt = nullptr;
        NodeId node = invalidNode;

        bool reserveDelivery(const Packet &) override { return true; }
        void
        deliver(PacketPtr pkt) override
        {
            rt->onInnerDeliver(node, std::move(pkt));
        }
        void
        injectSpaceAvailable() override
        {
            rt->onInnerSpace(node);
        }
    };

    /** One unacknowledged data packet (a retransmittable copy). */
    struct Sent
    {
        PacketPtr pkt;
        std::uint32_t seq = 0;
    };

    /** Send half of one (src, dst) channel. */
    struct SendChan
    {
        std::deque<Sent> unacked;
        std::uint32_t nextSeq = 1;
        Tick rto = rtoBase;
        unsigned retries = 0;
        /** Bumped to invalidate the outstanding retransmit timer
         * (the event queue has no cancellation; stale timers fire
         * as no-ops). */
        std::uint64_t generation = 0;
        bool dead = false;
    };

    /** Receive half of one (src, dst) channel. */
    struct RecvChan
    {
        std::uint32_t expected = 1;
    };

    /** Per-source state: normalized clones awaiting inner inject. */
    struct Tx
    {
        std::deque<PacketPtr> wireQ;
        bool wasFull = false; ///< upper endpoint needs a callback
        bool pumping = false; ///< re-entrancy guard
    };

    /** Per-destination state: verified packets awaiting the upper
     * endpoint, plus in-progress software gather merges. */
    struct Rx
    {
        std::deque<PacketPtr> upQ;
        bool pumping = false;
        GatherCountdown gathers;
    };

    static std::uint64_t
    chanKey(NodeId src, NodeId dst)
    {
        return (static_cast<std::uint64_t>(src) << 32) | dst;
    }

    void sendData(NodeId src, NodeId dst, PacketPtr pkt);
    void pumpWire(NodeId src);
    void onInnerSpace(NodeId n);
    void onInnerDeliver(NodeId dst, PacketPtr pkt);
    void receiveData(NodeId dst, PacketPtr pkt);
    void acceptUp(NodeId dst, PacketPtr pkt);
    void pumpUp(NodeId dst);
    void scheduleAck(NodeId dataSrc, NodeId dst, std::uint32_t seq);
    void onAck(NodeId src, NodeId dst, std::uint32_t ackSeq);
    void armTimer(NodeId src, NodeId dst);
    void onTimeout(NodeId src, NodeId dst, std::uint64_t gen);
    void linkDead(NodeId src, NodeId dst, SendChan &ch);

    std::unique_ptr<Transport> _inner;
    EventQueue &_eq;

    std::vector<Shim> _shims;
    std::vector<Endpoint *> _uppers;
    std::vector<Tx> _tx;
    std::vector<Rx> _rx;

    std::unordered_map<std::uint64_t, SendChan, U64MixHash> _send;
    std::unordered_map<std::uint64_t, RecvChan, U64MixHash> _recv;

    LinkDeadFn _onLinkDead;

    std::uint64_t _injected = 0;
    std::uint64_t _delivered = 0;

    StatGroup _stats;
    Counter &_dataSent;
    Counter &_retransmits;
    Counter &_dupDiscards;
    Counter &_gapDiscards;
    Counter &_checksumRejects;
    Counter &_acks;
    Counter &_backoffTicks;
    Counter &_gatherMerged;
    Counter &_faultDrops;
    Counter &_faultDups;
    Counter &_faultCorrupts;
    Counter &_linksDead;
};

} // namespace cenju

#endif // CENJU_RELIABLE_RELIABLE_TRANSPORT_HH
