/**
 * @file
 * 4x4 crossbar switch with crosspoint buffers, virtual cut-through
 * flow control, in-switch multicast replication and gather merging
 * (paper section 3.2, Figure 5).
 *
 * Cenju-4 uses a crosspoint buffer per (input, output) pair — 16 per
 * switch — so that multicast forwarding never needs arbitration
 * *between* switches. We model the same structure: a packet is
 * handed over with a two-phase reserve/commit handshake (the reserve
 * models cut-through buffer pre-allocation), multicast packets are
 * replicated into one crosspoint buffer per covered output port, and
 * gathered replies are merged against the switch's gather table,
 * with only the last reply of a gather forwarded.
 */

#ifndef CENJU_NETWORK_XBAR_SWITCH_HH
#define CENJU_NETWORK_XBAR_SWITCH_HH

#include <array>
#include <cstdint>

#include "network/gather_table.hh"
#include "network/topology.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "transport/net_config.hh"
#include "transport/packet.hh"

namespace cenju
{

class Network;

/**
 * Fixed-capacity FIFO of packets over slots it does not own: the
 * Network carves every crosspoint buffer and injection queue from
 * one arena. Reservation keeps every user within its capacity, so
 * pushing onto a full ring is a simulator bug and panics.
 */
class PacketRing
{
  public:
    PacketRing() = default;
    PacketRing(PacketPtr *slots, unsigned capacity)
        : _slots(slots), _cap(capacity)
    {}

    bool empty() const { return _size == 0; }
    unsigned size() const { return _size; }

    PacketPtr &front() { return _slots[_head]; }

    /** The @p i-th packet from the head. @pre i < size() */
    PacketPtr &
    operator[](unsigned i)
    {
        unsigned at = _head + i;
        return _slots[at < _cap ? at : at - _cap];
    }

    void
    push_back(PacketPtr pkt)
    {
        if (_size == _cap)
            panic("packet ring overflow (capacity %u)", _cap);
        unsigned tail = _head + _size;
        _slots[tail < _cap ? tail : tail - _cap] = std::move(pkt);
        ++_size;
    }

    /** @pre !empty() */
    PacketPtr
    pop_front()
    {
        PacketPtr pkt = std::move(_slots[_head]);
        if (++_head == _cap)
            _head = 0;
        --_size;
        return pkt;
    }

  private:
    PacketPtr *_slots = nullptr;
    unsigned _cap = 0;
    unsigned _head = 0;
    unsigned _size = 0;
};

/** One 4x4 crossbar switch of the multistage network. */
class XbarSwitch
{
  public:
    /**
     * @param slots 16 * cfg.xbCapacity packet slots backing the
     *        crosspoint buffers, owned by @p net
     */
    XbarSwitch(EventQueue &eq, Network &net, const Topology &topo,
               const NetConfig &cfg, unsigned stage, unsigned row,
               PacketPtr *slots);

    XbarSwitch(const XbarSwitch &) = delete;
    XbarSwitch &operator=(const XbarSwitch &) = delete;

    unsigned stage() const { return _stage; }
    unsigned row() const { return _row; }

    /**
     * Phase 1 of a handoff: reserve crosspoint buffer space for
     * @p pkt arriving on @p in_port. For a multicast this reserves a
     * slot in every covered output's buffer, all or nothing; a
     * gathered reply additionally claims its gather-table slot.
     * @retval false if any needed buffer is full or the gather
     * table slot is held by a different gather; the upstream must
     * wait for its input-space callback.
     */
    bool reserve(unsigned in_port, const Packet &pkt);

    /**
     * Phase 2: the packet physically arrives on @p in_port (wire
     * latency after a successful reserve). Runs gather merging and
     * multicast replication, then enqueues into crosspoint buffers.
     */
    void commit(unsigned in_port, PacketPtr pkt);

    /**
     * Register the single upstream's retry callback for @p in_port;
     * fired whenever buffer space frees on that input.
     */
    void
    onInputSpace(unsigned in_port, InlineFunction<void()> cb)
    {
        _spaceCallbacks[in_port] = std::move(cb);
    }

    /** Downstream wiring (interior stages). */
    void
    connectDownstream(unsigned out_port, XbarSwitch *sw,
                      unsigned their_in_port)
    {
        _down[out_port] = sw;
        _downPort[out_port] = their_in_port;
    }

    /** Re-run arbitration for @p out_port (used on eject retry). */
    void unblockEject(unsigned out_port);

    /**
     * A fault window on this switch closed (capacity squeeze or
     * output stall): wake every upstream blocked on our buffers and
     * re-arbitrate every output.
     */
    void faultKick();

    /**
     * Output ports a packet entering this switch must cover, as a
     * mask: bit p set = port p.
     */
    std::uint8_t targetPorts(const Packet &pkt) const;

    /** Gather wait pattern for @p pkt at this switch. */
    std::uint8_t gatherWaitPattern(const Packet &pkt) const;

    const GatherTable &gatherTable() const { return _gather; }

    /**
     * Combining-record table (mutable: the reply descent takes the
     * records it answers — Network::descendReply).
     */
    CombineTable &combineTable() { return _combine; }

    /** Reserves refused on gather-table occupancy (for tests). */
    std::uint64_t gatherBlockCount() const { return _gatherBlockCount; }

    /** Buffered + reserved packets in (in, out)'s buffer. */
    unsigned
    occupancy(unsigned in, unsigned out) const
    {
        return _xb[in][out].used();
    }

  private:
    struct Fifo
    {
        PacketRing q;
        unsigned reserved = 0;

        unsigned
        used() const
        {
            return unsigned(q.size()) + reserved;
        }
    };

    /**
     * Try to merge a just-arrived combinable request into a
     * same-key request co-queued for @p out (ROADMAP item 4).
     * @retval true if @p pkt was absorbed (reservation released,
     * packet destroyed, combining record stored)
     */
    bool tryCombine(unsigned in_port, unsigned out, PacketPtr &pkt);

    void arbitrate(unsigned out);
    void scheduleArbitrate(unsigned out);
    void enqueue(unsigned in, unsigned out, PacketPtr pkt);
    void releaseReservation(unsigned in, std::uint8_t outs);
    void inputSpaceFreed(unsigned in);

    EventQueue &_eq;
    Network &_net;
    const Topology &_topo;
    const NetConfig &_cfg;
    unsigned _stage;
    unsigned _row;
    bool _lastStage;

    Fifo _xb[switchRadix][switchRadix];
    std::array<bool, switchRadix> _busy{};
    std::array<bool, switchRadix> _blockedEject{};
    /** Some reserve failed on gather-table occupancy (not buffer
     * space); cleared by the wake when the owning gather forwards.
     * Never set under a table sized for the live gather-id space,
     * so the default configuration schedules no extra events. */
    bool _gatherBlocked = false;
    std::uint64_t _gatherBlockCount = 0;
    std::array<bool, switchRadix> _arbScheduled{};
    std::array<unsigned, switchRadix> _rr{};

    std::array<XbarSwitch *, switchRadix> _down{};
    std::array<unsigned, switchRadix> _downPort{};
    std::array<InlineFunction<void()>, switchRadix>
        _spaceCallbacks;

    GatherTable _gather;
    CombineTable _combine;
};

} // namespace cenju

#endif // CENJU_NETWORK_XBAR_SWITCH_HH
