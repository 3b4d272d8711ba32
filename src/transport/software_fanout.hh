/**
 * @file
 * Software multicast and gather, shared by the layers that move
 * packets without fabric replication or in-network merging: the
 * point-to-point backend (DirectTransport, transport/software.hh)
 * and the reliability decorator (src/reliable/), which must never
 * let the fabric replicate or absorb a sequenced packet.
 *
 *  - unicastFanout() splits a multicast at the sender into one
 *    unicast clone per member, in NodeSet order;
 *  - GatherCountdown merges the sibling replies of a gather at the
 *    receiver with the semantics of the switch gather tables: every
 *    sibling counts its group down and only the last is delivered,
 *    so the protocol sees one merged reply on any stack.
 */

#ifndef CENJU_TRANSPORT_SOFTWARE_FANOUT_HH
#define CENJU_TRANSPORT_SOFTWARE_FANOUT_HH

#include <cstdint>
#include <unordered_map>
#include <utility>

#include "sim/hashing.hh"
#include "sim/logging.hh"
#include "transport/packet.hh"

namespace cenju
{

/**
 * Hand @p emit one unicast clone of @p pkt per member of @p dsts
 * (its decoded destination set), as `emit(member, clone)`.
 */
template <typename Emit>
void
unicastFanout(const Packet &pkt, const NodeSet &dsts, Emit &&emit)
{
    dsts.forEach([&](NodeId t) {
        PacketPtr c = pkt.clone();
        c->dest = DestSpec::unicast(t);
        c->decodedDestValid = false;
        emit(t, std::move(c));
    });
}

/** In-progress software gather merges at one destination. */
class GatherCountdown
{
  public:
    /**
     * Count gathered reply @p pkt against its group.
     * @retval true if it is the group's last sibling (deliver it);
     * false if it was absorbed
     */
    bool
    arrive(const Packet &pkt)
    {
        if (!pkt.gatherGroup)
            panic("gathered packet without a gather group");
        auto it = _remaining.find(pkt.gatherId);
        if (it == _remaining.end()) {
            unsigned expected = pkt.gatherGroup->count();
            if (expected == 0)
                panic("gather with an empty group");
            it = _remaining.emplace(pkt.gatherId, expected).first;
        }
        if (--it->second > 0)
            return false;
        _remaining.erase(it);
        return true;
    }

  private:
    /** Siblings still to arrive, keyed by gatherId. */
    std::unordered_map<std::uint32_t, unsigned, U64MixHash> _remaining;
};

} // namespace cenju

#endif // CENJU_TRANSPORT_SOFTWARE_FANOUT_HH
