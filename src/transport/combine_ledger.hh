/**
 * @file
 * Combining records, shared by every backend that merges combinable
 * requests: the multistage switches (network/gather_table.hh's
 * CombineTable), ideal's home-side combining station and direct's
 * per-node software combiners (transport/software.cc).
 *
 * A merge is the same mechanism everywhere. When two same-key
 * requests meet, absorb() folds the absorbed request's operand into
 * the representative and returns a CombineRecord; the absorbed
 * packet dies there. When the representative's reply later passes
 * back through the same place, each record it answers comes out of
 * the ledger in merge order and decombine() rebuilds that absorbed
 * requester's reply:
 *
 *   absorbedValue = combineApply(op, replyBase, prefix)
 *
 * where prefix is the representative's accumulated operand captured
 * at merge time (transport/combine.hh has the algebra). What differs
 * per backend is only where the ledger lives and what a decombined
 * reply costs to send on.
 */

#ifndef CENJU_TRANSPORT_COMBINE_LEDGER_HH
#define CENJU_TRANSPORT_COMBINE_LEDGER_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/hashing.hh"
#include "transport/combine.hh"
#include "transport/packet.hh"

namespace cenju
{

/** One merge: how to rebuild the absorbed request's reply. */
struct CombineRecord
{
    std::uint64_t repTicket = 0;      ///< surviving request
    std::uint64_t absorbedTicket = 0; ///< request merged away
    NodeId absorbedSrc = invalidNode;
    std::uint32_t absorbedCookie = 0;
    std::uint64_t prefix = 0; ///< rep operand at merge time
    CombineOp op = CombineOp::FetchAdd;
};

/**
 * Merge @p absorbed into @p rep: fold its operand into the
 * representative and return the record that answers it later.
 * @pre both are combinable requests with the same key and op
 */
inline CombineRecord
absorb(Packet &rep, const Packet &absorbed)
{
    CombineRecord r;
    r.repTicket = rep.combineTicket;
    r.absorbedTicket = absorbed.combineTicket;
    r.absorbedSrc = absorbed.src;
    r.absorbedCookie = absorbed.combineCookie;
    r.prefix = rep.combineOperand;
    r.op = rep.combineOp;
    rep.combineOperand = combineApply(rep.combineOp, rep.combineOperand,
                                      absorbed.combineOperand);
    return r;
}

/**
 * The absorbed requester's reply, rebuilt from the reply @p reply
 * to its representative: its base value is the representative's
 * prefix folded onto @p reply's base.
 */
inline PacketPtr
decombine(const Packet &reply, const CombineRecord &r)
{
    PacketPtr sub = reply.clone();
    sub->dest = DestSpec::unicast(r.absorbedSrc);
    sub->decodedDestValid = false;
    sub->combineOperand = combineApply(r.op, reply.combineOperand,
                                       r.prefix);
    sub->combineTicket = r.absorbedTicket;
    sub->combineCookie = r.absorbedCookie;
    return sub;
}

/**
 * Live merge records of one combining place, indexed by rep ticket
 * so take() costs O(matches): a hot-spot storm takes once per reply
 * per switch stage, and a scan over all live records there would
 * dominate the 1024-node bench's host time.
 */
class CombineLedger
{
  public:
    using Records = std::vector<CombineRecord>;

    void
    add(const CombineRecord &r)
    {
        _byRep[r.repTicket].push_back(r);
        ++_size;
    }

    /**
     * Remove and return every record whose representative is
     * @p rep_ticket, in merge order (empty if there is none).
     */
    Records
    take(std::uint64_t rep_ticket)
    {
        auto it = _byRep.find(rep_ticket);
        if (it == _byRep.end())
            return {};
        Records out = std::move(it->second);
        _byRep.erase(it);
        _size -= out.size();
        return out;
    }

    /** Records not yet taken. */
    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }

  private:
    std::unordered_map<std::uint64_t, Records, U64MixHash> _byRep;
    std::size_t _size = 0;
};

} // namespace cenju

#endif // CENJU_TRANSPORT_COMBINE_LEDGER_HH
