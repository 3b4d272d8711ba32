/**
 * @file
 * Per-switch gather table (paper section 3.2, Figure 5b).
 *
 * Each switch records, per 10-bit gather identifier, a 4-bit wait
 * pattern: the input ports from which gathered replies are still
 * expected. The first reply of a gather activates the entry with the
 * computed pattern; every reply clears its own input bit; only the
 * reply that clears the last bit is forwarded. The real switch
 * dedicates 3.6% of its gates to a 1024-entry table.
 *
 * The table is a finite resource, so it is claimed through the same
 * reserve/commit handshake as the crosspoint buffers: a gathered
 * reply may only be reserved into a switch when its identifier's
 * slot is free or already owned by the same gather (canReserve /
 * reserveArrival). Identifiers larger than the table map onto slots
 * modulo the size — exactly the aliasing a real fixed-size table
 * would exhibit — and a slot held by a different in-flight gather
 * exerts back-pressure on the upstream instead of corrupting the
 * merge.
 *
 * Only occupied slots are stored, found by a linear scan: a free
 * slot behaves exactly like an absent one, and a switch holds only
 * the gathers in flight through it, so the table costs nothing
 * until a gather passes.
 */

#ifndef CENJU_NETWORK_GATHER_TABLE_HH
#define CENJU_NETWORK_GATHER_TABLE_HH

#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"
#include "transport/combine_ledger.hh"

namespace cenju
{

/** Wait-pattern table indexed by gather identifier modulo size. */
class GatherTable
{
  public:
    explicit GatherTable(unsigned entries) : _size(entries)
    {
        if (entries == 0)
            panic("gather table needs at least one entry");
    }

    /** Outcome of absorbing one gathered reply. */
    enum class Result
    {
        Absorbed, ///< more replies expected; message removed
        Forward   ///< last reply: forward it and free the entry
    };

    /**
     * May a reply of gather @p id be reserved into this switch?
     * True when the slot is free or mid-merge for the same id.
     */
    bool
    canReserve(std::uint16_t id) const
    {
        const Entry *e = find(id);
        return !e || e->owner == id;
    }

    /**
     * Claim the slot for one in-flight reply of gather @p id. Must
     * follow a successful canReserve; the claim is released by the
     * matching absorb().
     */
    void
    reserveArrival(std::uint16_t id)
    {
        Entry *e = find(id);
        if (!e) {
            e = &_occupied.emplace_back();
            e->slot = std::uint16_t(id % _size);
            e->owner = id;
        } else if (e->owner != id) {
            panic("gather %u: slot %u owned by gather %u", id,
                  id % _size, e->owner);
        }
        ++e->pending;
    }

    /**
     * Absorb a gathered reply arriving on @p in_port.
     * @param id gather identifier
     * @param in_port switch input the reply arrived on (0..3)
     * @param full_pattern wait pattern for this gather at this
     *        switch, used if the entry is not yet active
     */
    Result
    absorb(std::uint16_t id, unsigned in_port,
           std::uint8_t full_pattern)
    {
        Entry *e = find(id);
        if (!e || e->owner != id || e->pending == 0)
            panic("gather %u: arrival without reservation", id);
        --e->pending;
        std::uint8_t bit = static_cast<std::uint8_t>(1u << in_port);
        if (!e->active) {
            if (!(full_pattern & bit)) {
                panic("gather %u: arrival on port %u not in wait "
                      "pattern 0x%x", id, in_port, full_pattern);
            }
            e->active = true;
            e->waitPattern = full_pattern;
        } else if (!(e->waitPattern & bit)) {
            panic("gather %u: duplicate arrival on port %u", id,
                  in_port);
        }
        e->waitPattern = static_cast<std::uint8_t>(e->waitPattern & ~bit);
        if (e->waitPattern != 0)
            return Result::Absorbed;
        e->active = false;
        if (e->pending == 0) {
            // Slot free again: drop it (order is irrelevant).
            *e = _occupied.back();
            _occupied.pop_back();
        }
        return Result::Forward;
    }

    /** True once every claim on @p id's slot has been released. */
    bool slotFree(std::uint16_t id) const { return !find(id); }

    /** Number of currently active entries (for tests/stats). */
    unsigned
    activeCount() const
    {
        unsigned n = 0;
        for (const Entry &e : _occupied)
            n += e.active;
        return n;
    }

    unsigned size() const { return _size; }

  private:
    /** One slot claimed by reservations or a live wait pattern. */
    struct Entry
    {
        std::uint16_t slot = 0;    ///< id % size
        std::uint16_t owner = 0;   ///< full id holding the slot
        std::uint16_t pending = 0; ///< reserved, not yet absorbed
        bool active = false;
        std::uint8_t waitPattern = 0;
    };

    Entry *
    find(std::uint16_t id)
    {
        const std::uint16_t slot = std::uint16_t(id % _size);
        for (Entry &e : _occupied) {
            if (e.slot == slot)
                return &e;
        }
        return nullptr;
    }

    const Entry *
    find(std::uint16_t id) const
    {
        return const_cast<GatherTable *>(this)->find(id);
    }

    unsigned _size;
    /** Only the occupied slots: a free slot has no entry. */
    std::vector<Entry> _occupied;
};

/**
 * Per-switch combining-record table (ROADMAP item 4): the gather
 * table generalized from "merge N fixed replies" to "merge typed
 * operands opportunistically". The records themselves, the merge
 * fold and the reply rebuild are the backend-neutral ones of
 * transport/combine_ledger.hh; this class adds only what is a
 * hardware property of the switch.
 *
 * A record occupies slot absorbedTicket % size — the same modulo
 * aliasing a fixed-size hardware table exhibits (the ticket is
 * globally unique: a packet is absorbed at most once and ends its
 * life there). Unlike the gather table, an occupied slot never
 * back-pressures: the merge is simply skipped and the request
 * forwards uncombined, so exhaustion degrades toward the
 * no-combining baseline instead of stalling
 * (tests/test_gather_exhaustion.cc covers both behaviors).
 */
class CombineTable
{
  public:
    /**
     * Slot storage materializes lazily on the first store(): most
     * switches in most runs never see a combinable request, and at
     * 1024 nodes an eager table would be one more allocation on
     * each of the 2304 routed switches (docs/PERF.md's
     * construction-cost rule).
     */
    explicit CombineTable(unsigned entries) : _entries(entries)
    {
        if (entries == 0)
            panic("combine table needs at least one entry");
    }

    /** May a merge absorbing @p absorbed_ticket record itself? */
    bool
    canRecord(std::uint64_t absorbed_ticket) const
    {
        return _taken.empty() || !_taken[absorbed_ticket % size()];
    }

    /** Store a merge record. @pre canRecord(r.absorbedTicket) */
    void
    store(const CombineRecord &r)
    {
        if (_taken.empty())
            _taken.resize(_entries);
        const unsigned slot = unsigned(r.absorbedTicket % size());
        if (_taken[slot])
            panic("combine table: slot %u already occupied", slot);
        _taken[slot] = true;
        _ledger.add(r);
    }

    /**
     * Remove every record whose representative is @p rep_ticket, in
     * merge order, freeing their slots (a reply descending through
     * this switch consumes the merges it answers).
     */
    CombineLedger::Records
    take(std::uint64_t rep_ticket)
    {
        CombineLedger::Records recs = _ledger.take(rep_ticket);
        for (const CombineRecord &r : recs)
            _taken[r.absorbedTicket % size()] = false;
        return recs;
    }

    /** Records currently live (for tests / quiescence checks). */
    unsigned activeCount() const { return unsigned(_ledger.size()); }

    unsigned size() const { return _entries; }

  private:
    const unsigned _entries;
    /** Slot occupancy; empty until the first store(). */
    std::vector<bool> _taken;
    CombineLedger _ledger;
};

} // namespace cenju

#endif // CENJU_NETWORK_GATHER_TABLE_HH
