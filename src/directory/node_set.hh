/**
 * @file
 * Dense set of node identifiers.
 *
 * Used throughout the simulator: as the ground-truth sharer set in
 * directory experiments, as the decoded destination set of a
 * multicast, and as a gather group. The capacity is fixed at
 * construction and never exceeds maxNodes.
 *
 * The bits live inline: making, copying or moving a set never
 * allocates. All loops are bounded by the word count for the actual
 * capacity, so small systems pay for small sets.
 */

#ifndef CENJU_DIRECTORY_NODE_SET_HH
#define CENJU_DIRECTORY_NODE_SET_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace cenju
{

/** Fixed-capacity bitset keyed by NodeId. */
class NodeSet
{
  public:
    /** Empty set able to hold ids in [0, capacity). */
    explicit NodeSet(unsigned capacity = maxNodes)
        : _capacity(capacity), _nwords((capacity + 63) / 64)
    {
        if (capacity > maxNodes) {
            panic("NodeSet: capacity %u above maxNodes %u", capacity,
                  maxNodes);
        }
        // Only words < _nwords are ever read; don't zero more.
        for (unsigned i = 0; i < _nwords; ++i)
            _words[i] = 0;
    }

    unsigned capacity() const { return _capacity; }

    void
    insert(NodeId n)
    {
        check(n);
        _words[n >> 6] |= 1ull << (n & 63);
    }

    void
    erase(NodeId n)
    {
        check(n);
        _words[n >> 6] &= ~(1ull << (n & 63));
    }

    bool
    contains(NodeId n) const
    {
        if (n >= _capacity)
            return false;
        return (_words[n >> 6] >> (n & 63)) & 1;
    }

    void
    clear()
    {
        for (unsigned i = 0; i < _nwords; ++i)
            _words[i] = 0;
    }

    bool
    empty() const
    {
        for (unsigned i = 0; i < _nwords; ++i) {
            if (_words[i])
                return false;
        }
        return true;
    }

    /** Number of members. */
    unsigned
    count() const
    {
        unsigned c = 0;
        for (unsigned i = 0; i < _nwords; ++i)
            c += static_cast<unsigned>(std::popcount(_words[i]));
        return c;
    }

    /** True if the two sets share at least one member. */
    bool
    intersects(const NodeSet &o) const
    {
        unsigned n = std::min(_nwords, o._nwords);
        for (unsigned i = 0; i < n; ++i) {
            if (_words[i] & o._words[i])
                return true;
        }
        return false;
    }

    /**
     * True if some member lies in [@p lo, @p hi); ids at or above
     * the capacity are never members, so @p hi may exceed it.
     */
    bool
    intersectsRange(NodeId lo, NodeId hi) const
    {
        hi = std::min<NodeId>(hi, _capacity);
        if (lo >= hi)
            return false;
        unsigned first = lo >> 6;
        unsigned last = (hi - 1) >> 6;
        for (unsigned i = first; i <= last; ++i) {
            std::uint64_t w = _words[i];
            if (i == first)
                w &= ~0ull << (lo & 63);
            if (i == last)
                w &= ~0ull >> (63 - ((hi - 1) & 63));
            if (w)
                return true;
        }
        return false;
    }

    /** True if every member of this set is also in @p o. */
    bool
    subsetOf(const NodeSet &o) const
    {
        for (unsigned i = 0; i < _nwords; ++i) {
            std::uint64_t ow = i < o._nwords ? o._words[i] : 0;
            if (_words[i] & ~ow)
                return false;
        }
        return true;
    }

    NodeSet &
    operator|=(const NodeSet &o)
    {
        unsigned n = std::min(_nwords, o._nwords);
        for (unsigned i = 0; i < n; ++i)
            _words[i] |= o._words[i];
        return *this;
    }

    NodeSet &
    operator&=(const NodeSet &o)
    {
        for (unsigned i = 0; i < _nwords; ++i)
            _words[i] &= i < o._nwords ? o._words[i] : 0;
        return *this;
    }

    bool
    operator==(const NodeSet &o) const
    {
        unsigned n = std::max(_nwords, o._nwords);
        for (unsigned i = 0; i < n; ++i) {
            std::uint64_t x = i < _nwords ? _words[i] : 0;
            std::uint64_t y = i < o._nwords ? o._words[i] : 0;
            if (x != y)
                return false;
        }
        return true;
    }

    /** Members in ascending order. */
    std::vector<NodeId>
    toVector() const
    {
        std::vector<NodeId> v;
        v.reserve(count());
        forEach([&v](NodeId n) { v.push_back(n); });
        return v;
    }

    /** Call @p fn for each member in ascending order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (unsigned i = 0; i < _nwords; ++i) {
            std::uint64_t w = _words[i];
            while (w) {
                unsigned b = std::countr_zero(w);
                fn(static_cast<NodeId>(i * 64 + b));
                w &= w - 1;
            }
        }
    }

    /** Lowest member, or invalidNode if empty. */
    NodeId
    first() const
    {
        for (unsigned i = 0; i < _nwords; ++i) {
            if (_words[i]) {
                return static_cast<NodeId>(
                    i * 64 + std::countr_zero(_words[i]));
            }
        }
        return invalidNode;
    }

  private:
    void
    check(NodeId n) const
    {
        if (n >= _capacity)
            panic("NodeSet: id %u out of capacity %u", n, _capacity);
    }

    unsigned _capacity;
    unsigned _nwords;
    std::array<std::uint64_t, (maxNodes + 63) / 64> _words;
};

} // namespace cenju

#endif // CENJU_DIRECTORY_NODE_SET_HH
