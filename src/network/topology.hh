/**
 * @file
 * Radix-4 omega (multistage shuffle-exchange) topology: wiring,
 * destination-tag routing, and per-port reachable node ranges.
 *
 * Cenju-4's network is built from 4x4 crossbar switches and changes
 * its stage count with the system size: 2 stages up to 16 nodes, 4
 * up to 128(256), 6 up to 1024 (Table 2). We realize this as an
 * omega network with S stages over 4^S channel addresses; node ids
 * above the real system size are simply unused endpoints.
 *
 * Channel algebra (digits base 4, S digits, MSD first):
 *  - a perfect 4-way shuffle (left digit rotation) precedes every
 *    stage;
 *  - the switch replaces the low digit of the channel address with
 *    the chosen output port.
 * Routing to destination d therefore picks output port = digit
 * (S-1-s) of d at stage s, and each (source, destination) pair has
 * exactly one path — giving the in-order delivery the coherence
 * protocol relies on.
 *
 * Both routes and reachability are closed form in that algebra.
 * Entering stage s, the channel holds the low S-1-s digits of the
 * source followed by the top s digits of the destination, and leaves
 * it with the destination's digit s appended:
 *  - the hop of src -> dst at stage s has row = (src mod 4^(S-1-s))
 *    * 4^s + (dst >> 2(S-s)), input port = digit s of src and output
 *    port = digit s of dst (hop());
 *  - output p of switch (s, row) leads to channel c = row * 4 + p,
 *    whose low s+1 digits are the top s+1 digits of every
 *    destination behind it, so it reaches exactly the node range
 *    [lo, lo + 4^(S-1-s)) with lo = (c mod 4^(s+1)) * 4^(S-1-s),
 *    clipped to the real nodes (reach()).
 *
 * So the rows of stage s that lie on some route between real nodes
 * are exactly row = a * 4^s + b with a < min(N, 4^(S-1-s)) (a
 * source's low digits) and b <= (N-1) >> 2(S-s) (a destination's
 * top digits); routedRows() and routed(). When N < 4^S only these
 * switches are ever built: at 1024 nodes 2304 of the 6144.
 */

#ifndef CENJU_NETWORK_TOPOLOGY_HH
#define CENJU_NETWORK_TOPOLOGY_HH

#include <algorithm>
#include <cstdint>
#include <utility>

#include "sim/types.hh"
#include "transport/net_config.hh"

namespace cenju
{

/** One hop of a route: which switch, entering and leaving where. */
struct RouteHop
{
    unsigned row;     ///< switch index within the stage
    unsigned inPort;  ///< input port (0..3)
    unsigned outPort; ///< output port (0..3)
};

/** Node ids [lo, hi); empty when hi == lo. */
struct NodeRange
{
    NodeId lo;
    NodeId hi;
};

/** Static structure of one omega network instance. */
class Topology
{
  public:
    /**
     * @param num_nodes real endpoints (1 .. 1024)
     * @param stages switch stages; 0 = derive from num_nodes using
     *        the Cenju-4 rule (ceil(log4), rounded up to even)
     */
    explicit Topology(unsigned num_nodes, unsigned stages = 0);

    /** Cenju-4 stage-count rule: 16->2, 128->4, 1024->6. */
    static unsigned defaultStages(unsigned num_nodes);

    unsigned numNodes() const { return _numNodes; }
    unsigned stages() const { return _stages; }

    /** Channel addresses per stage boundary (4^stages). */
    unsigned channels() const { return _channels; }

    /** Switches per stage. */
    unsigned rowsPerStage() const { return _channels / switchRadix; }

    /** Stage-0 (switch row, input port) fed by node @p n. */
    std::pair<unsigned, unsigned> injectPoint(NodeId n) const;

    /**
     * Downstream connection of output @p port of switch
     * (@p stage, @p row): the (row, input port) pair at stage+1.
     * @pre stage < stages() - 1
     */
    std::pair<unsigned, unsigned> link(unsigned stage, unsigned row,
                                       unsigned port) const;

    /** Node ejected by the final stage's (row, port). */
    NodeId
    ejectNode(unsigned row, unsigned port) const
    {
        return static_cast<NodeId>(row * switchRadix + port);
    }

    /** Output port digit for destination @p dst at @p stage. */
    unsigned
    routeDigit(NodeId dst, unsigned stage) const
    {
        unsigned shift = 2 * (_stages - 1 - stage);
        return (dst >> shift) & 0x3;
    }

    /** Hop at @p stage of the unique route from @p src to @p dst. */
    RouteHop
    hop(NodeId src, NodeId dst, unsigned stage) const
    {
        unsigned keep = 2 * (_stages - 1 - stage); // src bits left
        unsigned row = ((src & ((1u << keep) - 1)) << (2 * stage)) |
                       (dst >> (2 * (_stages - stage)));
        return {row, routeDigit(src, stage), routeDigit(dst, stage)};
    }

    /**
     * Real nodes reachable from output @p port of switch
     * (@p stage, @p row): one contiguous id range.
     */
    NodeRange
    reach(unsigned stage, unsigned row, unsigned port) const
    {
        unsigned span = 2 * (_stages - 1 - stage); // log2 of the span
        unsigned prefix = (row * switchRadix + port) &
                          ((1u << (2 * (stage + 1))) - 1);
        NodeId lo = std::min(prefix << span, _numNodes);
        return {lo, std::min(lo + (1u << span), _numNodes)};
    }

    /** The rows of one stage on some route: a * 4^s + b. */
    struct RoutedRows
    {
        unsigned srcPrefixes; ///< a < srcPrefixes
        unsigned dstPrefixes; ///< b < dstPrefixes (<= 4^s)
    };

    /** Routed rows of @p stage (see the file comment). */
    RoutedRows
    routedRows(unsigned stage) const
    {
        unsigned keep = 2 * (_stages - 1 - stage);
        return {std::min(_numNodes, 1u << keep),
                ((_numNodes - 1) >> (2 * (_stages - stage))) + 1};
    }

    /** True if switch (@p stage, @p row) lies on some route. */
    bool
    routed(unsigned stage, unsigned row) const
    {
        RoutedRows rr = routedRows(stage);
        return (row >> (2 * stage)) < rr.srcPrefixes &&
               (row & ((1u << (2 * stage)) - 1)) < rr.dstPrefixes;
    }

    /** 4-way perfect shuffle: left-rotate the S base-4 digits. */
    unsigned
    shuffle(unsigned channel) const
    {
        return ((channel << 2) | (channel >> (2 * (_stages - 1)))) &
               (_channels - 1);
    }

  private:
    unsigned _numNodes;
    unsigned _stages;
    unsigned _channels;
};

} // namespace cenju

#endif // CENJU_NETWORK_TOPOLOGY_HH
