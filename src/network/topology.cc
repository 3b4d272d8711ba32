#include "network/topology.hh"

#include "sim/logging.hh"

namespace cenju
{

unsigned
Topology::defaultStages(unsigned num_nodes)
{
    // The stage rule is fabric geometry every backend shares; it
    // lives with NetConfig behind the seam (transport/net_config.hh).
    return NetConfig::defaultStages(num_nodes);
}

Topology::Topology(unsigned num_nodes, unsigned stages)
    : _numNodes(num_nodes),
      _stages(stages ? stages : defaultStages(num_nodes))
{
    _channels = 1;
    for (unsigned s = 0; s < _stages; ++s)
        _channels *= switchRadix;
    if (_channels < _numNodes) {
        fatal("%u stages address only %u endpoints (< %u nodes)",
              _stages, _channels, _numNodes);
    }
}

std::pair<unsigned, unsigned>
Topology::injectPoint(NodeId n) const
{
    unsigned c = shuffle(static_cast<unsigned>(n));
    return {c / switchRadix, c % switchRadix};
}

std::pair<unsigned, unsigned>
Topology::link(unsigned stage, unsigned row, unsigned port) const
{
    if (stage + 1 >= _stages)
        panic("link() called on the final stage");
    unsigned c = shuffle(row * switchRadix + port);
    return {c / switchRadix, c % switchRadix};
}

} // namespace cenju
