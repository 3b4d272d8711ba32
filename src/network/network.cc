#include "network/network.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace cenju
{

Network::Network(EventQueue &eq, const NetConfig &cfg)
    : _eq(eq), _cfg(cfg), _topo(cfg.numNodes, cfg.stages),
      _injectors(cfg.numNodes), _endpoints(cfg.numNodes, nullptr),
      _injectedCtr(_stats.counter("injected")),
      _deliveredCtr(_stats.counter("delivered")),
      _multicastCopies(_stats.counter("multicast_copies")),
      _gatherAbsorbed(_stats.counter("gather_absorbed")),
      _gatherForwarded(_stats.counter("gather_forwarded")),
      _combineMerged(_stats.counter("combine_merged")),
      _combineSkipped(_stats.counter("combine_skipped")),
      _combineDecombined(_stats.counter("combine_decombined")),
      _latency(_stats.sampleStat("latency_ns"))
{
    // A zero capacity would accept nothing and drain the event loop
    // with every load still pending.
    if (cfg.xbCapacity == 0)
        fatal("network: xbCapacity must be at least 1");
    if (cfg.injectQueueCapacity == 0)
        fatal("network: injectQueueCapacity must be at least 1");

    // Only switches on some route are built (Topology::routed), in
    // (stage, row) order, stage by stage.
    std::size_t built = 0;
    _stageBase.reserve(_topo.stages());
    for (unsigned s = 0; s < _topo.stages(); ++s) {
        _stageBase.push_back(unsigned(built));
        Topology::RoutedRows rr = _topo.routedRows(s);
        built += std::size_t(rr.srcPrefixes) * rr.dstPrefixes;
    }
    const unsigned perSwitch =
        switchRadix * switchRadix * _cfg.xbCapacity;
    _slots = std::make_unique<PacketPtr[]>(
        built * perSwitch +
        std::size_t(_cfg.numNodes) * _cfg.injectQueueCapacity);
    PacketPtr *slots = _slots.get();
    _switches = std::vector<std::optional<XbarSwitch>>(built);
    auto next = _switches.begin();
    for (unsigned s = 0; s < _topo.stages(); ++s) {
        for (unsigned r = 0; r < _topo.rowsPerStage(); ++r) {
            if (!_topo.routed(s, r))
                continue;
            (next++)->emplace(_eq, *this, _topo, _cfg, s, r, slots);
            slots += perSwitch;
        }
    }

    // Wire stage s outputs to stage s+1 inputs, and register the
    // static back-pressure callbacks (input space -> upstream
    // output re-arbitration). A link into an unbuilt switch carries
    // no route, so it stays unwired.
    for (std::optional<XbarSwitch> &sw : _switches) {
        XbarSwitch &up = *sw;
        unsigned s = up.stage();
        if (s + 1 == _topo.stages())
            break;
        for (unsigned p = 0; p < switchRadix; ++p) {
            auto [drow, dport] = _topo.link(s, up.row(), p);
            XbarSwitch *down = findSwitch(s + 1, drow);
            if (!down)
                continue;
            up.connectDownstream(p, down, dport);
            down->onInputSpace(dport, [&up, p] {
                // Wake the upstream output so a head blocked on
                // our full buffers is retried.
                up.unblockEject(p); // reuses the re-arb path
            });
        }
    }

    // Injection wiring: node n feeds one stage-0 input port.
    for (NodeId n = 0; n < _cfg.numNodes; ++n) {
        auto [row, port] = _topo.injectPoint(n);
        Injector &inj = _injectors[n];
        inj.q = PacketRing(slots, _cfg.injectQueueCapacity);
        slots += _cfg.injectQueueCapacity;
        inj.sw0 = &switchAt(0, row);
        inj.swPort = port;
        inj.sw0->onInputSpace(port, [this, n] {
            Injector &i2 = _injectors[n];
            if (i2.waitingSpace) {
                i2.waitingSpace = false;
                _eq.scheduleAfter(0, [this, n] { pumpInjector(n); });
            }
        });
    }
}

Network::~Network() = default;

XbarSwitch &
Network::switchAt(unsigned stage, unsigned row)
{
    XbarSwitch *sw = findSwitch(stage, row);
    if (!sw)
        panic("switch (%u,%u) lies on no route and was not built",
              stage, row);
    return *sw;
}

void
Network::attach(NodeId n, Endpoint *ep)
{
    if (n >= _cfg.numNodes)
        fatal("attach: node %u out of range", n);
    _endpoints[n] = ep;
}

unsigned
Network::effectiveInjectCapacity(NodeId n) const
{
    // A squeeze only lowers the capacity, which keeps the injection
    // ring within its slots.
    unsigned cap = _cfg.injectQueueCapacity;
    if (_faultHook)
        cap = std::min(cap, _faultHook->injectQueueCapacity(n, cap));
    return cap;
}

void
Network::faultInjectRetry(NodeId n)
{
    Injector &inj = _injectors[n];
    if (inj.wasFull &&
        inj.q.size() < effectiveInjectCapacity(n)) {
        inj.wasFull = false;
        if (_endpoints[n])
            _endpoints[n]->injectSpaceAvailable();
    }
}

bool
Network::tryInject(PacketPtr &&pkt)
{
    NodeId n = pkt->src;
    if (n >= _cfg.numNodes)
        panic("inject from bad node %u", n);
    if (pkt->combinable && pkt->combinedReply) {
        // Combined replies ride the switches' dedicated return
        // channel (descendReply): accepted unconditionally, charged
        // the injection overhead, then walked down stage by stage.
        pkt->injectTick = _eq.now();
        pkt->packetId = _nextPacketId++;
        ++_injectedCtr;
        ++_injected;
        int top = static_cast<int>(_topo.stages()) - 1;
        _eq.scheduleAfter(_cfg.injectLatency,
                          [this, top, p = std::move(pkt)]() mutable {
                              descendReply(std::move(p), top);
                          });
        return true;
    }
    Injector &inj = _injectors[n];
    if (inj.q.size() >= effectiveInjectCapacity(n)) {
        inj.wasFull = true;
        return false;
    }
    pkt->injectTick = _eq.now();
    pkt->packetId = _nextPacketId++;
    if (pkt->combinable) {
        // The ticket identifies this (possibly merged-into) request
        // to the combining records it leaves behind; the rep packet
        // accumulates in place, so the ticket survives to the home.
        pkt->combineTicket = pkt->packetId;
    }
    ++_injectedCtr;
    ++_injected;
    inj.q.push_back(std::move(pkt));
    if (!inj.busy && !inj.waitingSpace)
        pumpInjector(n);
    return true;
}

void
Network::pumpInjector(NodeId n)
{
    Injector &inj = _injectors[n];
    if (inj.busy || inj.q.empty())
        return;

    XbarSwitch &sw0 = *inj.sw0;
    if (!sw0.reserve(inj.swPort, *inj.q.front())) {
        inj.waitingSpace = true;
        return;
    }

    PacketPtr pkt = inj.q.pop_front();
    inj.busy = true;

    Tick occ = _cfg.portOccupancy(pkt->sizeBytes);
    _eq.scheduleAfter(
        _cfg.injectLatency,
        [&sw0, port = inj.swPort, p = std::move(pkt)]() mutable {
            sw0.commit(port, std::move(p));
        });
    _eq.scheduleAfter(std::max(occ, _cfg.injectLatency),
                      [this, n] {
                          Injector &i2 = _injectors[n];
                          i2.busy = false;
                          pumpInjector(n);
                          if (i2.wasFull &&
                              i2.q.size() <
                                  effectiveInjectCapacity(n)) {
                              i2.wasFull = false;
                              if (_endpoints[n])
                                  _endpoints[n]
                                      ->injectSpaceAvailable();
                          }
                      });
}

void
Network::descendReply(PacketPtr pkt, int stage)
{
    NodeId requester = pkt->dest.unicastDest();
    if (stage < 0) {
        _eq.scheduleAfter(
            _cfg.ejectLatency,
            [this, requester, p = std::move(pkt)]() mutable {
                deliverCombinedReply(requester, std::move(p));
            });
        return;
    }
    // The reply retraces the request's forward route in reverse;
    // every merge the surviving request performed was recorded at a
    // switch on that route, keyed by the absorbed packet's ticket.
    unsigned s = static_cast<unsigned>(stage);
    XbarSwitch &sw = switchAt(s, _topo.hop(requester, pkt->src, s).row);
    CombineLedger::Records recs =
        sw.combineTable().take(pkt->combineTicket);
    Tick delay = _cfg.stageLatency +
                 _cfg.gatherMergeLatency * Tick(recs.size());
    for (const CombineRecord &r : recs) {
        ++_combineDecombined;
        // The absorbed request joined this switch at stage s, so its
        // reply continues from stage s-1 along its own route.
        _eq.scheduleAfter(delay,
                          [this, stage,
                           p = decombine(*pkt, r)]() mutable {
                              descendReply(std::move(p), stage - 1);
                          });
    }
    _eq.scheduleAfter(delay,
                      [this, stage, p = std::move(pkt)]() mutable {
                          descendReply(std::move(p), stage - 1);
                      });
}

void
Network::deliverCombinedReply(NodeId n, PacketPtr pkt)
{
    if (!ejectReserve(n, *pkt)) {
        // Parked until the endpoint frees space (deliveryRetry) or
        // a delivery-hold fault window closes.
        if (_combineParked.empty())
            _combineParked.resize(_cfg.numNodes);
        _combineParked[n].push_back(std::move(pkt));
        return;
    }
    ejectDeliver(n, std::move(pkt));
}

bool
Network::ejectReserve(NodeId n, const Packet &pkt)
{
    if (!_endpoints[n])
        panic("eject to unattached node %u", n);
    // A delivery-hold fault window makes the endpoint ineligible:
    // the final-stage output blocks in FIFO order (per-path order
    // preserved) and the injector retries when the window closes.
    if (_faultHook && _faultHook->deliveryHeld(n))
        return false;
    return _endpoints[n]->reserveDelivery(pkt);
}

void
Network::ejectDeliver(NodeId n, PacketPtr pkt)
{
    ++_deliveredCtr;
    ++_delivered;
    _latency.sample(
        static_cast<double>(_eq.now() - pkt->injectTick));
    _endpoints[n]->deliver(std::move(pkt));
    if (_checkHook) {
        _checkHook->onStep(check::StepKind::NetworkDeliver, n, 0);
    }
}

void
Network::registerEjectWaiter(NodeId n, XbarSwitch *sw, unsigned out)
{
    _ejectWaiters.push_back({n, sw, out});
}

void
Network::deliveryRetry(NodeId n)
{
    while (!_combineParked.empty() && !_combineParked[n].empty()) {
        if (!ejectReserve(n, *_combineParked[n].front()))
            break;
        PacketPtr p = std::move(_combineParked[n].front());
        _combineParked[n].pop_front();
        ejectDeliver(n, std::move(p));
    }
    for (std::size_t i = 0; i < _ejectWaiters.size();) {
        if (_ejectWaiters[i].node == n) {
            EjectWaiter w = _ejectWaiters[i];
            _ejectWaiters.erase(_ejectWaiters.begin() +
                                static_cast<std::ptrdiff_t>(i));
            w.sw->unblockEject(w.out);
        } else {
            ++i;
        }
    }
}

} // namespace cenju
