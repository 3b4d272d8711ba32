/**
 * @file
 * Tests for the omega topology: stage-count rule, and the closed-form
 * hops and reachable ranges checked against a walk of the physical
 * wiring.
 */

#include <gtest/gtest.h>

#include <bitset>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "network/topology.hh"
#include "sim/rng.hh"

namespace cenju
{
namespace
{

TEST(Topology, DefaultStagesMatchesPaperTable2)
{
    EXPECT_EQ(Topology::defaultStages(16), 2u);
    EXPECT_EQ(Topology::defaultStages(128), 4u);
    EXPECT_EQ(Topology::defaultStages(1024), 6u);
}

TEST(Topology, DefaultStagesOtherSizes)
{
    EXPECT_EQ(Topology::defaultStages(1), 1u);
    EXPECT_EQ(Topology::defaultStages(4), 1u);
    EXPECT_EQ(Topology::defaultStages(5), 2u);
    EXPECT_EQ(Topology::defaultStages(17), 4u);  // ceil(log4)=3 -> 4
    EXPECT_EQ(Topology::defaultStages(64), 4u);  // 3 -> 4
    EXPECT_EQ(Topology::defaultStages(256), 4u);
    EXPECT_EQ(Topology::defaultStages(257), 6u); // 5 -> 6
}

TEST(Topology, ChannelsCoverNodes)
{
    for (unsigned n : {1u, 4u, 16u, 64u, 128u, 1024u}) {
        Topology t(n);
        EXPECT_GE(t.channels(), n);
        EXPECT_EQ(t.rowsPerStage() * switchRadix, t.channels());
    }
}

/**
 * Real nodes reachable from every switch output, computed from the
 * injectPoint/link wiring alone: each final-stage output ejects one
 * endpoint, and an earlier output reaches whatever the switch it is
 * linked to reaches. Independent of the closed forms under test.
 */
class WiredReach
{
  public:
    explicit WiredReach(const Topology &t)
        : _t(t), _sets(std::size_t(t.stages()) * t.channels())
    {
        unsigned last = t.stages() - 1;
        for (unsigned row = 0; row < t.rowsPerStage(); ++row) {
            for (unsigned p = 0; p < switchRadix; ++p) {
                NodeId n = t.ejectNode(row, p);
                if (n < t.numNodes())
                    set(last, row, p).set(n);
            }
        }
        for (unsigned s = last; s-- > 0;) {
            for (unsigned row = 0; row < t.rowsPerStage(); ++row) {
                for (unsigned p = 0; p < switchRadix; ++p) {
                    auto [nrow, nport] = t.link(s, row, p);
                    (void)nport;
                    for (unsigned q = 0; q < switchRadix; ++q)
                        set(s, row, p) |= set(s + 1, nrow, q);
                }
            }
        }
    }

    const std::bitset<4096> &
    at(unsigned s, unsigned row, unsigned p) const
    {
        return _sets[(s * _t.rowsPerStage() + row) * switchRadix + p];
    }

  private:
    std::bitset<4096> &
    set(unsigned s, unsigned row, unsigned p)
    {
        return _sets[(s * _t.rowsPerStage() + row) * switchRadix + p];
    }

    const Topology &_t;
    std::vector<std::bitset<4096>> _sets;
};

/** Up to 64 nodes every case is checked, above that a sample. */
constexpr unsigned exhaustiveUpTo = 64;
constexpr unsigned samples = 2000;

class TopologyRouting : public ::testing::TestWithParam<unsigned>
{};

/**
 * Walk src -> dst over the wiring: from the injection point, take at
 * each stage the one output whose wired reach holds dst, and check
 * hop() names the same switch and ports.
 */
void
checkHopsAgainstWiring(const Topology &t, const WiredReach &w,
                       NodeId src, NodeId dst)
{
    auto [row, in] = t.injectPoint(src);
    for (unsigned s = 0; s < t.stages(); ++s) {
        unsigned out = switchRadix;
        unsigned matches = 0;
        for (unsigned p = 0; p < switchRadix; ++p) {
            if (w.at(s, row, p).test(dst)) {
                out = p;
                ++matches;
            }
        }
        // Exactly one path per pair: in-order delivery.
        ASSERT_EQ(matches, 1u) << src << "->" << dst << " stage " << s;
        RouteHop h = t.hop(src, dst, s);
        ASSERT_EQ(h.row, row) << src << "->" << dst << " stage " << s;
        ASSERT_EQ(h.inPort, in) << src << "->" << dst << " stage " << s;
        ASSERT_EQ(h.outPort, out)
            << src << "->" << dst << " stage " << s;
        if (s + 1 < t.stages())
            std::tie(row, in) = t.link(s, row, out);
        else
            ASSERT_EQ(t.ejectNode(row, out), dst);
    }
}

TEST_P(TopologyRouting, RoutesAreWellFormed)
{
    unsigned n = GetParam();
    Topology t(n);
    WiredReach w(t);
    if (n <= exhaustiveUpTo) {
        for (NodeId src = 0; src < n; ++src) {
            for (NodeId dst = 0; dst < n; ++dst)
                checkHopsAgainstWiring(t, w, src, dst);
        }
        return;
    }
    Rng rng(n);
    for (unsigned i = 0; i < samples; ++i) {
        NodeId src = static_cast<NodeId>(rng.below(n));
        NodeId dst = static_cast<NodeId>(rng.below(n));
        checkHopsAgainstWiring(t, w, src, dst);
    }
}

TEST_P(TopologyRouting, PathsAreDeterministic)
{
    // The output port at each stage is the destination digit and the
    // input port the source digit, whatever the other endpoint.
    unsigned n = GetParam();
    Topology t(n);
    Rng rng(n + 1);
    for (unsigned i = 0; i < samples; ++i) {
        NodeId src = static_cast<NodeId>(rng.below(n));
        NodeId dst = static_cast<NodeId>(rng.below(n));
        for (unsigned s = 0; s < t.stages(); ++s) {
            RouteHop h = t.hop(src, dst, s);
            ASSERT_EQ(h.outPort, t.routeDigit(dst, s));
            ASSERT_EQ(h.inPort, t.routeDigit(src, s));
            ASSERT_LT(h.row, t.rowsPerStage());
        }
    }
}

TEST_P(TopologyRouting, ReachRangesMatchWiring)
{
    unsigned n = GetParam();
    Topology t(n);
    WiredReach w(t);
    auto check = [&](unsigned s, unsigned row, unsigned p) {
        NodeRange r = t.reach(s, row, p);
        ASSERT_LE(r.lo, r.hi);
        ASSERT_LE(r.hi, n);
        for (NodeId x = 0; x < n; ++x) {
            ASSERT_EQ(w.at(s, row, p).test(x), r.lo <= x && x < r.hi)
                << "stage " << s << " row " << row << " port " << p
                << " node " << x;
        }
    };
    if (n <= exhaustiveUpTo) {
        for (unsigned s = 0; s < t.stages(); ++s) {
            for (unsigned row = 0; row < t.rowsPerStage(); ++row) {
                for (unsigned p = 0; p < switchRadix; ++p)
                    check(s, row, p);
            }
        }
        return;
    }
    Rng rng(n + 2);
    for (unsigned i = 0; i < samples; ++i) {
        check(static_cast<unsigned>(rng.below(t.stages())),
              static_cast<unsigned>(rng.below(t.rowsPerStage())),
              static_cast<unsigned>(rng.below(switchRadix)));
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TopologyRouting,
                         ::testing::Values(4u, 10u, 16u, 64u, 128u,
                                           256u, 300u, 1024u));

TEST(Topology, ReachMatchesBruteForce16)
{
    // Exhaustively: d is reachable from (stage,row,port) iff some
    // route passes through that port toward d.
    Topology t(16);
    std::map<std::tuple<unsigned, unsigned, unsigned>,
             std::set<NodeId>>
        truth;
    for (NodeId src = 0; src < 16; ++src) {
        for (NodeId dst = 0; dst < 16; ++dst) {
            for (unsigned s = 0; s < t.stages(); ++s) {
                RouteHop h = t.hop(src, dst, s);
                truth[{s, h.row, h.outPort}].insert(dst);
            }
        }
    }
    for (unsigned s = 0; s < t.stages(); ++s) {
        for (unsigned r = 0; r < t.rowsPerStage(); ++r) {
            for (unsigned p = 0; p < switchRadix; ++p) {
                NodeRange range = t.reach(s, r, p);
                std::set<NodeId> expect;
                for (NodeId x = range.lo; x < range.hi; ++x)
                    expect.insert(x);
                const std::set<NodeId> &seen = truth[{s, r, p}];
                EXPECT_EQ(seen, expect)
                    << "stage " << s << " row " << r << " port "
                    << p;
            }
        }
    }
}

TEST(Topology, ReachRestrictedToRealNodes)
{
    Topology t(10); // 2 stages, 16 channels, 6 unused endpoints
    for (unsigned s = 0; s < t.stages(); ++s) {
        for (unsigned r = 0; r < t.rowsPerStage(); ++r) {
            for (unsigned p = 0; p < switchRadix; ++p) {
                NodeRange range = t.reach(s, r, p);
                EXPECT_LE(range.lo, range.hi);
                EXPECT_LE(range.hi, 10u);
            }
        }
    }
}

TEST(Topology, Stage0ReachPartitionsAllNodes)
{
    // The four output ports of any stage-0 switch on a route's path
    // must jointly reach every node: the network is fully connected.
    Topology t(64);
    auto [row, port] = t.injectPoint(13);
    (void)port;
    std::set<NodeId> all;
    unsigned total = 0;
    for (unsigned p = 0; p < switchRadix; ++p) {
        NodeRange range = t.reach(0, row, p);
        total += range.hi - range.lo;
        for (NodeId x = range.lo; x < range.hi; ++x)
            all.insert(x);
    }
    EXPECT_EQ(all.size(), 64u);
    EXPECT_EQ(total, 64u); // disjoint
}

TEST(Topology, ShuffleIsDigitRotation)
{
    Topology t(64, 3); // 3 stages, 64 channels
    // 64 channels, digits (d2 d1 d0): shuffle -> (d1 d0 d2).
    unsigned c = (2u << 4) | (3u << 2) | 1u; // digits 2,3,1
    unsigned expect = (3u << 4) | (1u << 2) | 2u; // digits 3,1,2
    EXPECT_EQ(t.shuffle(c), expect);
}

TEST(Topology, OversizedSystemRejected)
{
    EXPECT_EXIT(Topology t(2000), ::testing::ExitedWithCode(1),
                "unsupported");
}

TEST(Topology, TooFewStagesRejected)
{
    EXPECT_EXIT(Topology t(64, 2), ::testing::ExitedWithCode(1),
                "address only");
}

} // namespace
} // namespace cenju
