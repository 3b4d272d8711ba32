/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering, time
 * semantics, statistics, and RNG determinism.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/object_pool.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/timing.hh"

namespace cenju
{
namespace
{

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.scheduleAfter(5, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 6u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.schedule(30, [&] { ++fired; });
    EXPECT_EQ(eq.runUntil(20), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenEmpty)
{
    EventQueue eq;
    eq.runUntil(100);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, RunUntilAdvancesTimeWithPendingEvents)
{
    // Regression: now() must reach the limit even when later events
    // remain queued, so fixed-quantum callers see a consistent clock.
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(30, [&] { ++fired; });
    EXPECT_EQ(eq.runUntil(20), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.size(), 1u);
    eq.runUntil(25);
    EXPECT_EQ(eq.now(), 25u);
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, MoveOnlyCaptureIsSchedulable)
{
    EventQueue eq;
    auto p = std::make_unique<int>(7);
    int seen = 0;
    eq.schedule(1, [q = std::move(p), &seen] { seen = *q; });
    eq.run();
    EXPECT_EQ(seen, 7);
}

namespace
{

struct PooledThing : cenju::Pooled<PooledThing>
{
    std::uint64_t payload[4] = {};
};

} // namespace

TEST(ObjectPool, RecyclesBlocks)
{
    PooledThing::drainPool();
    auto *a = new PooledThing;
    delete a;
    EXPECT_EQ(PooledThing::pooledCount(), 1u);
    auto *b = new PooledThing; // reuses the freed block
    EXPECT_EQ(b, a);
    EXPECT_EQ(PooledThing::pooledCount(), 0u);
    delete b;
    PooledThing::drainPool();
    EXPECT_EQ(PooledThing::pooledCount(), 0u);
}

TEST(EventQueue, LargeCaptureStillRuns)
{
    // Captures past the inline capacity fall back to a heap box.
    EventQueue eq;
    std::array<std::uint64_t, 32> big{};
    big[31] = 99;
    std::uint64_t seen = 0;
    eq.schedule(1, [big, &seen] { seen = big[31]; });
    eq.run();
    EXPECT_EQ(seen, 99u);
}

TEST(EventQueue, SchedulingInPastDies)
{
    EventQueue eq;
    eq.schedule(50, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(10, [] {}), "past");
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&] {
        eq.scheduleAfter(7, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 107u);
}

TEST(EventQueue, ExecutedCounts)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(static_cast<Tick>(i), [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 5u);
}

TEST(SampleStat, Moments)
{
    SampleStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.sample(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
}

TEST(SampleStat, EmptyIsSafe)
{
    SampleStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(SampleStat, MergeMatchesCombinedStream)
{
    SampleStat a, b, all;
    for (int i = 0; i < 50; ++i) {
        double v = i * 0.7;
        (i % 2 ? a : b).sample(v);
        all.sample(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.stddev(), all.stddev(), 1e-9);
}

TEST(StatGroup, NamedLookupIsStable)
{
    StatGroup g("test");
    Counter &c1 = g.counter("hits");
    ++c1;
    Counter &c2 = g.counter("hits");
    EXPECT_EQ(&c1, &c2);
    EXPECT_EQ(c2.value(), 1u);
    g.reset();
    EXPECT_EQ(c1.value(), 0u);
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42), c(43);
    bool differs = false;
    for (int i = 0; i < 100; ++i) {
        std::uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            differs = true;
    }
    EXPECT_TRUE(differs);
}

TEST(Rng, BelowIsInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowCoversRange)
{
    Rng r(11);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 4000; ++i)
        ++seen[r.below(8)];
    for (int count : seen)
        EXPECT_GT(count, 300); // each bucket near 500
}

TEST(Rng, RealInUnitInterval)
{
    Rng r(3);
    for (int i = 0; i < 10000; ++i) {
        double v = r.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, SampleDistinctIsDistinctAndInRange)
{
    Rng r(99);
    auto v = r.sampleDistinct(20, 100);
    ASSERT_EQ(v.size(), 20u);
    std::vector<bool> seen(100, false);
    for (auto x : v) {
        ASSERT_LT(x, 100u);
        EXPECT_FALSE(seen[x]);
        seen[x] = true;
    }
}

TEST(Rng, SampleDistinctClampsToPopulation)
{
    Rng r(5);
    auto v = r.sampleDistinct(50, 10);
    EXPECT_EQ(v.size(), 10u);
}

TEST(Timing, TraversalFormulaMatchesTable2Calibration)
{
    TimingParams t;
    // Table 2 row (c): 610 + 2 * traversal(stages).
    EXPECT_EQ(610 + 2 * t.traversal(2), 1690u);
    EXPECT_EQ(610 + 2 * t.traversal(4), 2210u);
    EXPECT_EQ(610 + 2 * t.traversal(6), 2730u);
}

} // namespace
} // namespace cenju
