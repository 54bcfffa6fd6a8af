/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, determinism,
 * the deadlock safety net, and property tests pitting the
 * calendar/bucket scheduler against a naive reference queue across
 * the ring/heap boundary. The queue runs closures through the
 * CallbackQueue harness (one record per closure).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "callback_queue.hh"
#include "common/rng.hh"

namespace protozoa {
namespace {

TEST(EventQueue, StartsAtCycleZero)
{
    CallbackQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    CallbackQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TiesRunInSchedulingOrder)
{
    CallbackQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    CallbackQueue eq;
    int count = 0;
    std::function<void()> chain = [&]() {
        if (++count < 5)
            eq.schedule(7, chain);
    };
    eq.schedule(1, chain);
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 1u + 4 * 7u);
}

TEST(EventQueue, ScheduleAtAbsoluteCycle)
{
    CallbackQueue eq;
    Cycle seen = 0;
    eq.scheduleAt(42, [&] { seen = eq.now(); });
    eq.run();
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty)
{
    CallbackQueue eq;
    EXPECT_FALSE(eq.step());
    eq.schedule(1, [] {});
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueueDeath, RunawayQueuePanics)
{
    CallbackQueue eq;
    std::function<void()> forever = [&]() { eq.schedule(100, forever); };
    eq.schedule(1, forever);
    EXPECT_DEATH(eq.run(10'000), "deadlock or livelock");
}

TEST(EventQueueBoundary, SpillThenRingAtTheSameCycleRunsInSeqOrder)
{
    // An event scheduled long in advance (spill heap) and one scheduled
    // later for the same cycle (calendar ring) must still run in
    // scheduling order: the spilled event first.
    constexpr Cycle target = 3 * CallbackQueue::kRingHorizon;
    CallbackQueue eq;
    std::vector<int> order;
    eq.scheduleAt(target, [&] { order.push_back(1); });   // -> spill
    eq.scheduleAt(target - 10, [&eq, &order] {
        eq.scheduleAt(target, [&order] { order.push_back(2); }); // -> ring
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_GT(eq.kernelStats().heapScheduled, 0u);
    EXPECT_GT(eq.kernelStats().bucketScheduled, 0u);
}

TEST(EventQueueBoundary, DelaysStraddlingTheHorizonKeepTimeOrder)
{
    constexpr Cycle h = CallbackQueue::kRingHorizon;
    CallbackQueue eq;
    std::vector<Cycle> fired;
    for (Cycle d : {h + 1, h, h - 1, Cycle(1), h * 2, h * 5 + 3})
        eq.schedule(d, [&fired, &eq] { fired.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(fired.size(), 6u);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
    EXPECT_EQ(fired.front(), 1u);
    EXPECT_EQ(fired.back(), h * 5 + 3);
}

/**
 * Reference scheduler: a flat vector scanned for the (when, seq)
 * minimum. O(n^2) but obviously correct; the property tests require
 * the calendar queue to replay its execution order exactly.
 */
class RefQueue
{
  public:
    using Callback = std::function<void()>;

    Cycle now() const { return cur; }

    void schedule(Cycle delay, Callback cb) { scheduleAt(cur + delay, std::move(cb)); }

    void
    scheduleAt(Cycle when, Callback cb)
    {
        evs.push_back(Ev{when, seq++, std::move(cb)});
    }

    void
    run()
    {
        while (!evs.empty()) {
            auto it = std::min_element(
                evs.begin(), evs.end(), [](const Ev &a, const Ev &b) {
                    return a.when != b.when ? a.when < b.when
                                            : a.seq < b.seq;
                });
            Ev ev = std::move(*it);
            evs.erase(it);
            cur = ev.when;
            ev.cb();
        }
    }

  private:
    struct Ev
    {
        Cycle when;
        std::uint64_t seq;
        Callback cb;
    };

    std::vector<Ev> evs;
    Cycle cur = 0;
    std::uint64_t seq = 0;
};

/** Delay mix spanning both scheduler levels and ring wraparound. */
Cycle
mixedDelay(Rng &rng)
{
    switch (rng.below(4)) {
      case 0:  return rng.below(8);                            // same-ish cycle
      case 1:  return 1 + rng.below(CallbackQueue::kRingHorizon - 1);
      case 2:  return CallbackQueue::kRingHorizon - 2 + rng.below(5);
      default: return CallbackQueue::kRingHorizon + rng.below(4096);
    }
}

/**
 * Run a randomized scenario (initial events + events scheduled from
 * inside callbacks, random delays from mixedDelay) and record the
 * execution order of event ids. Any ordering bug in Q makes the RNG
 * draws diverge from the reference, so the orders differ.
 */
template <typename Q>
std::vector<int>
runScenario(std::uint64_t seed)
{
    Q q;
    Rng rng(seed);
    std::vector<int> order;
    int next_id = 0;

    std::function<void(int, unsigned)> fire = [&](int id, unsigned depth) {
        order.push_back(id);
        if (depth == 0)
            return;
        const unsigned children = static_cast<unsigned>(rng.below(3));
        for (unsigned c = 0; c < children; ++c) {
            const int child = next_id++;
            const Cycle d = mixedDelay(rng);
            q.schedule(d, [&fire, child, depth] { fire(child, depth - 1); });
        }
    };

    for (int i = 0; i < 200; ++i) {
        const int id = next_id++;
        q.schedule(mixedDelay(rng), [&fire, id] { fire(id, 3); });
    }
    q.run();
    return order;
}

TEST(EventQueueProperty, MatchesReferenceSchedulerAcrossSeeds)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const auto expected = runScenario<RefQueue>(seed);
        const auto got = runScenario<CallbackQueue>(seed);
        ASSERT_GT(expected.size(), 200u);
        EXPECT_EQ(got, expected) << "seed " << seed;
    }
}

TEST(EventQueueProperty, CountersBalanceAfterRandomScenario)
{
    CallbackQueue eq;
    Rng rng(42);
    std::uint64_t fired = 0;
    for (int i = 0; i < 500; ++i)
        eq.schedule(mixedDelay(rng), [&fired] { ++fired; });
    eq.run();

    const KernelStats &k = eq.kernelStats();
    EXPECT_EQ(k.eventsScheduled, 500u);
    EXPECT_EQ(k.eventsExecuted, 500u);
    EXPECT_EQ(k.bucketScheduled + k.heapScheduled, k.eventsScheduled);
    EXPECT_GT(k.heapScheduled, 0u);   // the long-tail delays spill
    EXPECT_EQ(k.maxQueueDepth, 500u); // all scheduled before any ran
    EXPECT_EQ(fired, 500u);
    EXPECT_TRUE(eq.empty());
}

} // namespace
} // namespace protozoa
