/**
 * @file
 * Kernel micro-benchmark: events/sec of the calendar/bucket scheduler
 * vs the previous binary-heap + std::function kernel, on a workload
 * mix shaped like the simulator's (mostly small fixed latencies, a
 * 300-cycle memory tier, and a long tail past the ring horizon), with
 * CoherenceMsg-sized callback captures.
 *
 * The legacy scheduler is replicated here verbatim-in-spirit so the
 * comparison stays in one binary under identical flags; the numbers
 * are recorded in EXPERIMENTS.md.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "sim/random_tester.hh"

namespace protozoa {
namespace {

/**
 * The pre-calendar kernel: one global binary heap of heap-allocated
 * std::function callbacks (the seed implementation of EventQueue).
 */
class LegacyEventQueue
{
  public:
    using Callback = std::function<void()>;

    Cycle now() const { return curCycle; }

    void
    schedule(Cycle delay, Callback cb)
    {
        events.push(Event{curCycle + delay, nextSeq++, std::move(cb)});
    }

    bool
    step()
    {
        if (events.empty())
            return false;
        Event ev = std::move(events.top().self());
        events.pop();
        curCycle = ev.when;
        ev.cb();
        return true;
    }

    void
    run()
    {
        while (step()) {
        }
    }

  private:
    struct Event
    {
        Cycle when;
        std::uint64_t seq;
        mutable Callback cb;

        /** Move-enable top(): same trick, without the const_cast. */
        Event &self() const { return const_cast<Event &>(*this); }

        bool
        operator>(const Event &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
    Cycle curCycle = 0;
    std::uint64_t nextSeq = 0;
};

/**
 * Simulator-shaped delay mix (see mesh/L1/memory latencies): one raw
 * draw, masks and shifts only, so the generator does not drown out the
 * scheduler cost being measured.
 */
Cycle
mixedDelay(Rng &rng)
{
    const std::uint64_t r = rng.next();
    const unsigned sel = r & 127;
    if (sel < 90)
        return 1 + ((r >> 8) & 7);           // cache hit / mesh hop
    if (sel < 122)
        return 1 + ((r >> 8) & 255);         // directory / memory tier
    return EventQueue::kRingHorizon + ((r >> 8) & 8191); // long tail
}

/** A CoherenceMsg-sized payload carried by every callback. */
struct Payload
{
    std::uint64_t words[10];
};

/**
 * Self-rescheduling event chain: each firing touches its payload and
 * schedules a successor, exactly like a controller pipeline stage.
 */
template <typename Queue>
struct Chain
{
    Queue *q;
    Rng *rng;
    std::uint64_t *sink;
    std::uint64_t remaining;
    Payload payload;

    void
    operator()()
    {
        *sink += payload.words[0];
        if (remaining == 0)
            return;
        Chain next = *this;
        --next.remaining;
        next.payload.words[0] ^= *sink;
        q->schedule(mixedDelay(*rng), std::move(next));
    }
};

template <typename Queue>
void
runKernelMix(benchmark::State &state)
{
    constexpr unsigned kChains = 64;
    constexpr std::uint64_t kHops = 64;
    for (auto _ : state) {
        Queue q;
        Rng rng(1);
        std::uint64_t sink = 0;
        for (unsigned c = 0; c < kChains; ++c) {
            Chain<Queue> chain{&q, &rng, &sink, kHops, Payload{}};
            chain.payload.words[0] = c + 1;
            q.schedule(mixedDelay(rng), std::move(chain));
        }
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            kChains * (kHops + 1));
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * kChains * (kHops + 1),
        benchmark::Counter::kIsRate);
}

void
BM_LegacyHeapKernel(benchmark::State &state)
{
    runKernelMix<LegacyEventQueue>(state);
}
BENCHMARK(BM_LegacyHeapKernel);

void
BM_CalendarKernel(benchmark::State &state)
{
    runKernelMix<EventQueue>(state);
}
BENCHMARK(BM_CalendarKernel);

// Trivial empty-capture variant isolating pure scheduler overhead.
// The queue is built once: each iteration schedules and drains 4096
// events on it, so construction stays out of the timed loop.
template <typename Queue>
void
runTrivial(benchmark::State &state)
{
    Queue q;
    for (auto _ : state) {
        Rng rng(2);
        for (int i = 0; i < 4096; ++i)
            q.schedule(mixedDelay(rng), [] {});
        q.run();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            4096);
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 4096,
        benchmark::Counter::kIsRate);
}

void
BM_LegacyHeapKernelTrivial(benchmark::State &state)
{
    runTrivial<LegacyEventQueue>(state);
}
BENCHMARK(BM_LegacyHeapKernelTrivial);

void
BM_CalendarKernelTrivial(benchmark::State &state)
{
    runTrivial<EventQueue>(state);
}
BENCHMARK(BM_CalendarKernelTrivial);

/**
 * End-to-end system benchmark: a full 16-core System driven by the
 * random tester (hot/cold pools, golden-memory oracle on), reporting
 * simulated accesses per wall-clock second. This is the number the
 * data-path work (inline storage, pooled tables) is judged against.
 */
void
runSystemThroughput(benchmark::State &state, ProtocolKind proto)
{
    RandomTester::Params p;
    p.protocol = proto;
    p.accessesPerCore = 2000;
    p.seed = 7;
    std::uint64_t accesses = 0;
    for (auto _ : state) {
        auto res = RandomTester::run(p);
        accesses += res.accesses;
        benchmark::DoNotOptimize(res.stats.l1.misses);
        if (res.valueViolations || res.invariantViolations)
            state.SkipWithError("coherence violation during benchmark");
    }
    state.counters["accesses/s"] = benchmark::Counter(
        static_cast<double>(accesses), benchmark::Counter::kIsRate);
}

void
BM_SystemMESI(benchmark::State &state)
{
    runSystemThroughput(state, ProtocolKind::MESI);
}
BENCHMARK(BM_SystemMESI)->Unit(benchmark::kMillisecond);

void
BM_SystemProtozoaMW(benchmark::State &state)
{
    runSystemThroughput(state, ProtocolKind::ProtozoaMW);
}
BENCHMARK(BM_SystemProtozoaMW)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace protozoa

BENCHMARK_MAIN();
