/**
 * @file
 * Kernel micro-benchmark: events/sec of the calendar/bucket scheduler
 * on a workload mix shaped like the simulator's (mostly small fixed
 * latencies, a 300-cycle memory tier, and a long tail past the ring
 * horizon), carrying the simulator's own event record, plus end-to-end
 * System throughput.
 */

#include <benchmark/benchmark.h>

#include <cstdint>

#include "common/rng.hh"
#include "protocol/event.hh"
#include "sim/random_tester.hh"

namespace protozoa {
namespace {

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

/**
 * Self-rescheduling event chains: each firing touches the CoherenceMsg
 * its record carries and schedules a successor, exactly like a
 * controller pipeline stage. The record's id counts the hops left.
 */
void
BM_CalendarKernel(benchmark::State &state)
{
    constexpr unsigned kChains = 64;
    constexpr std::uint16_t kHops = 64;
    for (auto _ : state) {
        EventQueue q;
        Rng rng(1);
        std::uint64_t sink = 0;
        for (unsigned c = 0; c < kChains; ++c) {
            CoherenceMsg msg;
            msg.region = c + 1;
            q.schedule(mixedDelay(rng),
                       Event::of(EventKind::Deliver, kHops, msg));
        }
        q.run([&](const Event &ev) {
            sink += ev.msg.region;
            if (ev.id == 0)
                return;
            Event next = ev;
            --next.id;
            next.msg.region ^= sink;
            q.schedule(mixedDelay(rng), next);
        });
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            kChains * (kHops + 1));
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * kChains * (kHops + 1),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CalendarKernel);

// Payload-free variant isolating pure scheduler overhead.
// The queue is built once: each iteration schedules and drains 4096
// events on it, so construction stays out of the timed loop.
void
BM_CalendarKernelTrivial(benchmark::State &state)
{
    EventQueue q;
    for (auto _ : state) {
        Rng rng(2);
        for (int i = 0; i < 4096; ++i)
            q.schedule(mixedDelay(rng), Event::of(EventKind::CoreStep));
        q.run([](const Event &) {});
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            4096);
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 4096,
        benchmark::Counter::kIsRate);
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
    p.cfg.protocol = proto;
    p.accessesPerCore = 2000;
    p.cfg.seed = 7;
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
