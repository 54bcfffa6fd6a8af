/**
 * @file
 * Component micro-benchmarks (google-benchmark): hot-path costs of
 * the simulator's data structures — Amoeba set lookups, predictor
 * operations, event-queue scheduling, mesh accounting — plus a small
 * end-to-end simulation throughput measurement.
 */

#include <benchmark/benchmark.h>

#include "cache/amoeba_cache.hh"
#include "cache/fetch_predictor.hh"
#include "common/rng.hh"
#include "mem/golden_memory.hh"
#include "noc/mesh.hh"
#include "protocol/coherence_msg.hh"
#include "protocol/event.hh"
#include "protozoa/protozoa.hh"

namespace protozoa {
namespace {

AmoebaBlock
makeBlock(Addr region, WordRange range)
{
    AmoebaBlock blk;
    blk.region = region;
    blk.range = range;
    blk.words.assign(range.words(), 0);
    return blk;
}

void
BM_AmoebaLookupHit(benchmark::State &state)
{
    SystemConfig cfg;
    AmoebaCache cache(cfg);
    // Populate one set with mixed-granularity blocks.
    const Addr base = 0;
    for (unsigned i = 0; i < 8; ++i)
        cache.insert(makeBlock(base + i * cfg.l1Sets * 64,
                               WordRange(i % 4, i % 4 + 2)));
    Rng rng(1);
    for (auto _ : state) {
        const unsigned i = static_cast<unsigned>(rng.below(8));
        benchmark::DoNotOptimize(
            cache.findCovering(base + i * cfg.l1Sets * 64, i % 4 + 1));
    }
}
BENCHMARK(BM_AmoebaLookupHit);

void
BM_AmoebaOverlapScan(benchmark::State &state)
{
    SystemConfig cfg;
    AmoebaCache cache(cfg);
    const Addr region = 0x1000 * cfg.l1Sets;
    for (unsigned w = 0; w < 8; w += 2)
        cache.insert(makeBlock(region, WordRange(w, w)));
    AmoebaCache::BlockPtrs hits;
    for (auto _ : state) {
        hits.clear();
        cache.overlapping(region, WordRange(0, 7), hits);
        benchmark::DoNotOptimize(hits.size());
    }
}
BENCHMARK(BM_AmoebaOverlapScan);

void
BM_AmoebaInsertEvict(benchmark::State &state)
{
    SystemConfig cfg;
    AmoebaCache cache(cfg);
    Addr next = 0;
    AmoebaCache::Evicted evicted;
    for (auto _ : state) {
        const Addr region = next;
        next += cfg.l1Sets * 64;   // always the same set
        evicted.clear();
        cache.makeRoom(region, WordRange(0, 7), evicted);
        benchmark::DoNotOptimize(evicted.size());
        cache.insert(makeBlock(region, WordRange(0, 7)));
    }
}
BENCHMARK(BM_AmoebaInsertEvict);

void
BM_PredictorPredict(benchmark::State &state)
{
    FetchPredictor pred{SystemConfig{}}; // PcSpatial, 8-word regions
    for (Pc pc = 0; pc < 64; ++pc)
        pred.learn(pc * 4, 2, 0b11100, WordRange(0, 7));
    Rng rng(2);
    for (auto _ : state) {
        const Pc pc = 4 * rng.below(64);
        const unsigned w = static_cast<unsigned>(rng.below(8));
        benchmark::DoNotOptimize(
            pred.predict(pc, w, WordRange(w, w)));
    }
}
BENCHMARK(BM_PredictorPredict);

void
BM_PredictorLearn(benchmark::State &state)
{
    FetchPredictor pred{SystemConfig{}};
    Rng rng(3);
    for (auto _ : state) {
        const Pc pc = 4 * rng.below(64);
        pred.learn(pc, 1, static_cast<WordMask>(rng.below(256)),
                   WordRange(0, 7));
    }
}
BENCHMARK(BM_PredictorLearn);

void
BM_EventQueueScheduleStep(benchmark::State &state)
{
    EventQueue eq;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            eq.schedule(static_cast<Cycle>(i % 7),
                        Event::of(EventKind::CoreStep));
        while (eq.step([](const Event &) {})) {
        }
    }
}
BENCHMARK(BM_EventQueueScheduleStep);

void
BM_MeshSend(benchmark::State &state)
{
    EventQueue eq;
    SystemConfig cfg;
    Mesh mesh(cfg);
    Rng rng(4);
    for (auto _ : state) {
        const Cycle arrival =
            mesh.routeMessage(static_cast<unsigned>(rng.below(16)),
                              static_cast<unsigned>(rng.below(16)), 72,
                              eq.now());
        eq.scheduleAt(arrival, Event::of(EventKind::Deliver));
        while (eq.step([](const Event &) {})) {
        }
    }
}
BENCHMARK(BM_MeshSend);

void
BM_GoldenMemoryWriteRead(benchmark::State &state)
{
    // Store-commit + load-check hot path over a steady working set:
    // after warmup every access hits an existing page (no allocation).
    WordStore store;
    const unsigned kRegions = 256;
    for (unsigned r = 0; r < kRegions; ++r)
        store.write(static_cast<Addr>(r) * 128, 0);
    Rng rng(5);
    for (auto _ : state) {
        const Addr addr = (rng.below(kRegions) * 128) + 8 * rng.below(16);
        store.write(addr, addr);
        benchmark::DoNotOptimize(store.read(addr));
    }
}
BENCHMARK(BM_GoldenMemoryWriteRead);

void
BM_MsgPayloadBuild(benchmark::State &state)
{
    // Assemble and drain a multi-segment DATA payload, as the directory
    // and the 3-hop direct-supply path do per miss.
    const std::uint64_t run1[] = {1, 2, 3};
    const std::uint64_t run2[] = {4, 5};
    for (auto _ : state) {
        MsgData data;
        data.setRange(WordRange(0, 2), run1);
        data.setRange(WordRange(5, 6), run2);
        std::uint64_t sum = 0;
        data.forEachWord(
            [&](unsigned, std::uint64_t v) { sum += v; });
        benchmark::DoNotOptimize(sum);
    }
}
BENCHMARK(BM_MsgPayloadBuild);

void
BM_MsgPayloadBulkBuild(benchmark::State &state)
{
    // The post-mask data path of the same payload assembly: whole
    // segments land with setRange (one mask check + one memcpy) and
    // drain run-wise via forEachRun instead of word-at-a-time.
    const std::uint64_t run1[] = {1, 2, 3};
    const std::uint64_t run2[] = {4, 5};
    for (auto _ : state) {
        MsgData data;
        data.setRange(WordRange(0, 2), run1);
        data.setRange(WordRange(5, 6), run2);
        std::uint64_t sum = 0;
        data.forEachRun(
            [&](const WordRange &r, const std::uint64_t *src) {
                for (unsigned i = 0; i < r.words(); ++i)
                    sum += src[i];
            });
        benchmark::DoNotOptimize(sum);
    }
}
BENCHMARK(BM_MsgPayloadBulkBuild);

void
BM_MaskRunDecode(benchmark::State &state)
{
    // Sparse-mask -> contiguous-run decomposition (probe payload
    // gather, payload merge): countr_zero/countr_one run splitting
    // over a mix of dense, sparse, and fragmented masks.
    const WordMask masks[] = {0xffff, 0x00f3, 0x5555, 0x8001,
                              0x0ff0, 0xa5a5, 0x0001, 0xfffe};
    unsigned i = 0;
    for (auto _ : state) {
        const WordMask m = masks[i++ & 7];
        unsigned words = 0;
        forEachMaskRun(m, [&](const WordRange &r) {
            words += r.words();
        });
        benchmark::DoNotOptimize(words);
        benchmark::DoNotOptimize(maskRunCount(m));
    }
}
BENCHMARK(BM_MaskRunDecode);

void
BM_SetCoverageSnoop(benchmark::State &state)
{
    // Multi-block coherence snoops against a set whose word-coverage
    // bitmap rejects most probes with one AND: the set holds blocks
    // of the low half of each region, and half the probes ask for
    // words nothing in the set covers.
    SystemConfig cfg;
    AmoebaCache cache(cfg);
    const Addr stride = cfg.l1Sets * 64;   // always the same set
    for (unsigned i = 0; i < 6; ++i)
        cache.insert(makeBlock(stride * i, WordRange(0, 3)));
    AmoebaCache::BlockPtrs hits;
    Rng rng(6);
    for (auto _ : state) {
        const Addr region = stride * rng.below(6);
        const unsigned lo = rng.chance(0.5) ? 0 : 4;
        hits.clear();
        cache.overlapping(region, WordRange(lo, lo + 3), hits);
        benchmark::DoNotOptimize(hits.size());
    }
}
BENCHMARK(BM_SetCoverageSnoop);

void
BM_EndToEndFalseSharing(benchmark::State &state)
{
    // Simulated references per second for the Fig. 1 workload.
    for (auto _ : state) {
        SystemConfig cfg;
        cfg.protocol = ProtocolKind::ProtozoaMW;
        TraceBuilder tb(cfg.numCores, 1);
        genFalseShareCounters(tb, cfg.numCores, 0x1000, 200, 1, 2,
                              0x40);
        System sys(cfg, tb.build());
        sys.run();
        benchmark::DoNotOptimize(sys.report().l1.misses);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 200 * 2 * 16);
}
BENCHMARK(BM_EndToEndFalseSharing)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace protozoa

BENCHMARK_MAIN();
