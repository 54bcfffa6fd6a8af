/**
 * @file
 * Zero-allocation regression test for the steady-state data path.
 *
 * The tentpole claim of the zero-allocation work is that once a run's
 * working set is warm — cache slot pools filled, controller tables and
 * FIFO pools at their high-water marks, golden-memory pages created —
 * the simulation loop performs no heap allocation at all: no block
 * payloads, no message payloads, no map nodes, no queue nodes.
 *
 * This binary interposes counting operator new/delete (see
 * alloc_hook.hh) and drives a 100k-access random workload twice per
 * protocol: a first run measures the total cycle count C, a second
 * identical run snapshots the allocation counter at 0.25*C and asserts
 * the counter never moves again. The window deliberately opens right
 * after the bounded footprint is first touched, so the fill-heavy
 * early phase — L2 misses streaming whole regions out of the memory
 * image — is measured too: directory fills land in the entry's
 * sidecar, claimed from a reservation made at construction, and must
 * not allocate. The workload keeps a bounded, hot footprint (no cold
 * pool) through a deliberately tiny L1/L2, so evictions, writebacks,
 * inclusive recalls and probe races all stay active inside the
 * measured window; a separate case grows the L2 footprint through
 * the whole window on the full-size L2. A last case holds the
 * explorer's per-state work (save, restore, fingerprint) to zero.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "check/scenario.hh"
#include "check/state_fingerprint.hh"
#include "common/alloc_hook.hh"
#include "common/rng.hh"
#include "sim/system.hh"
#include "workload/streaming_trace.hh"
#include "workload/trace.hh"

PROTOZOA_DEFINE_COUNTING_NEW

namespace protozoa {
namespace {

SystemConfig
hostileCfg(ProtocolKind protocol)
{
    SystemConfig cfg;
    cfg.protocol = protocol;
    cfg.seed = 11;
    cfg.checkValues = true;
    cfg.l1Sets = 4;              // force constant evictions
    cfg.l2BytesPerTile = 4096;   // force inclusive recalls
    return cfg;
}

Workload
hotPoolWorkload(const SystemConfig &cfg, std::uint64_t accesses_per_core)
{
    // Bounded footprint: every region and golden-memory page is touched
    // early, so all warmup growth happens well before the measurement
    // window opens.
    const unsigned kRegions = 64;
    const Addr base = 0x40000000;
    Rng rng(cfg.seed * 0x5851f42d4c957f2dULL + 7);

    Workload wl;
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        std::vector<TraceRecord> recs;
        recs.reserve(accesses_per_core);
        for (std::uint64_t i = 0; i < accesses_per_core; ++i) {
            TraceRecord rec;
            const std::uint64_t region = rng.below(kRegions);
            const unsigned word =
                static_cast<unsigned>(rng.below(cfg.regionWords()));
            rec.addr = base + region * cfg.regionBytes +
                       static_cast<Addr>(word) * kWordBytes;
            rec.pc = 0x1000 + 4 * rng.below(16);
            rec.isWrite = rng.chance(0.4);
            rec.gapInstrs = static_cast<std::uint16_t>(rng.range(1, 4));
            recs.push_back(rec);
        }
        wl.push_back(std::make_unique<VectorTrace>(std::move(recs)));
    }
    return wl;
}

void
expectNoSteadyStateAllocs(ProtocolKind protocol)
{
    const std::uint64_t kAccessesPerCore = 6250;

    // Run 1: learn the total cycle count for this (deterministic)
    // workload.
    const SystemConfig cfg = hostileCfg(protocol);
    Cycle total_cycles = 0;
    {
        System sys(cfg, hotPoolWorkload(cfg, kAccessesPerCore));
        sys.run();
        total_cycles = sys.report().cycles;
        EXPECT_EQ(sys.valueViolations(), 0u);
    }
    ASSERT_GT(total_cycles, 0u);

    // Run 2: identical workload; snapshot the allocation counter at
    // 0.25*C and require that execution — fill-heavy warmup quarter
    // included — never allocates again.
    System sys(cfg, hotPoolWorkload(cfg, kAccessesPerCore));
    std::uint64_t at_window = 0;
    auto probe = [&at_window] { at_window = AllocHook::allocCount(); };
    sys.scheduleTestHook(total_cycles / 4, probe);
    sys.run();
    const std::uint64_t at_end = AllocHook::allocCount();

    EXPECT_EQ(sys.valueViolations(), 0u);
    ASSERT_GT(at_window, 0u);   // the snapshot callback ran
    EXPECT_EQ(at_end - at_window, 0u)
        << protocolName(protocol) << ": " << (at_end - at_window)
        << " heap allocation(s) in the last three quarters of a "
        << total_cycles << "-cycle run";
}

TEST(AllocRegression, MesiSteadyStateIsAllocationFree)
{
    expectNoSteadyStateAllocs(ProtocolKind::MESI);
}

TEST(AllocRegression, ProtozoaMWSteadyStateIsAllocationFree)
{
    expectNoSteadyStateAllocs(ProtocolKind::ProtozoaMW);
}

/**
 * A footprint that keeps growing on the Table-4 2 MB/tile L2. Core c
 * loads its own run of never-touched regions, one new region per
 * load: global region indices [c*n, (c+1)*n), so every tile sees one
 * new region per set and each load is an L2 miss that makes a slot
 * valid and claims its sidecar. A quarter of the accesses are stores
 * to a 64-region hot pool, which keeps probes, invalidations and
 * writebacks in the mix; its memory pages exist after the first few
 * hundred accesses, and loads create no pages.
 */
Workload
growingFootprintWorkload(const SystemConfig &cfg,
                         std::uint64_t accesses_per_core)
{
    const unsigned kHotRegions = 64;
    const Addr hot_base = 0x40000000;
    const Addr fresh_base = 0x80000000;
    Rng rng(cfg.seed * 0x2545f4914f6cdd1dULL + 3);

    Workload wl;
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        std::vector<TraceRecord> recs;
        recs.reserve(accesses_per_core);
        Addr next_fresh = fresh_base + Addr(c) * accesses_per_core *
                                           cfg.regionBytes;
        for (std::uint64_t i = 0; i < accesses_per_core; ++i) {
            TraceRecord rec;
            rec.isWrite = rng.chance(0.25);
            if (rec.isWrite) {
                rec.addr = hot_base +
                           rng.below(kHotRegions) * cfg.regionBytes;
            } else {
                rec.addr = next_fresh;
                next_fresh += cfg.regionBytes;
            }
            rec.pc = 0x2000 + 4 * rng.below(16);
            rec.gapInstrs = static_cast<std::uint16_t>(rng.range(1, 4));
            recs.push_back(rec);
        }
        wl.push_back(std::make_unique<VectorTrace>(std::move(recs)));
    }
    return wl;
}

std::uint64_t
l2Misses(System &sys)
{
    std::uint64_t misses = 0;
    for (TileId t = 0; t < sys.config().l2Tiles; ++t)
        misses += sys.dir(t).stats.l2Misses;
    return misses;
}

/**
 * The directory's claim: L2 entry storage is claimed on a slot's first
 * fill from a reservation made at construction, so a run whose L2
 * footprint grows all the way through the measured window (every
 * fresh load claims a sidecar) still never allocates.
 */
TEST(AllocRegression, GrowingL2FootprintIsAllocationFree)
{
    const std::uint64_t kAccessesPerCore = 3000;
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaMW;
    cfg.seed = 19;
    ASSERT_EQ(cfg.l2BytesPerTile, 2ull * 1024 * 1024);

    Cycle total_cycles = 0;
    {
        System sys(cfg, growingFootprintWorkload(cfg, kAccessesPerCore));
        sys.run();
        total_cycles = sys.report().cycles;
        EXPECT_EQ(sys.valueViolations(), 0u);
    }
    ASSERT_GT(total_cycles, 0u);

    System sys(cfg, growingFootprintWorkload(cfg, kAccessesPerCore));
    std::uint64_t at_window = 0;
    std::uint64_t misses_at_window = 0;
    auto probe = [&] {
        at_window = AllocHook::allocCount();
        misses_at_window = l2Misses(sys);
    };
    sys.scheduleTestHook(total_cycles / 4, probe);
    sys.run();
    const std::uint64_t at_end = AllocHook::allocCount();

    EXPECT_EQ(sys.valueViolations(), 0u);
    ASSERT_GT(at_window, 0u);
    // The footprint really grows inside the window: well over half of
    // the fresh-region loads miss in the L2 after it opens.
    const std::uint64_t fresh_loads = cfg.numCores * kAccessesPerCore * 3 / 4;
    EXPECT_GT(l2Misses(sys) - misses_at_window, fresh_loads / 2);
    EXPECT_EQ(at_end - at_window, 0u)
        << (at_end - at_window)
        << " heap allocation(s) in the last three quarters of a "
        << total_cycles << "-cycle run with a growing L2 footprint";
}

/**
 * The streaming front end's claim: once the per-core record rings and
 * the pooled chunk buffer hit their high-water marks, refilling from a
 * PZTR file allocates nothing. Same hot-pool workload as above, but
 * delivered through StreamingTraceSource views instead of
 * materialized VectorTraces.
 */
TEST(AllocRegression, StreamedSteadyStateIsAllocationFree)
{
    const std::uint64_t kAccessesPerCore = 6250;
    SystemConfig cfg = hostileCfg(ProtocolKind::ProtozoaMW);

    // Materialize once (setup, unmeasured) into a chunked binary file.
    const std::string path = "alloc_regression_stream.pztr";
    {
        std::ofstream out(path, std::ios::binary);
        TraceWriter w(out, TraceWriter::Format::Binary, cfg.numCores,
                      256);
        Workload src = hotPoolWorkload(cfg, kAccessesPerCore);
        TraceRecord rec;
        bool more = true;
        while (more) {
            more = false;
            for (unsigned c = 0; c < cfg.numCores; ++c) {
                if (src[c]->next(rec)) {
                    w.append(c, rec);
                    more = true;
                }
            }
        }
        w.finish();
    }

    Cycle total_cycles = 0;
    {
        std::string err;
        auto file = StreamingTraceFile::open(path, &err);
        ASSERT_NE(file, nullptr) << err;
        System sys(cfg, file->makeWorkload());
        sys.run();
        total_cycles = sys.report().cycles;
        EXPECT_EQ(sys.valueViolations(), 0u);
    }
    ASSERT_GT(total_cycles, 0u);

    std::string err;
    auto file = StreamingTraceFile::open(path, &err);
    ASSERT_NE(file, nullptr) << err;
    System sys(cfg, file->makeWorkload());
    std::uint64_t at_window = 0;
    auto probe = [&at_window] { at_window = AllocHook::allocCount(); };
    sys.scheduleTestHook(total_cycles / 4, probe);
    sys.run();
    const std::uint64_t at_end = AllocHook::allocCount();

    EXPECT_EQ(sys.valueViolations(), 0u);
    ASSERT_GT(at_window, 0u);
    EXPECT_EQ(at_end - at_window, 0u)
        << (at_end - at_window)
        << " heap allocation(s) while streaming the last three "
        << "quarters of a " << total_cycles << "-cycle run";
    std::remove(path.c_str());
}

/**
 * A restore seeks every core's source: once a ring has decoded a full
 * chunk, seeking within it, past it by header or back behind it, and
 * reading on from there, allocates nothing.
 */
TEST(AllocRegression, StreamedSeekIsAllocationFree)
{
    const unsigned kCores = 3;
    const std::uint64_t kChunk = 64;
    const std::uint64_t kRecords = 1000;
    const std::string path = "alloc_regression_seek.pztr";
    {
        std::ofstream out(path, std::ios::binary);
        TraceWriter w(out, TraceWriter::Format::Binary, kCores, kChunk);
        TraceRecord rec;
        for (std::uint64_t i = 0; i < kRecords; ++i) {
            rec.addr = i * kWordBytes;
            for (unsigned c = 0; c < kCores; ++c)
                w.append(c, rec);
        }
    }
    std::string err;
    auto file = StreamingTraceFile::open(path, &err);
    ASSERT_NE(file, nullptr) << err;
    Workload wl = file->makeWorkload();
    TraceSource &src = *wl[1];
    TraceRecord rec;
    ASSERT_TRUE(src.next(rec)); // decodes the first full chunk

    // Within the ring, past it, into the short last chunk, backward,
    // to the end, to the start, and forward again; each read on for
    // up to a chunk.
    const std::uint64_t targets[] = {10,       kChunk + 5, kRecords - 3,
                                     kChunk / 2, kRecords, 0,
                                     7 * kChunk};
    bool ok = true;
    const std::uint64_t before = AllocHook::allocCount();
    for (const std::uint64_t n : targets) {
        ok = ok && src.seekTo(n) && src.cursor() == n;
        for (std::uint64_t i = n; ok && i < std::min(n + kChunk, kRecords);
             ++i)
            ok = src.next(rec) && rec.addr == i * kWordBytes;
    }
    ok = ok && !src.seekTo(kRecords + 1);
    const std::uint64_t allocs = AllocHook::allocCount() - before;

    EXPECT_TRUE(ok);
    EXPECT_EQ(allocs, 0u) << allocs << " heap allocation(s) seeking a "
                          << "source whose ring holds a chunk";
    std::remove(path.c_str());
}

/** Heap allocations made by constructing and destroying one System. */
std::uint64_t
constructionAllocs(const SystemConfig &cfg)
{
    Workload wl = hotPoolWorkload(cfg, 0);
    const std::uint64_t before = AllocHook::allocCount();
    {
        System sys(cfg, std::move(wl));
    }
    return AllocHook::allocCount() - before;
}

/**
 * The L1's claim: each cache is a fixed handful of flat arrays, so the
 * number of heap allocations a System makes does not grow with the
 * number of L1 sets (it used to be 1 + 6 * l1Sets per L1).
 */
TEST(AllocRegression, L1SetCountDoesNotScaleConstructionAllocs)
{
    SystemConfig small;
    small.l1Sets = 64;
    SystemConfig large;
    large.l1Sets = 1024;
    const std::uint64_t a = constructionAllocs(small);
    const std::uint64_t b = constructionAllocs(large);
    EXPECT_EQ(a, b);
    EXPECT_LT(a, 1000u);
}

/**
 * A scenario's System driven as the explorer drives it: each completed
 * access issues the core's next one, and a step delivers the first
 * parked channel head and runs to the next quiescent point.
 */
struct ScenarioRun
{
    explicit ScenarioRun(const check::Scenario &s)
        : scenario(s), cfg(s.toConfig(ProtocolKind::ProtozoaMW)),
          sys(cfg, hotPoolWorkload(cfg, 0)), issued(cfg.numCores, 0),
          completed(cfg.numCores, 0)
    {
        sys.setAccessSink([this](CoreId c, std::uint64_t) {
            ++completed[c];
            issueNext(c);
        });
        for (CoreId c = 0; c < cfg.numCores; ++c)
            issueNext(c);
        sys.drain();
    }

    void
    issueNext(CoreId c)
    {
        for (std::size_t seen = 0; const auto &a : scenario.accesses) {
            if (a.core != c || seen++ < issued[c])
                continue;
            ++issued[c];
            MemAccess acc;
            acc.addr = a.addr;
            acc.isWrite = a.isWrite;
            acc.storeValue = a.value;
            acc.pc = a.pc;
            sys.l1(c).requestAccess(acc);
            return;
        }
    }

    void
    step()
    {
        unsigned src = 0;
        unsigned dst = 0;
        bool found = false;
        sys.mesh().forEachParkedChannel(
            [&](unsigned s, unsigned d, auto) {
                if (!found) {
                    src = s;
                    dst = d;
                    found = true;
                }
            });
        ASSERT_TRUE(found);
        sys.deliverParked(src, dst);
        sys.drain();
    }

    const check::Scenario &scenario;
    const SystemConfig cfg;
    System sys;
    std::vector<std::size_t> issued;
    std::vector<unsigned> completed;
};

/**
 * Heap allocations in 100 explorer state cycles of @p run after one
 * warm-up cycle: save into a reused buffer, restore that image in
 * place, and fingerprint. Every cycle must give the same fingerprint.
 */
std::uint64_t
stateCycleAllocs(ScenarioRun &run)
{
    const std::vector<Addr> regions = run.scenario.regionFootprint();
    std::vector<std::uint8_t> image;
    check::FingerprintScratch scratch;
    std::string err;
    std::uint64_t fp = 0;
    const auto cycle = [&] {
        Serializer out(std::move(image));
        EXPECT_TRUE(run.sys.saveSnapshot(out, &err)) << err;
        image = out.take();
        Deserializer d(image);
        EXPECT_TRUE(run.sys.restoreSnapshot(d, &err)) << err;
        fp = check::fingerprintSystem(run.sys, regions, run.completed,
                                      scratch);
    };
    cycle();
    const std::uint64_t warm = fp;
    const std::uint64_t before = AllocHook::allocCount();
    for (int i = 0; i < 100; ++i)
        cycle();
    const std::uint64_t allocs = AllocHook::allocCount() - before;
    EXPECT_EQ(fp, warm) << run.scenario.name;
    return allocs;
}

/**
 * The explorer's per-state work allocates nothing once its buffers
 * are sized: at a quiescent point of a PcSpatial scenario under MW,
 * with blocks cached, predictor entries trained and messages parked.
 */
TEST(AllocRegression, ExplorerStateCycleIsAllocationFree)
{
    for (const char *name : {"mw-word-churn", "pcspatial-stride-3core"}) {
        const check::Scenario *s = check::findScenario(name);
        ASSERT_NE(s, nullptr) << name;
        ASSERT_EQ(s->cfg.predictor, PredictorKind::PcSpatial) << name;
        ScenarioRun run(*s);
        // Deep enough that a block has died and trained its predictor.
        bool trained = false;
        for (int i = 0; i < 40 && !trained; ++i) {
            run.step();
            for (CoreId c = 0; c < run.cfg.numCores; ++c) {
                Serializer table;
                run.sys.l1(c).predictorPolicy().saveState(table);
                trained = trained || table.size() > 8;
            }
        }
        ASSERT_TRUE(trained) << name;
        ASSERT_GT(run.sys.mesh().parkedMessages(), 0u) << name;
        EXPECT_EQ(stateCycleAllocs(run), 0u)
            << name << ": heap allocations in 100 save/restore/"
            << "fingerprint cycles";
    }
}

/**
 * The same under the TaglessBloom directory, whose tiles restore
 * their counting-filter counters in place: in each Bloom scenario,
 * one delivery in, with messages still parked.
 */
TEST(AllocRegression, BloomExplorerStateCycleIsAllocationFree)
{
    for (const char *name : {"bloom-nack-upgrade", "bloom-false-probe",
                             "threehop-bloom-cross"}) {
        const check::Scenario *s = check::findScenario(name);
        ASSERT_NE(s, nullptr) << name;
        ASSERT_EQ(s->cfg.directory, DirectoryKind::TaglessBloom) << name;
        ScenarioRun run(*s);
        run.step();
        ASSERT_GT(run.sys.mesh().parkedMessages(), 0u) << name;
        EXPECT_EQ(stateCycleAllocs(run), 0u)
            << name << ": heap allocations in 100 save/restore/"
            << "fingerprint cycles";
    }
}

TEST(AllocRegression, HookCountsAreLive)
{
    const std::uint64_t before = AllocHook::allocCount();
    auto *p = new int(7);
    EXPECT_GT(AllocHook::allocCount(), before);
    delete p;
}

} // namespace
} // namespace protozoa
