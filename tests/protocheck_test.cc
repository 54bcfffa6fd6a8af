/**
 * @file
 * Unit tests for the protocheck subsystem: state-fingerprint
 * canonicalization, explorer sanity on library scenarios, schedule
 * replay determinism, and the knob-profile dimension of the
 * transition-coverage matrix.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>

#include "check/explorer.hh"
#include "check/minimizer.hh"
#include "check/scenario.hh"
#include "check/state_fingerprint.hh"
#include "protocol_driver.hh"

using namespace protozoa;
using namespace protozoa::check;

namespace {

/**
 * Build a 2-core oracle-enabled system, issue one store per core in
 * the given order, run to quiescence (every message parks), and
 * fingerprint. Issue order across cores must not affect the hash:
 * the parked messages land in distinct (src,dst) channels either way.
 */
std::uint64_t
fingerprintAfterStores(bool swapIssueOrder, Addr a0, Addr a1,
                       std::uint64_t v0, std::uint64_t v1)
{
    Scenario s;
    s.name = "fp-harness";
    const SystemConfig cfg = s.toConfig(ProtocolKind::ProtozoaMW);
    System sys(cfg, emptyWorkload(cfg.numCores));

    auto issue = [&](CoreId c, Addr a, std::uint64_t v) {
        MemAccess acc;
        acc.addr = a;
        acc.isWrite = true;
        acc.storeValue = v;
        acc.pc = 0x3000;
        sys.l1(c).requestAccess(acc);
    };
    if (swapIssueOrder) {
        issue(1, a1, v1);
        issue(0, a0, v0);
    } else {
        issue(0, a0, v0);
        issue(1, a1, v1);
    }
    sys.drain();
    EXPECT_GT(sys.mesh().parkedMessages(), 0u);

    std::vector<Addr> regions{regionBase(a0, cfg.regionBytes),
                              regionBase(a1, cfg.regionBytes)};
    std::sort(regions.begin(), regions.end());
    regions.erase(std::unique(regions.begin(), regions.end()),
                  regions.end());
    const std::vector<unsigned> progress{0, 0};
    FingerprintScratch scratch;
    return fingerprintSystem(sys, regions, progress, scratch);
}

constexpr Addr kBase = 0x40000000;

/** Deliver the first channel's head until nothing is parked. */
void
settle(System &sys)
{
    for (;;) {
        sys.drain();
        bool any = false;
        unsigned src = 0;
        unsigned dst = 0;
        sys.mesh().forEachParkedChannel(
            [&](unsigned s, unsigned d, std::span<const Mesh::Parked>) {
                if (!any) {
                    any = true;
                    src = s;
                    dst = d;
                }
            });
        if (!any)
            return;
        sys.deliverParked(src, dst);
    }
}

/**
 * Build a 2-core oracle-enabled system under @p predictor, let core 0
 * load @p words of region kBase in order, all from @p pc (the first
 * misses and fetches the block, the rest hit), settle, and
 * fingerprint. A non-zero @p trainPc also trains core 0's predictor
 * entry for that pc.
 */
std::uint64_t
fingerprintAfterLoads(PredictorKind predictor, Pc pc,
                      const std::vector<unsigned> &words, Pc trainPc = 0)
{
    Scenario s;
    s.name = "fp-predictor";
    s.cfg.predictor = predictor;
    // Not MESI: System replaces MESI's predictor with FullRegion.
    const SystemConfig cfg = s.toConfig(ProtocolKind::ProtozoaMW);
    System sys(cfg, emptyWorkload(cfg.numCores));
    bool done = false;
    sys.setAccessSink([&](CoreId, std::uint64_t) { done = true; });
    for (const unsigned w : words) {
        done = false;
        MemAccess acc;
        acc.addr = kBase + static_cast<Addr>(w) * kWordBytes;
        acc.pc = pc;
        sys.l1(0).requestAccess(acc);
        settle(sys);
        EXPECT_TRUE(done);
    }
    if (trainPc != 0)
        sys.l1(0).predictorPolicy().learn(trainPc, 0, 1, WordRange(0, 0));
    const std::vector<unsigned> progress{
        static_cast<unsigned>(words.size()), 0};
    FingerprintScratch scratch;
    return fingerprintSystem(sys, {kBase}, progress, scratch);
}

} // namespace

TEST(StateFingerprint, PermutedIssueOrderHashesEqual)
{
    const std::uint64_t a =
        fingerprintAfterStores(false, kBase, kBase + 64 + 8, 0xa1, 0xb1);
    const std::uint64_t b =
        fingerprintAfterStores(true, kBase, kBase + 64 + 8, 0xa1, 0xb1);
    EXPECT_EQ(a, b);
}

TEST(StateFingerprint, DifferentExtentsHashDistinct)
{
    const std::uint64_t a =
        fingerprintAfterStores(false, kBase, kBase + 64 + 8, 0xa1, 0xb1);
    // Same regions, different word within core 1's region.
    const std::uint64_t b =
        fingerprintAfterStores(false, kBase, kBase + 64 + 16, 0xa1, 0xb1);
    // Same words, different store value (golden memory differs).
    const std::uint64_t c =
        fingerprintAfterStores(false, kBase, kBase + 64 + 8, 0xa1, 0xb2);
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
}

TEST(StateFingerprint, PcSpatialCoversWhatTheRunLearnsFrom)
{
    // Everything that steers PcSpatial's future fetches: its trained
    // entries, and the fetchPc and missWord a resident block trains
    // it on when it dies.
    const PredictorKind pred = PredictorKind::PcSpatial;
    const std::uint64_t base = fingerprintAfterLoads(pred, 0x1000, {0, 1});
    EXPECT_EQ(base, fingerprintAfterLoads(pred, 0x1000, {0, 1}));
    EXPECT_NE(base, fingerprintAfterLoads(pred, 0x1000, {0, 1}, 0x5000))
        << "one trained predictor entry";
    EXPECT_NE(base, fingerprintAfterLoads(pred, 0x2000, {0, 1}))
        << "fetchPc";
    EXPECT_NE(base, fingerprintAfterLoads(pred, 0x1000, {1, 0}))
        << "missWord";
}

TEST(StateFingerprint, StatelessPredictorIgnoresTrainingInputs)
{
    // FullRegion never learns, so fetchPc and missWord alone must not
    // split states.
    const PredictorKind pred = PredictorKind::FullRegion;
    const std::uint64_t base = fingerprintAfterLoads(pred, 0x1000, {0, 1});
    EXPECT_EQ(base, fingerprintAfterLoads(pred, 0x2000, {0, 1}))
        << "fetchPc";
    EXPECT_EQ(base, fingerprintAfterLoads(pred, 0x1000, {1, 0}))
        << "missWord";
}

TEST(Explorer, UpgradeRaceCleanUnderAllProtocols)
{
    const Scenario *s = findScenario("upgrade-race");
    ASSERT_NE(s, nullptr);
    for (ProtocolKind proto :
         {ProtocolKind::MESI, ProtocolKind::ProtozoaSW,
          ProtocolKind::ProtozoaSWMR, ProtocolKind::ProtozoaMW}) {
        const ExploreResult r = explore(*s, proto);
        EXPECT_FALSE(r.violation.has_value())
            << protocolName(proto) << ": [" << r.violation->kind
            << "] " << r.violation->detail;
        EXPECT_FALSE(r.budgetExhausted) << protocolName(proto);
        EXPECT_GT(r.schedulesCompleted, 0u) << protocolName(proto);
    }
}

/**
 * The Spread slice hash under the explorer: every fast-tier scenario
 * explores clean and within budget under all four protocols, and its
 * repro rebuilds the hash. Scenarios built on a Modulo home-tile
 * collision (recall-inclusive's region 2 on tile 0) lose it under
 * Spread; this covers the hash, not those races.
 */
TEST(Explorer, FastTierCleanUnderSpreadSliceHash)
{
    for (const Scenario &lib : scenarioLibrary()) {
        if (lib.deep || lib.large)
            continue;
        Scenario s = lib;
        s.cfg.sliceHash = SliceHashKind::Spread;
        for (ProtocolKind proto :
             {ProtocolKind::MESI, ProtocolKind::ProtozoaSW,
              ProtocolKind::ProtozoaSWMR, ProtocolKind::ProtozoaMW}) {
            const ExploreResult r = explore(s, proto);
            EXPECT_FALSE(r.violation.has_value())
                << s.name << " " << protocolName(proto) << ": ["
                << r.violation->kind << "] " << r.violation->detail;
            EXPECT_FALSE(r.budgetExhausted)
                << s.name << " " << protocolName(proto);
            EXPECT_GT(r.schedulesCompleted, 0u)
                << s.name << " " << protocolName(proto);
        }
        EXPECT_NE(buildRepro(s, ProtocolKind::ProtozoaMW, Violation{})
                      .find("cfg.sliceHash = SliceHashKind::Spread;\n"),
                  std::string::npos)
            << s.name;
    }
}

TEST(Explorer, MemoizationCollapsesPingpong)
{
    const Scenario *s = findScenario("false-share-pingpong");
    ASSERT_NE(s, nullptr);
    const ExploreResult r = explore(*s, ProtocolKind::ProtozoaMW);
    EXPECT_FALSE(r.violation.has_value());
    EXPECT_FALSE(r.budgetExhausted);
    // Different interleavings converge to identical quiescent states;
    // without memo hits the run would re-expand whole subtrees.
    EXPECT_GT(r.memoHits, 0u);
}

/**
 * POR soundness: sleep sets only ever skip redundant re-orderings of
 * commuting deliveries, never a reachable quiescent state. For every
 * fast-tier scenario and protocol, the reduced search must reach
 * exactly the full enumeration's fingerprint set with the same
 * verdict.
 */
TEST(Explorer, PorPreservesFingerprintsAndVerdicts)
{
    ExploreLimits on;
    on.collectFingerprints = true;
    ExploreLimits off = on;
    off.por = false;
    for (const Scenario &s : scenarioLibrary()) {
        if (s.deep && s.name != "mw-word-churn")
            continue; // deep full enumerations blow the unit-test budget
        for (ProtocolKind proto :
             {ProtocolKind::MESI, ProtocolKind::ProtozoaSW,
              ProtocolKind::ProtozoaSWMR, ProtocolKind::ProtozoaMW}) {
            const ExploreResult a = explore(s, proto, on);
            const ExploreResult b = explore(s, proto, off);
            ASSERT_FALSE(a.budgetExhausted)
                << s.name << " " << protocolName(proto);
            ASSERT_FALSE(b.budgetExhausted)
                << s.name << " " << protocolName(proto);
            EXPECT_EQ(a.violation.has_value(), b.violation.has_value())
                << s.name << " " << protocolName(proto);
            EXPECT_EQ(a.fingerprints, b.fingerprints)
                << s.name << " " << protocolName(proto)
                << ": POR reached " << a.fingerprints.size()
                << " distinct states, full enumeration "
                << b.fingerprints.size();
        }
    }
}

/**
 * The soundness matrix past 8 mesh nodes: the sleep-set channel
 * bitmap is a multi-word ChanMask (nodes^2 bits), so POR stays active
 * on the 8x8 large-tier scenarios, where a single-uint64 bitmap used
 * to force full enumeration. Same contract as the fast-tier matrix —
 * identical fingerprint sets and verdicts with POR on and off — plus
 * proof the reduction is actually engaged at 64 nodes (commutations
 * detected and subtrees pruned somewhere in the matrix).
 */
TEST(Explorer, PorSoundPastEightNodes)
{
    ExploreLimits on;
    on.collectFingerprints = true;
    ExploreLimits off = on;
    off.por = false;
    std::uint64_t commutations = 0;
    std::uint64_t pruned = 0;
    for (const char *name : {"upgrade-race-8x8", "recall-storm-8x8"}) {
        const Scenario *s = findScenario(name);
        ASSERT_NE(s, nullptr) << name;
        ASSERT_GT(s->cfg.numCores, 8u) << name;
        for (ProtocolKind proto :
             {ProtocolKind::MESI, ProtocolKind::ProtozoaMW}) {
            const ExploreResult a = explore(*s, proto, on);
            const ExploreResult b = explore(*s, proto, off);
            ASSERT_FALSE(a.budgetExhausted)
                << name << " " << protocolName(proto);
            ASSERT_FALSE(b.budgetExhausted)
                << name << " " << protocolName(proto);
            EXPECT_EQ(a.violation.has_value(), b.violation.has_value())
                << name << " " << protocolName(proto);
            EXPECT_EQ(a.fingerprints, b.fingerprints)
                << name << " " << protocolName(proto)
                << ": POR reached " << a.fingerprints.size()
                << " distinct states, full enumeration "
                << b.fingerprints.size();
            commutations += a.porCommutations;
            pruned += a.porPruned;
            EXPECT_EQ(b.porCommutations, 0u)
                << name << " " << protocolName(proto);
        }
    }
    EXPECT_GT(commutations, 0u);
    EXPECT_GT(pruned, 0u);
}

/**
 * POR effectiveness, locked with memoization off on both sides so
 * schedulesCompleted counts exactly what each search enumerated: the
 * reduced search explores at least 3x fewer complete schedules than
 * full enumeration on these pre-existing library scenarios, while
 * reaching the identical fingerprint set.
 */
TEST(Explorer, PorReducesSchedulesAtLeast3x)
{
    const struct
    {
        const char *scenario;
        ProtocolKind proto;
    } cases[] = {
        {"evict-vs-partial-probe", ProtocolKind::ProtozoaSW},
        {"recall-inclusive", ProtocolKind::ProtozoaSWMR},
        {"recall-inclusive", ProtocolKind::ProtozoaMW},
    };
    ExploreLimits on;
    on.memo = false;
    on.collectFingerprints = true;
    ExploreLimits off = on;
    off.por = false;
    for (const auto &c : cases) {
        const Scenario *s = findScenario(c.scenario);
        ASSERT_NE(s, nullptr) << c.scenario;
        const ExploreResult por = explore(*s, c.proto, on);
        const ExploreResult full = explore(*s, c.proto, off);
        ASSERT_FALSE(por.violation.has_value()) << c.scenario;
        ASSERT_FALSE(full.violation.has_value()) << c.scenario;
        EXPECT_GE(full.schedulesCompleted, 3 * por.schedulesCompleted)
            << c.scenario << " " << protocolName(c.proto) << ": full="
            << full.schedulesCompleted
            << " por=" << por.schedulesCompleted;
        EXPECT_EQ(por.fingerprints, full.fingerprints)
            << c.scenario << " " << protocolName(c.proto);
        // Counter sanity: the reduction above must come from sleep-set
        // pruning of detected commutations, not from budget effects.
        EXPECT_GT(por.porCommutations, 0u) << c.scenario;
        EXPECT_GT(por.porPruned, 0u) << c.scenario;
        EXPECT_EQ(full.porCommutations, 0u) << c.scenario;
        EXPECT_EQ(full.porPruned, 0u) << c.scenario;
    }
}

/**
 * POR alone on the 12-access PcSpatial stride scenario, with
 * memoization off on both sides: full enumeration must walk every
 * interleaving of the three access streams and exhausts the CI state
 * budget, while the reduced search completes well inside it.
 */
TEST(Explorer, PorCompletesWhereFullEnumerationCannot)
{
    const Scenario *s = findScenario("pcspatial-stride-3core");
    ASSERT_NE(s, nullptr);
    ASSERT_GE(s->accesses.size(), 10u);
    ExploreLimits porOnly;
    porOnly.memo = false;
    const ExploreResult por =
        explore(*s, ProtocolKind::ProtozoaMW, porOnly);
    EXPECT_FALSE(por.violation.has_value());
    EXPECT_FALSE(por.budgetExhausted);
    EXPECT_EQ(por.memoHits, 0u);
    ExploreLimits noPor = porOnly;
    noPor.por = false;
    const ExploreResult full =
        explore(*s, ProtocolKind::ProtozoaMW, noPor);
    EXPECT_TRUE(full.budgetExhausted);
}

/**
 * Regression lock for the cross-region waiter livelock in
 * DirController::busy(): with 3+ cores storming a one-entry L2 set,
 * two waiters deferred behind different regions of the same set used
 * to re-defer behind each other forever during drainQueue. The
 * bounded-quiesce oracle reports such a spin as a "livelock"
 * violation; the storm scenarios must complete clean.
 */
TEST(Explorer, RecallStormCompletesWithoutLivelock)
{
    const Scenario *s = findScenario("recall-storm-3core");
    ASSERT_NE(s, nullptr);
    for (ProtocolKind proto :
         {ProtocolKind::MESI, ProtocolKind::ProtozoaSW,
          ProtocolKind::ProtozoaSWMR, ProtocolKind::ProtozoaMW}) {
        const ExploreResult r = explore(*s, proto);
        EXPECT_FALSE(r.violation.has_value())
            << protocolName(proto) << ": [" << r.violation->kind
            << "] " << r.violation->detail;
        EXPECT_FALSE(r.budgetExhausted) << protocolName(proto);
    }
}

/**
 * Snapshot-backtracking soundness and effectiveness: restoring the
 * branch-point snapshot must visit exactly the states replay-from-root
 * visits (same verdicts, same fingerprint sets — the simulator is
 * deterministic given a schedule), while executing strictly fewer
 * deliveries (a restore replays none of the choice prefix).
 */
TEST(Explorer, SnapshotBacktrackMatchesReplayWithFewerDeliveries)
{
    ExploreLimits snap;
    snap.collectFingerprints = true;
    ExploreLimits replay = snap;
    replay.snapshotBacktrack = false;
    for (const char *name :
         {"upgrade-race", "false-share-pingpong", "recall-inclusive"}) {
        const Scenario *s = findScenario(name);
        ASSERT_NE(s, nullptr) << name;
        for (ProtocolKind proto :
             {ProtocolKind::MESI, ProtocolKind::ProtozoaMW}) {
            const ExploreResult a = explore(*s, proto, snap);
            const ExploreResult b = explore(*s, proto, replay);
            ASSERT_FALSE(a.budgetExhausted)
                << name << " " << protocolName(proto);
            ASSERT_FALSE(b.budgetExhausted)
                << name << " " << protocolName(proto);
            EXPECT_EQ(a.violation.has_value(), b.violation.has_value())
                << name << " " << protocolName(proto);
            EXPECT_EQ(a.statesVisited, b.statesVisited)
                << name << " " << protocolName(proto);
            EXPECT_EQ(a.fingerprints, b.fingerprints)
                << name << " " << protocolName(proto);
            EXPECT_LT(a.deliveriesExecuted, b.deliveriesExecuted)
                << name << " " << protocolName(proto)
                << ": snapshot=" << a.deliveriesExecuted
                << " replay=" << b.deliveriesExecuted;
        }
    }
}

namespace {

/** Same schedule and, step by step, the same src, dst and description. */
void
expectSamePath(const Violation &x, const Violation &y, const char *what)
{
    EXPECT_EQ(x.kind, y.kind) << what;
    EXPECT_EQ(x.schedule, y.schedule) << what;
    ASSERT_EQ(x.steps.size(), x.schedule.size()) << what;
    ASSERT_EQ(x.steps.size(), y.steps.size()) << what;
    for (std::size_t i = 0; i < x.steps.size(); ++i) {
        EXPECT_EQ(x.steps[i].src, y.steps[i].src) << what << " step " << i;
        EXPECT_EQ(x.steps[i].dst, y.steps[i].dst) << what << " step " << i;
        EXPECT_EQ(x.steps[i].desc, y.steps[i].desc)
            << what << " step " << i;
    }
}

} // namespace

/**
 * The found-violation path must survive snapshot-backtracking too:
 * the re-injected lost-store bug is rediscovered with an identical
 * schedule and identical step descriptions either way, and replaying
 * that schedule describes every step the same way again. Each path
 * keeps the channel heads it delivered and describes them only for a
 * returned violation, so this locks what the three paths kept.
 */
TEST(Explorer, SnapshotBacktrackFindsSameViolation)
{
    const Scenario *s = findScenario("evict-vs-partial-probe");
    ASSERT_NE(s, nullptr);
    Scenario buggy = *s;
    buggy.cfg.debugLostStoreBug = true;
    ExploreLimits snap;
    ExploreLimits replay;
    replay.snapshotBacktrack = false;
    const ExploreResult a =
        explore(buggy, ProtocolKind::ProtozoaMW, snap);
    const ExploreResult b =
        explore(buggy, ProtocolKind::ProtozoaMW, replay);
    ASSERT_TRUE(a.violation.has_value());
    ASSERT_TRUE(b.violation.has_value());
    ASSERT_FALSE(a.violation->steps.empty());
    expectSamePath(*a.violation, *b.violation, "snapshot vs replay");

    const std::optional<Violation> r = replaySchedule(
        buggy, ProtocolKind::ProtozoaMW, a.violation->schedule);
    ASSERT_TRUE(r.has_value());
    expectSamePath(*a.violation, *r, "explore vs replaySchedule");
}

TEST(ScenarioLibrary, SizeTiersAndStressTags)
{
    const std::vector<Scenario> &lib = scenarioLibrary();
    EXPECT_GE(lib.size(), 14u);
    unsigned deep = 0;
    for (const Scenario &s : lib) {
        EXPECT_FALSE(s.stresses.empty()) << s.name;
        EXPECT_FALSE(s.note.empty()) << s.name;
        deep += s.deep ? 1 : 0;
    }
    EXPECT_GE(deep, 2u);
    EXPECT_GE(lib.size() - deep, 6u); // fast PR-gating tier
}

TEST(Explorer, ReplayEmptyScheduleIsCanonicalAndClean)
{
    const Scenario *s = findScenario("upgrade-race");
    ASSERT_NE(s, nullptr);
    EXPECT_FALSE(
        replaySchedule(*s, ProtocolKind::ProtozoaMW, {}).has_value());
}

// A minimized repro must rebuild the machine that was explored: the
// large-mesh scenarios run on real 2-D grids, not on N x 1.
TEST(Minimizer, ReproCarriesTheExploredMeshGeometry)
{
    const struct
    {
        const char *name;
        const char *geometry;
    } cases[] = {
        {"upgrade-race-8x8", "cfg.numCores = 64;\ncfg.l2Tiles = 64;\n"
                             "cfg.meshCols = 8;\ncfg.meshRows = 8;\n"},
        {"wide-mask-16x16", "cfg.numCores = 256;\ncfg.l2Tiles = 256;\n"
                            "cfg.meshCols = 16;\ncfg.meshRows = 16;\n"},
    };
    for (const auto &c : cases) {
        const Scenario *s = findScenario(c.name);
        ASSERT_NE(s, nullptr) << c.name;
        const std::string repro =
            buildRepro(*s, ProtocolKind::ProtozoaMW, Violation{});
        EXPECT_NE(repro.find(c.geometry), std::string::npos)
            << c.name << ":\n" << repro;
    }
}

// Every other knob the scenario's machine moves reaches the repro as
// well: its drain() runs the timed order, which the latencies shape.
// A knob left at its default adds no line, so library repros keep
// their text, and the schedule oracle stays off.
TEST(Minimizer, ReproNamesEveryMovedKnob)
{
    const Scenario *lib = findScenario("upgrade-race");
    ASSERT_NE(lib, nullptr);
    const std::string plain =
        buildRepro(*lib, ProtocolKind::ProtozoaMW, Violation{});
    EXPECT_EQ(plain.find("Latency"), std::string::npos) << plain;

    Scenario s = *lib;
    s.cfg.fixedFetchWords = 4;
    s.cfg.bloomBuckets = 64;
    s.cfg.bloomHashes = 3;
    s.cfg.l1Latency = 3;
    s.cfg.l1GatherPerBlock = 2;
    s.cfg.l2Latency = 40;
    s.cfg.flitBytes = 32;
    s.cfg.hopLatency = 9;
    s.cfg.flitSerialization = 1;
    s.cfg.memLatency = 150;
    s.cfg.controlBytes = 16;
    s.cfg.faultJitterMax = 0;
    s.cfg.faultReorderProb = 0.1;
    s.cfg.occupancyJitterMax = 0;
    const std::string repro =
        buildRepro(s, ProtocolKind::ProtozoaMW, Violation{});
    for (const char *line :
         {"cfg.fixedFetchWords = 4;\n", "cfg.bloomBuckets = 64;\n",
          "cfg.bloomHashes = 3;\n", "cfg.l1Latency = 3;\n",
          "cfg.l1GatherPerBlock = 2;\n", "cfg.l2Latency = 40;\n",
          "cfg.flitBytes = 32;\n", "cfg.hopLatency = 9;\n",
          "cfg.flitSerialization = 1;\n", "cfg.memLatency = 150;\n",
          "cfg.controlBytes = 16;\n", "cfg.faultJitterMax = 0;\n",
          "cfg.faultReorderProb = 0.1;\n",
          "cfg.occupancyJitterMax = 0;\n"})
        EXPECT_NE(repro.find(line), std::string::npos) << line << repro;
    EXPECT_EQ(repro.find("scheduleOracle"), std::string::npos) << repro;
}

TEST(ScenarioLibrary, LookupAndFootprint)
{
    ASSERT_FALSE(scenarioLibrary().empty());
    EXPECT_EQ(findScenario("no-such-scenario"), nullptr);
    const Scenario *s = findScenario("evict-vs-partial-probe");
    ASSERT_NE(s, nullptr);
    EXPECT_LE(s->accesses.size(), 8u);
    EXPECT_LE(s->regionFootprint().size(), 2u);
    const SystemConfig cfg = s->toConfig(ProtocolKind::ProtozoaMW);
    EXPECT_TRUE(cfg.scheduleOracle);
    EXPECT_FALSE(cfg.faultInjection);
    EXPECT_FALSE(cfg.occupancyJitter);
}

TEST(KnobProfile, OfConfig)
{
    SystemConfig cfg;
    EXPECT_EQ(knobProfileOf(cfg), KnobProfile::Base);
    cfg.threeHop = true;
    EXPECT_EQ(knobProfileOf(cfg), KnobProfile::ThreeHop);
    cfg.directory = DirectoryKind::TaglessBloom;
    EXPECT_EQ(knobProfileOf(cfg), KnobProfile::ThreeHopBloom);
    cfg.threeHop = false;
    EXPECT_EQ(knobProfileOf(cfg), KnobProfile::BloomDir);
}

TEST(KnobProfile, PerProfilePlanesAndMerge)
{
    ConformanceCoverage base(ProtocolKind::ProtozoaMW);
    ConformanceCoverage hop(ProtocolKind::ProtozoaMW,
                            KnobProfile::ThreeHop);

    base.recordL1(L1State::I, L1Event::Load, L1State::IS);
    hop.recordL1(L1State::I, L1Event::Load, L1State::IS);
    hop.recordL1(L1State::I, L1Event::Load, L1State::IS);

    EXPECT_EQ(base.l1CountAt(KnobProfile::Base, L1State::I,
                             L1Event::Load, L1State::IS),
              1u);
    EXPECT_EQ(hop.l1CountAt(KnobProfile::ThreeHop, L1State::I,
                            L1Event::Load, L1State::IS),
              2u);
    EXPECT_EQ(hop.l1CountAt(KnobProfile::Base, L1State::I,
                            L1Event::Load, L1State::IS),
              0u);
    // The aggregate accessor sums the profile planes.
    EXPECT_EQ(hop.l1Count(L1State::I, L1Event::Load, L1State::IS), 2u);
    EXPECT_TRUE(hop.profileSeen(KnobProfile::ThreeHop));
    EXPECT_FALSE(hop.profileSeen(KnobProfile::Base));

    base.merge(hop);
    EXPECT_EQ(base.l1Count(L1State::I, L1Event::Load, L1State::IS), 3u);
    EXPECT_TRUE(base.profileSeen(KnobProfile::Base));
    EXPECT_TRUE(base.profileSeen(KnobProfile::ThreeHop));
    EXPECT_EQ(base.hitRowsAt(KnobProfile::Base), 1u);
    EXPECT_EQ(base.hitRowsAt(KnobProfile::ThreeHop), 1u);
    EXPECT_EQ(base.hitRowsAt(KnobProfile::BloomDir), 0u);
}

TEST(ScheduleOracle, DisabledMeshParksNothing)
{
    SystemConfig cfg;
    cfg.setMesh(2, 1);
    ProtocolDriver d(cfg);
    EXPECT_FALSE(d.sys.mesh().scheduleOracleEnabled());
    d.store(0, kBase, 0x1);
    EXPECT_EQ(d.sys.mesh().parkedMessages(), 0u);
    EXPECT_EQ(d.load(1, kBase), 0x1u);
    d.expectClean();
}
