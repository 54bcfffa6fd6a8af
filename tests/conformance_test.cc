/**
 * @file
 * Tests for the conformance harness: transition-coverage tracking
 * (documented-inventory checks, merge, report), the deadlock watchdog
 * (firing with a diagnostic dump on a deliberately wedged transaction),
 * network fault injection determinism at the System level, the
 * 128-byte-region regression, and a small stress-campaign smoke run.
 */

#include <gtest/gtest.h>

#include "protocol_driver.hh"
#include "sim/stress_campaign.hh"

namespace protozoa {
namespace {

TEST(ConformanceCoverage, RecordsDocumentedTransitions)
{
    ConformanceCoverage cov(ProtocolKind::MESI);
    EXPECT_EQ(cov.l1Count(L1State::I, L1Event::Load, L1State::IS), 0u);
    cov.recordL1(L1State::I, L1Event::Load, L1State::IS);
    cov.recordL1(L1State::I, L1Event::Load, L1State::IS);
    EXPECT_EQ(cov.l1Count(L1State::I, L1Event::Load, L1State::IS), 2u);

    cov.recordDir(DirState::NP, DirEvent::GetS, DirState::W);
    EXPECT_EQ(cov.dirCount(DirState::NP, DirEvent::GetS, DirState::W),
              1u);

    EXPECT_GT(cov.documentedRows(), 0u);
    EXPECT_EQ(cov.hitRows(), 2u);
    EXPECT_FALSE(cov.complete());   // plenty of note-less rows unhit
}

TEST(ConformanceCoverageDeath, UndocumentedL1TransitionPanics)
{
    ConformanceCoverage cov(ProtocolKind::MESI);
    // A dirty block cannot silently lose its data: M never goes to I
    // on a Data fill.
    EXPECT_DEATH(cov.recordL1(L1State::M, L1Event::Data, L1State::I),
                 "undocumented L1 transition");
}

TEST(ConformanceCoverageDeath, ProtocolMaskIsEnforced)
{
    // Multiple concurrent writers exist only under Protozoa-MW; the
    // same directory tuple is legal there but undocumented under MESI.
    ConformanceCoverage mw(ProtocolKind::ProtozoaMW);
    mw.recordDir(DirState::MW, DirEvent::GetX, DirState::MW);
    EXPECT_EQ(mw.dirCount(DirState::MW, DirEvent::GetX, DirState::MW),
              1u);

    ConformanceCoverage mesi(ProtocolKind::MESI);
    EXPECT_DEATH(
        mesi.recordDir(DirState::MW, DirEvent::GetX, DirState::MW),
        "undocumented directory transition");
}

TEST(ConformanceCoverage, MergeAccumulates)
{
    ConformanceCoverage a(ProtocolKind::ProtozoaMW);
    ConformanceCoverage b(ProtocolKind::ProtozoaMW);
    a.recordL1(L1State::I, L1Event::Load, L1State::IS);
    b.recordL1(L1State::I, L1Event::Load, L1State::IS);
    b.recordL1(L1State::S, L1Event::Store, L1State::SM);
    a.merge(b);
    EXPECT_EQ(a.l1Count(L1State::I, L1Event::Load, L1State::IS), 2u);
    EXPECT_EQ(a.l1Count(L1State::S, L1Event::Store, L1State::SM), 1u);
    EXPECT_EQ(a.hitRows(), 2u);
}

TEST(ConformanceCoverage, ReportListsMissedRows)
{
    ConformanceCoverage cov(ProtocolKind::ProtozoaSWMR);
    cov.recordL1(L1State::I, L1Event::Load, L1State::IS);
    const std::string rep = cov.report();
    EXPECT_NE(rep.find("documented rows hit"), std::string::npos);
    EXPECT_NE(rep.find("MISSED"), std::string::npos);
    // Noted rows carry their explanation.
    EXPECT_NE(rep.find("explained:"), std::string::npos);
}

TEST(ConformanceCoverage, InventoryIsWellFormed)
{
    std::size_t n = 0;
    const L1TransitionDoc *l1 = ConformanceCoverage::l1Inventory(n);
    ASSERT_GT(n, 0u);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NE(l1[i].protocols & P_ALL, 0u) << i;
        EXPECT_NE(l1[i].note, nullptr) << i;
    }
    const DirTransitionDoc *dir = ConformanceCoverage::dirInventory(n);
    ASSERT_GT(n, 0u);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NE(dir[i].protocols & P_ALL, 0u) << i;
        EXPECT_NE(dir[i].note, nullptr) << i;
    }
}

TEST(ConformanceCoverage, SystemRunsRecordTransitions)
{
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaMW;
    ProtocolDriver d(cfg);
    const Addr a = 0x7000;
    d.load(0, a);
    d.store(1, a, 42);
    d.load(2, a);

    const ConformanceCoverage &cov = d.sys.conformance();
    EXPECT_GE(cov.l1Count(L1State::I, L1Event::Load, L1State::IS), 2u);
    EXPECT_GE(cov.l1Count(L1State::I, L1Event::Store, L1State::IM), 1u);
    EXPECT_GE(cov.dirCount(DirState::NP, DirEvent::GetS, DirState::W),
              1u);
    EXPECT_GE(cov.l1Count(L1State::M, L1Event::FwdGetS, L1State::S),
              1u);
}

// The acceptance scenario for the watchdog: drop the DATA response of
// a read miss so the transaction wedges, and check that the watchdog
// fires with a diagnostic dump instead of hanging.
TEST(DeadlockWatchdog, FiresOnWedgedTransaction)
{
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaMW;
    ProtocolDriver d(cfg);

    std::string diagnostic;
    d.sys.enableWatchdog(500, [&](const std::string &report) {
        diagnostic = report;
    });
    d.sys.setMessageFilter([](const CoherenceMsg &msg) {
        return msg.type != MsgType::DATA;   // wedge every fill
    });

    d.issue(0, 0x9000, false);
    d.drain();   // terminates because the one-shot handler disarms

    EXPECT_EQ(d.sys.watchdogFirings(), 1u);
    EXPECT_EQ(d.sys.droppedMessages(), 1u);
    EXPECT_NE(diagnostic.find("deadlock watchdog"), std::string::npos);
    EXPECT_NE(diagnostic.find("MSHR"), std::string::npos);
    EXPECT_NE(diagnostic.find("9000"), std::string::npos);
    // The dump includes the home directory's view of the region.
    EXPECT_NE(diagnostic.find("dir"), std::string::npos);
    EXPECT_NE(diagnostic.find("waiting UNBLOCK"), std::string::npos);
    // ... and the in-flight message census (empty here: the wedging
    // filter dropped the DATA before it entered the mesh).
    EXPECT_NE(diagnostic.find("in-flight messages: 0"),
              std::string::npos);
}

// The census must list a message that is genuinely on the wire when
// the watchdog fires: schedule a delivery far beyond the watchdog
// horizon, and stop the run before it would arrive.
TEST(DeadlockWatchdog, InFlightCensusListsQueuedMessages)
{
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaMW;
    ProtocolDriver d(cfg);

    std::string diagnostic;
    d.sys.enableWatchdog(500, [&](const std::string &report) {
        diagnostic = report;
    });
    d.sys.setMessageFilter([](const CoherenceMsg &msg) {
        return msg.type != MsgType::DATA;
    });

    CoherenceMsg far;
    far.type = MsgType::DATA;
    far.srcNode = 2;
    far.dstNode = 5;
    far.region = 0x9000;
    far.range = WordRange(0, 7);
    d.sys.eventQueue().scheduleAt(
        1'000'000, Event::of(EventKind::Deliver, 0, far));

    d.issue(0, 0x9000, false);
    d.sys.runTo(10'000);

    EXPECT_EQ(d.sys.watchdogFirings(), 1u);
    EXPECT_NE(diagnostic.find("in-flight messages: 1\n"),
              std::string::npos)
        << diagnostic;
    EXPECT_NE(diagnostic.find("2 -> 5 (l1): DATA region 0x9000 range " +
                              far.range.toString() +
                              ", arrives @1000000\n"),
              std::string::npos)
        << diagnostic;
}

// The census is read from the pending deliveries themselves, so it
// survives a checkpoint: a run restored from a snapshot dumps the same
// in-flight set as the run that was never interrupted.
TEST(DeadlockWatchdog, CensusListsDeliveriesRestoredFromASnapshot)
{
    SystemConfig cfg;
    cfg.faultInjection = true;
    cfg.faultJitterMax = 100000;   // requests stay on the wire for long
    cfg.faultReorderProb = 0;
    const auto oneLoadPerCore = [&] {
        Workload wl;
        for (CoreId c = 0; c < cfg.numCores; ++c) {
            TraceRecord r;
            // Consecutive regions, each homed away from its core.
            r.addr = 0x40000 + static_cast<Addr>(c + 5) * cfg.regionBytes;
            r.pc = 0x1000;
            wl.push_back(std::make_unique<VectorTrace>(
                std::vector<TraceRecord>{r}));
        }
        return wl;
    };
    const auto arm = [](System &sys, std::string &dump) {
        sys.enableWatchdog(
            500, [&dump](const std::string &report) { dump = report; });
    };

    std::string uninterrupted;
    System donor(cfg, oneLoadPerCore());
    arm(donor, uninterrupted);
    donor.runTo(20);
    Serializer img;
    std::string err;
    ASSERT_TRUE(donor.saveSnapshot(img, &err)) << err;
    donor.runTo(5000);

    std::string restored;
    System fresh(cfg, oneLoadPerCore());
    arm(fresh, restored);
    Deserializer d(img.bytes().data(), img.size());
    ASSERT_TRUE(fresh.restoreSnapshot(d, &err)) << err;
    fresh.runTo(5000);

    EXPECT_EQ(donor.watchdogFirings(), 1u);
    EXPECT_NE(uninterrupted.find("in-flight messages: 16\n"),
              std::string::npos)
        << uninterrupted;
    EXPECT_EQ(restored, uninterrupted);
}

TEST(DeadlockWatchdog, StaysQuietOnHealthyRuns)
{
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaSWMR;
    cfg.watchdogCycles = 2000;   // auto-enabled via config
    ProtocolDriver d(cfg);
    for (unsigned i = 0; i < 8; ++i) {
        d.store(i % 4, 0xa000 + i * 8, i);
        EXPECT_EQ(d.load((i + 1) % 4, 0xa000 + i * 8), i);
    }
    EXPECT_EQ(d.sys.watchdogFirings(), 0u);
    d.expectClean();
}

// Satellite regression: 128-byte regions exercise word index 15, which
// the old literal-32/31u mask code silently mishandled on alternative
// WordMask widths.
TEST(RegionBytes128, FullRegionProtocolRoundTrip)
{
    for (auto protocol :
         {ProtocolKind::MESI, ProtocolKind::ProtozoaMW}) {
        SystemConfig cfg;
        cfg.protocol = protocol;
        cfg.regionBytes = 128;
        ProtocolDriver d(cfg);

        const Addr region = 0xb000;
        const Addr top_word = region + 15 * kWordBytes;
        d.store(0, top_word, 777);
        EXPECT_EQ(d.load(1, top_word), 777u) << protocolName(protocol);
        d.store(2, top_word, 888);
        EXPECT_EQ(d.load(3, top_word), 888u) << protocolName(protocol);
        d.expectClean();
    }
}

TEST(StressCampaign, SmokeRunPassesAndMergesCoverage)
{
    CampaignSpec spec;
    spec.protocols = {ProtocolKind::ProtozoaMW};
    spec.profiles = {{"mild", true, 4, 0.02}};
    spec.patterns = {RandomTester::Pattern::Uniform,
                     RandomTester::Pattern::UpgradeHeavy};
    spec.seeds = {1, 2};
    spec.tester.accessesPerCore = 300;
    spec.workers = 2;

    const CampaignResult res = runCampaign(spec);
    EXPECT_EQ(res.jobs, 4u);
    EXPECT_EQ(res.accesses, 4u * 300u * 16u);   // 16 cores per system
    EXPECT_EQ(res.valueViolations, 0u);
    EXPECT_EQ(res.invariantViolations, 0u);
    ASSERT_EQ(res.coverage.size(), 1u);
    EXPECT_GT(res.coverage[0].hitRows(), 0u);
    EXPECT_NE(res.report().find("stress campaign"), std::string::npos);
}

TEST(StressCampaign, SmallSystemGridRunsFourCoreJobs)
{
    CampaignSpec spec = CampaignSpec::smallSystem();
    EXPECT_EQ(spec.tester.cfg.numCores, 4u);
    EXPECT_EQ(spec.tester.cfg.meshCols * spec.tester.cfg.meshRows, 4u);
    EXPECT_EQ(spec.seeds.size(), 80u);   // ~10x the default seed count

    // Shrink the grid for a smoke run; the per-job system size is the
    // point under test.
    spec.protocols = {ProtocolKind::ProtozoaMW};
    spec.profiles = {{"wild", true, 16, 0.10}};
    spec.patterns = {RandomTester::Pattern::FalseShareBoundary};
    spec.seeds = {1, 2, 3};
    spec.tester.accessesPerCore = 300;
    spec.workers = 2;

    const CampaignResult res = runCampaign(spec);
    EXPECT_EQ(res.jobs, 3u);
    EXPECT_EQ(res.accesses, 3u * 300u * 4u);   // 4 cores per system
    EXPECT_EQ(res.valueViolations, 0u);
    EXPECT_EQ(res.invariantViolations, 0u);
}

TEST(FaultInjection, RandomTesterIsSeedDeterministic)
{
    RandomTester::Params p;
    p.cfg.protocol = ProtocolKind::ProtozoaMW;
    p.accessesPerCore = 300;
    p.cfg.faultInjection = true;
    p.cfg.faultJitterMax = 8;
    p.cfg.faultReorderProb = 0.1;
    p.cfg.seed = 3;

    const auto a = RandomTester::run(p);
    const auto b = RandomTester::run(p);
    EXPECT_EQ(a.valueViolations, 0u);
    EXPECT_EQ(a.invariantViolations, 0u);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.net.flitHops, b.stats.net.flitHops);
    EXPECT_EQ(a.coverage.hitRows(), b.coverage.hitRows());
}

} // namespace
} // namespace protozoa
