/**
 * @file
 * Wide-mesh regression tests: the 64-core 8x8 explorer path (the
 * `(1 << numCores) - 1` shift overflow lived here), a 256-core
 * end-to-end smoke with full-width sharer masks, the mesh-scaled
 * watchdog horizon on an 8x8 recall storm, and the Spread slice hash
 * driven through a real system.
 */

#include <gtest/gtest.h>

#include <set>

#include "check/explorer.hh"
#include "check/scenario.hh"
#include "protocol_driver.hh"

namespace protozoa {
namespace {

using check::ExploreLimits;
using check::ExploreResult;
using check::Scenario;
using check::findScenario;

TEST(LargeMeshExplorer, UpgradeRace8x8CompletesCleanly)
{
    const Scenario *s = findScenario("upgrade-race-8x8");
    ASSERT_NE(s, nullptr);
    EXPECT_TRUE(s->large);

    ExploreLimits lim;
    for (ProtocolKind proto :
         {ProtocolKind::MESI, ProtocolKind::ProtozoaMW}) {
        const ExploreResult r = check::explore(*s, proto, lim);
        EXPECT_FALSE(r.violation.has_value());
        EXPECT_FALSE(r.budgetExhausted);
        EXPECT_GT(r.statesVisited, 0u);
        EXPECT_GT(r.schedulesCompleted, 0u);
        // The multi-word ChanMask keeps sleep-set POR live at 64 mesh
        // nodes (4096 channel bits); this used to auto-disable.
        // Soundness against full enumeration is locked by
        // Explorer.PorSoundPastEightNodes in protocheck_test.
    }
}

TEST(LargeMeshExplorer, WideMask16x16RunsAtKMaxCores)
{
    const Scenario *s = findScenario("wide-mask-16x16");
    ASSERT_NE(s, nullptr);
    ASSERT_EQ(s->cfg.numCores, kMaxCores);

    ExploreLimits lim;
    const ExploreResult r =
        check::explore(*s, ProtocolKind::ProtozoaMW, lim);
    EXPECT_FALSE(r.violation.has_value());
    EXPECT_FALSE(r.budgetExhausted);
    EXPECT_GT(r.schedulesCompleted, 0u);
}

SystemConfig
wideConfig(unsigned cols, unsigned rows)
{
    SystemConfig cfg;
    cfg.setMesh(cols, rows);
    // Hold the aggregate L2 at 32 MB, as fig_scaling does.
    cfg.l2BytesPerTile = (2ull * 1024 * 1024 * 16) / cfg.numCores;
    return cfg;
}

TEST(LargeMeshSmoke, AllCoresShareOneRegionAt256Cores)
{
    SystemConfig cfg = wideConfig(16, 16);
    cfg.validate();
    ProtocolDriver d(cfg);

    const Addr addr = 0x40000000;
    const std::uint64_t initial = d.sys.goldenMemory().expected(addr);
    for (CoreId c = 0; c < 256; ++c)
        EXPECT_EQ(d.load(c, addr), initial);
    EXPECT_EQ(d.sys.checkCoherenceInvariant(), std::nullopt);

    // Core 255 (bit 63 of sharer-mask word 3) invalidates all 255
    // other readers in one fan-out.
    d.store(255, addr, 0xabcd);
    EXPECT_EQ(d.load(0, addr), 0xabcdu);
    EXPECT_EQ(d.load(254, addr), 0xabcdu);
    EXPECT_EQ(d.sys.checkCoherenceInvariant(), std::nullopt);

    const RunStats stats = d.sys.report();
    EXPECT_EQ(stats.l1.loads, 258u);
    EXPECT_EQ(stats.l1.stores, 1u);
    EXPECT_GE(stats.l1.invMsgsReceived, 255u);
}

/**
 * 8x8 recall storm: all 64 cores read region 0, then core 0 walks
 * same-set regions through tile 0's one-entry L2, so every fill
 * recalls a region whose sharer set spans the full mesh.
 */
void
driveRecallStorm(ProtocolDriver &d)
{
    const Addr base = 0x40000000;
    for (CoreId c = 0; c < 64; ++c)
        d.load(c, base);
    // Region indices 64, 128, 192 all home on tile 0 (idx % 64 == 0)
    // and collide with region 0 in its only set.
    for (unsigned r = 1; r <= 3; ++r)
        d.store(0, base + Addr(r) * 64 * 64, 0xd000 + r);
}

TEST(LargeMeshWatchdog, ScaledHorizonSurvivesHealthyRecallStorm)
{
    SystemConfig cfg = wideConfig(8, 8);
    cfg.l2BytesPerTile = 64; // one-entry tiles: every fill recalls
    cfg.l2Assoc = 1;
    // Auto-enabled via the System ctor: the configured bound is
    // calibrated for 4x4 and scales to this 8x8 before arming.
    cfg.watchdogCycles = 2000;
    cfg.validate();

    ProtocolDriver d(cfg);
    driveRecallStorm(d);
    EXPECT_EQ(d.sys.watchdogFirings(), 0u);
    EXPECT_EQ(d.sys.checkCoherenceInvariant(), std::nullopt);
    EXPECT_GT(d.sys.report().dir.recalls, 0u);
}

TEST(LargeMeshWatchdog, FlatReferenceBoundFalsePositivesAt8x8)
{
    SystemConfig cfg = wideConfig(8, 8);
    cfg.l2BytesPerTile = 64;
    cfg.l2Assoc = 1;
    cfg.watchdogCycles = 0;
    cfg.validate();

    ProtocolDriver d(cfg);
    // The 4x4 reference machine's worst-case transaction cost: a sane
    // flat bound there, but a 64-sharer recall fan-out takes longer,
    // so it must flag this (perfectly healthy) run.
    unsigned reports = 0;
    d.sys.enableWatchdog(572, [&](const std::string &) { ++reports; });
    driveRecallStorm(d);
    EXPECT_GT(d.sys.watchdogFirings(), 0u);
    EXPECT_GT(reports, 0u);
    // Healthy despite the alarms: every access completed and the
    // coherence invariant holds.
    EXPECT_EQ(d.sys.checkCoherenceInvariant(), std::nullopt);
}

TEST(LargeMeshSliceHash, SpreadRoutesAndReturnsCorrectValues)
{
    SystemConfig cfg; // 16-core 4x4 paper machine
    cfg.sliceHash = SliceHashKind::Spread;
    cfg.validate();
    ProtocolDriver d(cfg);

    // The modulo-adversarial stride: every region lands on tile 0
    // under Modulo; Spread fans them across tiles. Values must be
    // exact either way.
    const Addr base = 0x40000000;
    std::set<unsigned> homes;
    for (unsigned i = 0; i < 8; ++i) {
        const Addr addr = base + Addr(i) * cfg.l2Tiles * cfg.regionBytes;
        homes.insert(cfg.homeTileOf(addr));
        d.store(static_cast<CoreId>(i % cfg.numCores), addr,
                0x5100 + i);
    }
    for (unsigned i = 0; i < 8; ++i) {
        const Addr addr = base + Addr(i) * cfg.l2Tiles * cfg.regionBytes;
        EXPECT_EQ(d.load(static_cast<CoreId>((i + 1) % cfg.numCores),
                         addr),
                  0x5100u + i);
        // ProtocolDriver reads the tile that really homes the region.
        EXPECT_TRUE(d.dirView(addr).present) << "region " << i;
    }
    EXPECT_GT(homes.size(), 1u);
    EXPECT_EQ(d.sys.checkCoherenceInvariant(), std::nullopt);
}

} // namespace
} // namespace protozoa
