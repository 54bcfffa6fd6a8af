/**
 * @file
 * SystemConfig validation and geometry-scaling tests: the wide-mesh
 * rejection paths (core counts past kMaxCores, degenerate meshes,
 * undersized L2 tiles, zero L1 sets or L2 ways, L2 tiles with more
 * entries than a slot index addresses), the refusal of the removed
 * sharded engine's thread count, the watchdog horizon's mesh scaling,
 * and the region -> home-tile slice hashes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>

#include "common/config.hh"

namespace protozoa {
namespace {

SystemConfig
meshConfig(unsigned cores, unsigned cols, unsigned rows)
{
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.l2Tiles = cores;
    cfg.meshCols = cols;
    cfg.meshRows = rows;
    return cfg;
}

TEST(ConfigValidateScaling, RejectsCoreCountsPastKMaxCores)
{
    SystemConfig cfg = meshConfig(kMaxCores + 1, kMaxCores + 1, 1);
    EXPECT_DEATH(cfg.validate(), "out of range");

    SystemConfig zero = meshConfig(0, 0, 0);
    EXPECT_DEATH(zero.validate(), "out of range");
}

TEST(ConfigValidateScaling, RejectsDegenerateMeshes)
{
    SystemConfig cfg = meshConfig(16, 0, 4);
    EXPECT_DEATH(cfg.validate(), "at least one column");

    SystemConfig cfg2 = meshConfig(16, 4, 0);
    EXPECT_DEATH(cfg2.validate(), "at least one column");
}

TEST(ConfigValidateScaling, RejectsL2TileBelowOneSet)
{
    SystemConfig cfg;
    cfg.l2BytesPerTile = 256; // < 64-byte regions x 8 ways
    EXPECT_DEATH(cfg.validate(), "cannot hold");
}

TEST(ConfigValidateScaling, RejectsZeroL2Associativity)
{
    // Would divide by zero sizing the directory's sets.
    SystemConfig cfg;
    cfg.l2Assoc = 0;
    EXPECT_DEATH(cfg.validate(), "l2Assoc must be at least 1");
}

TEST(ConfigValidateScaling, RejectsZeroL1Sets)
{
    // Would divide by zero on the first L1 set lookup.
    SystemConfig cfg;
    cfg.l1Sets = 0;
    EXPECT_DEATH(cfg.validate(), "l1Sets must be at least 1");
}

TEST(ConfigValidateScaling, RejectsL2TilePastTheSlotIndex)
{
    // 2^32 64-byte entries per tile: one more than an L2 slot index
    // can address (its all-ones value means "no slot").
    SystemConfig cfg;
    cfg.l2BytesPerTile = (std::uint64_t(1) << 32) * cfg.regionBytes;
    EXPECT_DEATH(cfg.validate(), "slot index");

    // The largest tile the index covers is accepted.
    cfg.l2BytesPerTile =
        std::uint64_t(std::numeric_limits<L2SlotIndex>::max()) *
        cfg.regionBytes;
    cfg.validate();
}

TEST(ConfigValidateScaling, RejectsNonPowerOfTwoBloomBuckets)
{
    SystemConfig cfg;
    cfg.directory = DirectoryKind::TaglessBloom;
    cfg.bloomBuckets = 100;
    EXPECT_DEATH(cfg.validate(), "power of two");
}

TEST(ConfigValidate, RejectsSimThreadsOfTheRemovedEngine)
{
    SystemConfig cfg;
    cfg.simThreads = 4;
    EXPECT_DEATH(cfg.validate(), "sharded parallel engine was removed");

    cfg.simThreads = 0;
    cfg.validate();
}

TEST(ConfigValidateScaling, AcceptsWideMeshes)
{
    SystemConfig c64 = meshConfig(64, 8, 8);
    c64.validate();

    SystemConfig c256 = meshConfig(256, 16, 16);
    // Keep the aggregate L2 at 32 MB, as fig_scaling does.
    c256.l2BytesPerTile = (2ull * 1024 * 1024 * 16) / 256;
    c256.validate();

    SystemConfig c1 = meshConfig(1, 1, 1);
    c1.validate();
}

TEST(WatchdogHorizon, ReferenceGeometryKeepsTheConfiguredBound)
{
    SystemConfig cfg; // 4x4, 16 cores
    cfg.watchdogCycles = 2000;
    EXPECT_EQ(cfg.watchdogHorizon(), 2000u);

    SystemConfig small = meshConfig(4, 2, 2);
    small.watchdogCycles = 2000;
    EXPECT_EQ(small.watchdogHorizon(), 2000u);

    SystemConfig off;
    off.watchdogCycles = 0;
    EXPECT_EQ(off.watchdogHorizon(), 0u);
}

TEST(WatchdogHorizon, GrowsWithMeshDiameterAndCoreCount)
{
    SystemConfig c16; // reference
    SystemConfig c64 = meshConfig(64, 8, 8);
    SystemConfig c256 = meshConfig(256, 16, 16);
    c16.watchdogCycles = c64.watchdogCycles = c256.watchdogCycles = 2000;

    EXPECT_GT(c64.watchdogHorizon(), c16.watchdogHorizon());
    EXPECT_GT(c256.watchdogHorizon(), c64.watchdogHorizon());
}

TEST(WatchdogHorizon, NeverDropsBelowOneTransactionCost)
{
    // A 1-cycle configured bound cannot beat a single memory fetch.
    SystemConfig cfg = meshConfig(256, 16, 16);
    cfg.watchdogCycles = 1;
    EXPECT_GE(cfg.watchdogHorizon(), cfg.memLatency);
}

TEST(SliceHash, ModuloMatchesThePaperInterleave)
{
    SystemConfig cfg;
    for (unsigned idx = 0; idx < 64; ++idx) {
        const Addr region = Addr(idx) * cfg.regionBytes;
        EXPECT_EQ(cfg.homeTileOf(region), idx % cfg.l2Tiles);
    }
}

TEST(SliceHash, SpreadStaysInRangeAndDecorrelatesStrides)
{
    SystemConfig cfg = meshConfig(64, 8, 8);
    cfg.sliceHash = SliceHashKind::Spread;

    // The adversarial footprint: regions strided by l2Tiles. Modulo
    // piles every one onto tile 0; Spread must fan them out.
    std::set<unsigned> moduloTiles, spreadTiles;
    SystemConfig modulo = cfg;
    modulo.sliceHash = SliceHashKind::Modulo;
    for (unsigned i = 0; i < 1024; ++i) {
        const Addr region =
            Addr(i) * cfg.l2Tiles * cfg.regionBytes;
        const unsigned home = cfg.homeTileOf(region);
        ASSERT_LT(home, cfg.l2Tiles);
        spreadTiles.insert(home);
        moduloTiles.insert(modulo.homeTileOf(region));
    }
    EXPECT_EQ(moduloTiles.size(), 1u);
    EXPECT_GT(spreadTiles.size(), cfg.l2Tiles / 2);
}

TEST(SliceHash, SpreadIsDeterministic)
{
    SystemConfig a = meshConfig(16, 4, 4);
    SystemConfig b = meshConfig(16, 4, 4);
    a.sliceHash = b.sliceHash = SliceHashKind::Spread;
    for (unsigned i = 0; i < 256; ++i) {
        const Addr region = Addr(i) * a.regionBytes;
        EXPECT_EQ(a.homeTileOf(region), b.homeTileOf(region));
    }
}

} // namespace
} // namespace protozoa
