/**
 * @file
 * SystemConfig validation and geometry-scaling tests: the wide-mesh
 * rejection paths (core counts past kMaxCores, degenerate meshes,
 * undersized L2 tiles, zero L1 sets or L2 ways, L2 tiles with more
 * entries than a slot index addresses), the knobs that used to pass
 * validation and then crash (zero flit size, zero Fixed fetch width,
 * an L1 set too small for a region and its tag, L1 sets and caches
 * with more slots than their indexes address, Bloom hash counts
 * outside 1..4), the refusal of the removed sharded engine's thread
 * count, the watchdog horizon's mesh scaling, and the region ->
 * home-tile slice hashes.
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

// Each of these configurations passed validate() and then crashed: a
// zero divisor (SIGFPE) or a panic in a component's constructor.
TEST(ConfigValidate, RejectsZeroFlitBytes)
{
    // Mesh::flitsFor divides by it.
    SystemConfig cfg;
    cfg.flitBytes = 0;
    EXPECT_DEATH(cfg.validate(), "flitBytes must be at least 1");
}

TEST(ConfigValidate, RejectsZeroFixedFetchWordsUnderFixed)
{
    // The Fixed policy divides the miss word by it.
    SystemConfig cfg;
    cfg.predictor = PredictorKind::Fixed;
    cfg.fixedFetchWords = 0;
    EXPECT_DEATH(cfg.validate(), "fixedFetchWords must be at least 1");

    // Only the Fixed policy reads it.
    cfg.predictor = PredictorKind::PcSpatial;
    cfg.validate();
}

TEST(ConfigValidate, RejectsL1SetBelowOneRegionAndItsTag)
{
    // The Amoeba L1 charges each block its tag on top of its data.
    SystemConfig cfg;
    for (unsigned bytes = cfg.regionBytes;
         bytes < cfg.regionBytes + kBlockTagBytes; ++bytes) {
        cfg.l1BytesPerSet = bytes;
        EXPECT_DEATH(cfg.validate(), "at least one region");
    }
    cfg.l1BytesPerSet = cfg.regionBytes + kBlockTagBytes;
    cfg.validate();
}

TEST(ConfigValidate, RejectsL1SetPastTheSlotIndex)
{
    // A set keeps a slot for each one-word block (16 B with its tag)
    // its budget could pack and numbers them in 16 bits: 65,535 slots
    // panicked in the AmoebaCache constructor.
    SystemConfig cfg;
    cfg.l1Sets = 1;
    for (const unsigned bytes : {65535u * 16, 2'000'000u}) {
        cfg.l1BytesPerSet = bytes;
        EXPECT_DEATH(cfg.validate(), "slot index");
    }
    cfg.l1BytesPerSet = 65535u * 16 - 1;   // 65,534 slots
    cfg.validate();
}

TEST(ConfigValidate, RejectsL1SlotsPastTheBlockIndex)
{
    // The cache numbers its blocks across all sets in 32 bits; 288-B
    // sets hold 18 slots each.
    SystemConfig cfg;
    cfg.l1Sets = 238'609'295;   // 4,294,967,310 slots
    EXPECT_DEATH(cfg.validate(), "block index");
    cfg.l1Sets = 238'609'294;   // 4,294,967,292 slots
    cfg.validate();
}

TEST(ConfigValidate, RejectsBloomHashesOutsideOneToFour)
{
    SystemConfig cfg;
    cfg.directory = DirectoryKind::TaglessBloom;
    for (const unsigned hashes : {0u, 5u}) {
        cfg.bloomHashes = hashes;
        EXPECT_DEATH(cfg.validate(), "bloomHashes");
    }
    for (const unsigned hashes : {1u, 4u}) {
        cfg.bloomHashes = hashes;
        cfg.validate();
    }
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
