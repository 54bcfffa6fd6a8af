/**
 * @file
 * Unit tests for the variable-granularity AmoebaCache: byte-budget
 * sets, overlap queries, LRU eviction, and the non-overlap invariant.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/amoeba_cache.hh"

namespace protozoa {
namespace {

SystemConfig
tinyCfg()
{
    SystemConfig cfg;
    cfg.l1Sets = 4;
    cfg.l1BytesPerSet = 288;
    return cfg;
}

AmoebaBlock
makeBlock(Addr region, WordRange range,
          BlockState state = BlockState::S)
{
    AmoebaBlock blk;
    blk.region = region;
    blk.range = range;
    blk.state = state;
    blk.words.assign(range.words(), 0);
    return blk;
}

/** Regions that map to set 0 of the tiny config. */
Addr
regionInSet0(unsigned n)
{
    SystemConfig cfg = tinyCfg();
    return static_cast<Addr>(n) * cfg.l1Sets * cfg.regionBytes;
}

TEST(AmoebaCache, InsertAndFind)
{
    AmoebaCache cache(tinyCfg());
    const Addr r = regionInSet0(1);
    cache.insert(makeBlock(r, WordRange(2, 5)));

    EXPECT_NE(cache.findCovering(r, 2), nullptr);
    EXPECT_NE(cache.findCovering(r, 5), nullptr);
    EXPECT_EQ(cache.findCovering(r, 1), nullptr);
    EXPECT_EQ(cache.findCovering(r, 6), nullptr);
    EXPECT_EQ(cache.findCovering(r + 64 * 4, 3), nullptr);
    EXPECT_EQ(cache.blockCount(), 1u);
}

std::size_t
regionBlockCount(AmoebaCache &cache, Addr region)
{
    AmoebaCache::BlockPtrs out;
    cache.blocksOfRegion(region, out);
    return out.size();
}

std::size_t
overlapCount(AmoebaCache &cache, Addr region, WordRange r)
{
    AmoebaCache::BlockPtrs out;
    cache.overlapping(region, r, out);
    return out.size();
}

TEST(AmoebaCache, MultipleDisjointBlocksPerRegion)
{
    AmoebaCache cache(tinyCfg());
    const Addr r = regionInSet0(1);
    cache.insert(makeBlock(r, WordRange(0, 1)));
    cache.insert(makeBlock(r, WordRange(3, 4)));
    cache.insert(makeBlock(r, WordRange(6, 7)));

    EXPECT_EQ(regionBlockCount(cache, r), 3u);
    EXPECT_EQ(overlapCount(cache, r, WordRange(1, 3)), 2u);
    EXPECT_EQ(overlapCount(cache, r, WordRange(5, 5)), 0u);
    EXPECT_EQ(overlapCount(cache, r, WordRange(0, 7)), 3u);
}

TEST(AmoebaCacheDeath, OverlappingInsertPanics)
{
    AmoebaCache cache(tinyCfg());
    const Addr r = regionInSet0(1);
    cache.insert(makeBlock(r, WordRange(2, 5)));
    EXPECT_DEATH(cache.insert(makeBlock(r, WordRange(5, 6))),
                 "overlapping insert");
}

TEST(AmoebaCache, DirtyTracking)
{
    AmoebaCache cache(tinyCfg());
    const Addr r = regionInSet0(1);
    cache.insert(makeBlock(r, WordRange(0, 1), BlockState::S));
    EXPECT_FALSE(cache.hasDirtyRegion(r));
    EXPECT_FALSE(cache.hasWritableRegion(r));

    cache.insert(makeBlock(r, WordRange(4, 5), BlockState::E));
    EXPECT_FALSE(cache.hasDirtyRegion(r));
    EXPECT_TRUE(cache.hasWritableRegion(r));   // E can silently upgrade

    cache.insert(makeBlock(r, WordRange(6, 7), BlockState::M));
    EXPECT_TRUE(cache.hasDirtyRegion(r));
    EXPECT_TRUE(cache.hasWritableRegion(r));
}

TEST(AmoebaCache, ByteBudgetAccounting)
{
    AmoebaCache cache(tinyCfg());
    const Addr r = regionInSet0(1);
    const unsigned set = cache.setOf(r);
    EXPECT_EQ(cache.setOccupancyBytes(set), 0u);

    cache.insert(makeBlock(r, WordRange(0, 7)));   // 64 data + 8 tag
    EXPECT_EQ(cache.setOccupancyBytes(set), 72u);

    cache.insert(makeBlock(r + 64 * 4, WordRange(3, 3)));  // 8 + 8
    EXPECT_EQ(cache.setOccupancyBytes(set), 88u);
}

TEST(AmoebaCache, MesiDegenerateCaseHoldsFourWays)
{
    // 288-byte sets with 72-byte full-region blocks = 4 ways.
    AmoebaCache cache(tinyCfg());
    for (unsigned i = 0; i < 4; ++i) {
        AmoebaCache::Evicted evicted;
        cache.makeRoom(regionInSet0(i), WordRange(0, 7), evicted);
        EXPECT_TRUE(evicted.empty());
        cache.insert(makeBlock(regionInSet0(i), WordRange(0, 7)));
    }
    AmoebaCache::Evicted evicted;
    cache.makeRoom(regionInSet0(4), WordRange(0, 7), evicted);
    EXPECT_EQ(evicted.size(), 1u);
}

TEST(AmoebaCache, FinerBlocksRaiseBlockCount)
{
    // The same 288-byte set holds 18 one-word blocks (16 B each).
    AmoebaCache cache(tinyCfg());
    for (unsigned i = 0; i < 18; ++i) {
        const Addr r = regionInSet0(i);
        AmoebaCache::Evicted evicted;
        cache.makeRoom(r, WordRange(0, 0), evicted);
        EXPECT_TRUE(evicted.empty()) << i;
        cache.insert(makeBlock(r, WordRange(0, 0)));
    }
    EXPECT_EQ(cache.blockCount(), 18u);
    AmoebaCache::Evicted evicted;
    cache.makeRoom(regionInSet0(19), WordRange(0, 0), evicted);
    EXPECT_EQ(evicted.size(), 1u);
}

TEST(AmoebaCache, MakeRoomEvictsLruFirst)
{
    AmoebaCache cache(tinyCfg());
    AmoebaBlock *first =
        cache.insert(makeBlock(regionInSet0(0), WordRange(0, 7)));
    for (unsigned i = 1; i < 4; ++i)
        cache.insert(makeBlock(regionInSet0(i), WordRange(0, 7)));

    // Refresh block 0 so block 1 becomes LRU.
    cache.touchLru(first);
    AmoebaCache::Evicted evicted;
    cache.makeRoom(regionInSet0(9), WordRange(0, 7), evicted);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0].region, regionInSet0(1));
}

TEST(AmoebaCache, MakeRoomMayEvictSeveralSmallBlocks)
{
    SystemConfig cfg = tinyCfg();
    cfg.l1BytesPerSet = 96;    // one full region + a bit
    AmoebaCache cache(cfg);
    const Addr r = regionInSet0(0);
    cache.insert(makeBlock(r, WordRange(0, 0)));
    cache.insert(makeBlock(r, WordRange(2, 2)));
    cache.insert(makeBlock(r, WordRange(4, 4)));
    cache.insert(makeBlock(r, WordRange(6, 6)));  // 4 x 16B = 64B used

    AmoebaCache::Evicted evicted;
    cache.makeRoom(regionInSet0(1), WordRange(0, 7), evicted);  // 72B
    EXPECT_EQ(evicted.size(), 3u);  // down to 16B used
}

TEST(AmoebaCache, RemoveExactExtractsBlock)
{
    AmoebaCache cache(tinyCfg());
    const Addr r = regionInSet0(1);
    AmoebaBlock *resident =
        cache.insert(makeBlock(r, WordRange(2, 4), BlockState::M));
    resident->wordAt(3) = 0x1234;

    AmoebaBlock out = cache.removeExact(r, WordRange(2, 4));
    EXPECT_EQ(out.wordAt(3), 0x1234u);
    EXPECT_EQ(out.state, BlockState::M);
    EXPECT_EQ(cache.blockCount(), 0u);
    EXPECT_EQ(cache.setOccupancyBytes(cache.setOf(r)), 0u);
}

TEST(AmoebaCacheDeath, RemoveExactMissingPanics)
{
    AmoebaCache cache(tinyCfg());
    EXPECT_DEATH(cache.removeExact(regionInSet0(0), WordRange(0, 1)),
                 "not resident");
}

TEST(AmoebaCache, TouchedWordAccounting)
{
    AmoebaBlock blk = makeBlock(0, WordRange(2, 6));
    EXPECT_EQ(blk.touchedWords(), 0u);
    EXPECT_EQ(blk.untouchedWords(), 5u);
    blk.touched |= WordMask(1) << 3;
    blk.touched |= WordMask(1) << 6;
    EXPECT_EQ(blk.touchedWords(), 2u);
    EXPECT_EQ(blk.untouchedWords(), 3u);
    // Touched bits outside the range are ignored.
    blk.touched |= WordMask(1) << 0;
    EXPECT_EQ(blk.touchedWords(), 2u);
}

TEST(AmoebaCache, WordAtIndexing)
{
    AmoebaBlock blk = makeBlock(0, WordRange(3, 5));
    blk.wordAt(3) = 10;
    blk.wordAt(4) = 20;
    blk.wordAt(5) = 30;
    EXPECT_EQ(blk.words[0], 10u);
    EXPECT_EQ(blk.words[1], 20u);
    EXPECT_EQ(blk.words[2], 30u);
}

TEST(AmoebaCache, ForEachVisitsEverything)
{
    AmoebaCache cache(tinyCfg());
    cache.insert(makeBlock(regionInSet0(0), WordRange(0, 1)));
    cache.insert(makeBlock(regionInSet0(1), WordRange(2, 3)));
    cache.insert(makeBlock(regionInSet0(2) + 64, WordRange(4, 5)));
    unsigned count = 0;
    cache.forEach([&](const AmoebaBlock &) { ++count; });
    EXPECT_EQ(count, 3u);
}

/** Every resident block's region, in forEach order. */
std::vector<Addr>
residentRegions(AmoebaCache &cache)
{
    std::vector<Addr> out;
    cache.forEach([&](const AmoebaBlock &b) { out.push_back(b.region); });
    return out;
}

TEST(AmoebaCacheSlots, FreedSlotIsReusedBeforeHighWaterAdvances)
{
    AmoebaCache cache(tinyCfg());
    AmoebaBlock *a = cache.insert(makeBlock(regionInSet0(0), WordRange(0, 7)));
    AmoebaBlock *b = cache.insert(makeBlock(regionInSet0(1), WordRange(0, 7)));
    AmoebaBlock *c = cache.insert(makeBlock(regionInSet0(2), WordRange(0, 7)));
    // A set's slots are contiguous and claimed in order.
    EXPECT_EQ(b, a + 1);
    EXPECT_EQ(c, a + 2);

    cache.removeExact(regionInSet0(1), WordRange(0, 7));   // frees b
    cache.removeExact(regionInSet0(0), WordRange(0, 7));   // frees a

    // Last freed, first reused; only then does the set claim a slot it
    // never used before.
    EXPECT_EQ(cache.insert(makeBlock(regionInSet0(3), WordRange(0, 7))), a);
    EXPECT_EQ(cache.insert(makeBlock(regionInSet0(4), WordRange(0, 7))), b);
    EXPECT_EQ(cache.insert(makeBlock(regionInSet0(5), WordRange(0, 0))),
              a + 3);
}

TEST(AmoebaCacheSlots, UntouchedBlocksKeepTheirAddresses)
{
    // Fill set 0 with eight 3-word blocks (32 B each, 256 of 288 B),
    // keep a pointer to each, then evict and reinsert around them.
    AmoebaCache cache(tinyCfg());
    std::vector<AmoebaBlock *> ptrs;
    for (unsigned i = 0; i < 8; ++i) {
        AmoebaBlock blk = makeBlock(regionInSet0(i), WordRange(1, 3));
        blk.words[0] = 100 + i;
        ptrs.push_back(cache.insert(std::move(blk)));
    }
    // Blocks 2 and 5 stay recent; 0, 1, 3, 4, 6, 7 are the LRU order.
    cache.touchLru(ptrs[2]);
    cache.touchLru(ptrs[5]);

    // A full region (72 B) needs 40 B more than is free: two victims.
    AmoebaCache::Evicted evicted;
    cache.makeRoom(regionInSet0(8), WordRange(0, 7), evicted);
    ASSERT_EQ(evicted.size(), 2u);
    EXPECT_EQ(evicted[0].region, regionInSet0(0));
    EXPECT_EQ(evicted[1].region, regionInSet0(1));
    cache.insert(makeBlock(regionInSet0(8), WordRange(0, 7)));
    cache.removeExact(regionInSet0(6), WordRange(1, 3));
    cache.insert(makeBlock(regionInSet0(9), WordRange(0, 1)));

    for (const unsigned i : {2u, 3u, 4u, 5u, 7u}) {
        EXPECT_EQ(cache.findCovering(regionInSet0(i), 2), ptrs[i]) << i;
        EXPECT_EQ(ptrs[i]->region, regionInSet0(i));
        EXPECT_EQ(ptrs[i]->wordAt(1), 100u + i);
    }
}

TEST(AmoebaCacheSlots, ForEachFollowsInsertionOrderAfterRemovals)
{
    AmoebaCache cache(tinyCfg());
    const Addr other = regionInSet0(0) + 64;   // set 1
    for (unsigned i = 0; i < 4; ++i)
        cache.insert(makeBlock(regionInSet0(i), WordRange(0, 7)));
    cache.insert(makeBlock(other, WordRange(0, 3)));
    EXPECT_EQ(residentRegions(cache),
              (std::vector<Addr>{regionInSet0(0), regionInSet0(1),
                                 regionInSet0(2), regionInSet0(3), other}));

    // Removing from the middle keeps the survivors' relative order; a
    // reinsert into a reused slot goes to the back of its set.
    cache.removeExact(regionInSet0(1), WordRange(0, 7));
    EXPECT_EQ(residentRegions(cache),
              (std::vector<Addr>{regionInSet0(0), regionInSet0(2),
                                 regionInSet0(3), other}));
    cache.insert(makeBlock(regionInSet0(5), WordRange(0, 7)));
    cache.removeExact(regionInSet0(0), WordRange(0, 7));
    cache.insert(makeBlock(regionInSet0(1), WordRange(2, 3)));
    EXPECT_EQ(residentRegions(cache),
              (std::vector<Addr>{regionInSet0(2), regionInSet0(3),
                                 regionInSet0(5), regionInSet0(1), other}));

    // Evictions take the LRU block and keep the order of the rest.
    AmoebaCache::Evicted evicted;
    cache.makeRoom(regionInSet0(6), WordRange(0, 7), evicted);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0].region, regionInSet0(2));
    cache.insert(makeBlock(regionInSet0(6), WordRange(0, 7)));
    EXPECT_EQ(residentRegions(cache),
              (std::vector<Addr>{regionInSet0(3), regionInSet0(5),
                                 regionInSet0(1), regionInSet0(6), other}));
}

#if defined(__SANITIZE_ADDRESS__)
// Freed slots are poisoned, so a stale block pointer kept across a
// removal is caught instead of silently reading a destroyed block.
TEST(AmoebaCacheDeath, StaleBlockPointerIsPoisoned)
{
    AmoebaCache cache(tinyCfg());
    const Addr r = regionInSet0(1);
    AmoebaBlock *stale = cache.insert(makeBlock(r, WordRange(2, 4)));
    cache.removeExact(r, WordRange(2, 4));
    EXPECT_DEATH(
        {
            volatile Addr seen = stale->region;
            (void)seen;
        },
        "use-after-poison");
}
#endif

} // namespace
} // namespace protozoa
