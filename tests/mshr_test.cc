/**
 * @file
 * Unit tests for the MSHR file and the eviction writeback buffer.
 */

#include <gtest/gtest.h>

#include "cache/mshr.hh"

namespace protozoa {
namespace {

MshrEntry
entryFor(Addr region)
{
    MshrEntry e;
    e.region = region;
    e.need = WordRange(1, 1);
    e.pred = WordRange(0, 3);
    return e;
}

TEST(MshrFile, AllocFindFree)
{
    MshrFile mshrs;
    EXPECT_FALSE(mshrs.full());
    EXPECT_EQ(mshrs.find(0x1000), nullptr);

    MshrEntry *e = mshrs.alloc(entryFor(0x1000));
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->region, 0x1000u);
    EXPECT_EQ(mshrs.find(0x1000), e);
    EXPECT_EQ(mshrs.find(0x2000), nullptr);
    EXPECT_EQ(mshrs.size(), 1u);

    mshrs.free(0x1000);
    EXPECT_EQ(mshrs.find(0x1000), nullptr);
    EXPECT_EQ(mshrs.size(), 0u);

    // The one entry is free again: a miss on another region fits.
    EXPECT_NE(mshrs.alloc(entryFor(0x2000)), nullptr);
    EXPECT_EQ(mshrs.find(0x2000)->region, 0x2000u);
}

// The in-order core has one outstanding miss, so the file holds one
// entry: a second miss on another region is refused.
TEST(MshrFile, CapacityEnforced)
{
    MshrFile mshrs;
    mshrs.alloc(entryFor(0x1000));
    EXPECT_TRUE(mshrs.full());
    EXPECT_DEATH(mshrs.alloc(entryFor(0x2000)), "MSHR file full");
}

TEST(MshrFile, DoubleAllocSameRegionPanics)
{
    MshrFile mshrs;
    mshrs.alloc(entryFor(0x1000));
    EXPECT_DEATH(mshrs.alloc(entryFor(0x1000)), "outstanding MSHR");
}

TEST(MshrFile, FreeAbsentPanics)
{
    MshrFile mshrs;
    EXPECT_DEATH(mshrs.free(0x1000), "freeing absent MSHR");
    mshrs.alloc(entryFor(0x1000));
    EXPECT_DEATH(mshrs.free(0x2000), "freeing absent MSHR");
}

/** Collect the overlap visitor's output for easy assertions. */
std::vector<PendingWb>
overlappingSegments(const WbBuffer &buf, Addr region, WordRange r)
{
    std::vector<PendingWb> out;
    buf.forEachOverlapping(
        region, r, [&](const PendingWb &wb) { out.push_back(wb); });
    return out;
}

PendingWb
wbFor(WordRange range, bool last = false, bool demote = false)
{
    PendingWb wb;
    wb.seg.range = range;
    wb.seg.words.assign(range.words(), 7);
    wb.touched = range.mask();
    wb.last = last;
    wb.demoteOwner = demote;
    return wb;
}

TEST(WbBuffer, PushPopLifecycle)
{
    WbBuffer buf;
    EXPECT_FALSE(buf.hasPending(0x40));
    buf.push(0x40, wbFor(WordRange(0, 1)));
    EXPECT_TRUE(buf.hasPending(0x40));
    EXPECT_EQ(buf.pendingCount(), 1u);
    buf.popFront(0x40);
    EXPECT_FALSE(buf.hasPending(0x40));
    EXPECT_EQ(buf.pendingCount(), 0u);
}

TEST(WbBuffer, PopWithoutPendingPanics)
{
    WbBuffer buf;
    EXPECT_DEATH(buf.popFront(0x40), "WB_ACK without pending PUT");
}

TEST(WbBuffer, FifoOrderPerRegion)
{
    WbBuffer buf;
    buf.push(0x40, wbFor(WordRange(0, 1)));
    buf.push(0x40, wbFor(WordRange(4, 5)));
    EXPECT_EQ(buf.pendingCount(), 2u);
    buf.popFront(0x40);
    auto rest = overlappingSegments(buf, 0x40, WordRange(0, 7));
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0].seg.range, WordRange(4, 5));
}

TEST(WbBuffer, OverlappingSegmentsFilterByRange)
{
    WbBuffer buf;
    buf.push(0x40, wbFor(WordRange(0, 1)));
    buf.push(0x40, wbFor(WordRange(6, 7)));
    buf.push(0x80, wbFor(WordRange(3, 3)));

    EXPECT_EQ(overlappingSegments(buf, 0x40, WordRange(0, 7)).size(), 2u);
    EXPECT_EQ(overlappingSegments(buf, 0x40, WordRange(1, 5)).size(), 1u);
    EXPECT_EQ(overlappingSegments(buf, 0x40, WordRange(2, 5)).size(), 0u);
    EXPECT_EQ(overlappingSegments(buf, 0xc0, WordRange(0, 7)).size(), 0u);
}

TEST(WbBuffer, SegmentsCarryDataAndFlags)
{
    WbBuffer buf;
    PendingWb wb = wbFor(WordRange(2, 3), true, false);
    wb.seg.words = {11, 22};
    buf.push(0x40, wb);

    auto found = overlappingSegments(buf, 0x40, WordRange(3, 3));
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].seg.words, (WordsVec{11, 22}));
    EXPECT_TRUE(found[0].last);
}

TEST(WbBuffer, IndependentRegions)
{
    WbBuffer buf;
    buf.push(0x40, wbFor(WordRange(0, 0)));
    buf.push(0x80, wbFor(WordRange(1, 1)));
    buf.popFront(0x40);
    EXPECT_FALSE(buf.hasPending(0x40));
    EXPECT_TRUE(buf.hasPending(0x80));
}

} // namespace
} // namespace protozoa
