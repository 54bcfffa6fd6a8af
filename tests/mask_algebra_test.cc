/**
 * @file
 * Property tests of the WordMask <-> WordRange algebra underneath the
 * bit-parallel data path, a differential check that the bulk
 * MsgData::setRange operation is observation-equivalent to the
 * per-word set() loop it replaced, and FixedDivisor (the set-index
 * quotient and remainder) against / and %.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/word_range.hh"
#include "protocol/coherence_msg.hh"

namespace protozoa {
namespace {

TEST(MaskAlgebra, RangeMaskRoundTripAllWidths)
{
    // Every non-empty range within a maximal region maps to a
    // contiguous mask and back to itself.
    for (unsigned s = 0; s < kMaxRegionWords; ++s) {
        for (unsigned e = s; e < kMaxRegionWords; ++e) {
            const WordRange r(s, e);
            const WordMask m = r.mask();
            EXPECT_EQ(std::popcount(m), static_cast<int>(r.words()));
            EXPECT_TRUE(maskIsContiguous(m));
            EXPECT_EQ(rangeOfMask(m), r);
        }
    }
}

TEST(MaskAlgebra, WordMaskBitsBoundary)
{
    // mask() saturates correctly when the range touches the top bit
    // of the mask word (end + 1 == kWordMaskBits would overflow a
    // naive shift).
    const WordRange top(0, kWordMaskBits - 1);
    EXPECT_EQ(top.mask(), ~WordMask(0));
    EXPECT_TRUE(maskIsContiguous(~WordMask(0)));
    EXPECT_EQ(rangeOfMask(~WordMask(0)), top);

    const WordRange high(kWordMaskBits - 1, kWordMaskBits - 1);
    EXPECT_EQ(high.mask(), WordMask(1) << (kWordMaskBits - 1));
    EXPECT_EQ(rangeOfMask(high.mask()), high);
}

TEST(MaskAlgebra, ContiguityPredicate)
{
    EXPECT_TRUE(maskIsContiguous(0));
    EXPECT_TRUE(maskIsContiguous(0b1));
    EXPECT_TRUE(maskIsContiguous(0b1110));
    EXPECT_FALSE(maskIsContiguous(0b1010));
    EXPECT_FALSE(maskIsContiguous(0b10000001));
}

TEST(MaskAlgebra, RunDecompositionPartitionsRandomMasks)
{
    // forEachMaskRun yields disjoint, ascending, maximal runs whose
    // union is the input, and maskRunCount agrees with the number of
    // callbacks.
    Rng rng(0xb17f00d);
    for (unsigned trial = 0; trial < 20000; ++trial) {
        const WordMask mask = static_cast<WordMask>(
            rng.below(std::uint64_t(1) << kMaxRegionWords));
        WordMask rebuilt = 0;
        unsigned runs = 0;
        int prevEnd = -2;
        forEachMaskRun(mask, [&](const WordRange &r) {
            ASSERT_FALSE(r.empty());
            // Ascending and maximal: a run never abuts the previous
            // one (that would be one longer run).
            ASSERT_GT(static_cast<int>(r.start), prevEnd + 1);
            ASSERT_EQ(rebuilt & r.mask(), 0u);
            rebuilt |= r.mask();
            prevEnd = static_cast<int>(r.end);
            ++runs;
        });
        ASSERT_EQ(rebuilt, mask);
        ASSERT_EQ(runs, maskRunCount(mask));
    }
}

TEST(MaskAlgebra, RunDecompositionFullMaskWidth)
{
    // The kWordMaskBits-wide all-ones mask is one single run; the
    // alternating mask is the worst case of one run per set bit.
    unsigned runs = 0;
    forEachMaskRun(~WordMask(0), [&](const WordRange &r) {
        EXPECT_EQ(r, WordRange(0, kWordMaskBits - 1));
        ++runs;
    });
    EXPECT_EQ(runs, 1u);
    EXPECT_EQ(maskRunCount(~WordMask(0)), 1u);

    const WordMask alternating = 0x55555555u & ~WordMask(0);
    EXPECT_EQ(maskRunCount(alternating),
              static_cast<unsigned>(std::popcount(alternating)));
}

/** The pre-mask per-word payload build, kept as the reference model. */
void
referenceAdd(MsgData &data, const WordRange &r, const std::uint64_t *src)
{
    for (unsigned w = r.start; w <= r.end; ++w)
        data.set(w, src[w - r.start]);
}

TEST(MaskAlgebra, BulkSetRangeMatchesPerWordSet)
{
    // Differential test: assemble the same randomized disjoint-run
    // payloads through setRange and through the old per-word loop;
    // masks, word values, and run decompositions must agree.
    Rng rng(0xdecaf);
    for (unsigned trial = 0; trial < 5000; ++trial) {
        MsgData bulk;
        MsgData ref;
        WordMask occupied = 0;
        for (unsigned attempt = 0; attempt < 6; ++attempt) {
            const unsigned s = static_cast<unsigned>(
                rng.below(kMaxRegionWords));
            const unsigned e = s + static_cast<unsigned>(
                rng.below(kMaxRegionWords - s));
            const WordRange r(s, e);
            if (occupied & r.mask())
                continue;
            occupied |= r.mask();
            std::uint64_t words[kMaxRegionWords];
            for (unsigned i = 0; i < r.words(); ++i)
                words[i] = rng.next();
            bulk.setRange(r, words);
            referenceAdd(ref, r, words);
        }
        ASSERT_EQ(bulk.valid, ref.valid);
        ref.forEachWord([&](unsigned w, std::uint64_t v) {
            ASSERT_TRUE(bulk.has(w));
            ASSERT_EQ(bulk.at(w), v);
        });
        // copyOut returns exactly what the per-word reads see.
        forEachMaskRun(bulk.valid, [&](const WordRange &run) {
            std::uint64_t out[kMaxRegionWords];
            bulk.copyOut(run, out);
            for (unsigned w = run.start; w <= run.end; ++w)
                ASSERT_EQ(out[w - run.start], ref.at(w));
        });
    }
}

TEST(MaskAlgebra, MergeFromEqualsSequentialAdds)
{
    // mergeFrom(a <- b) must equal building one payload from both
    // sources' runs directly.
    Rng rng(0xfeed);
    for (unsigned trial = 0; trial < 2000; ++trial) {
        MsgData a;
        MsgData b;
        MsgData both;
        for (unsigned w = 0; w < kMaxRegionWords; ++w) {
            const std::uint64_t v = rng.next();
            switch (rng.below(3)) {
              case 0:
                a.set(w, v);
                both.set(w, v);
                break;
              case 1:
                b.set(w, v);
                both.set(w, v);
                break;
              default:
                break;
            }
        }
        a.mergeFrom(b);
        ASSERT_EQ(a.valid, both.valid);
        both.forEachWord([&](unsigned w, std::uint64_t v) {
            ASSERT_EQ(a.at(w), v);
        });
    }
}

TEST(FixedDivisor, MatchesDivisionAndRemainder)
{
    // Powers of two take the shift and mask, the rest the divide
    // (the 3-tile protocheck meshes); both must agree with / and %.
    Rng rng(0xd1f);
    for (const std::uint32_t d : {1u, 2u, 3u, 5u, 12u, 16u, 64u, 256u,
                                  4096u, 4097u}) {
        const FixedDivisor div(d);
        for (int i = 0; i < 1000; ++i) {
            const std::uint64_t x = i < 64 ? std::uint64_t(i) : rng.next();
            ASSERT_EQ(div.div(x), x / d) << x << " / " << d;
            ASSERT_EQ(div.mod(x), x % d) << x << " % " << d;
        }
    }
}

} // namespace
} // namespace protozoa
