/**
 * @file
 * Property tests for the multi-word CoreSet (common/core_mask.hh) at
 * the widths the wide-mesh configurations actually exercise — 1, 63,
 * 64, 65 and 255 cores — plus a differential check that every <=64-
 * core mask keeps raw() bit-identical to the old single-uint64_t
 * representation (the state-fingerprint and bit-identity guards feed
 * raw() into their digests, so this compatibility is load-bearing).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/core_mask.hh"

namespace protozoa {
namespace {

const unsigned kWidths[] = {1, 63, 64, 65, 255};

/** Deterministic xorshift for reproducible random core picks. */
std::uint64_t
nextRand(std::uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

TEST(CoreSetProperty, FirstNMatchesPerBitConstruction)
{
    for (const unsigned n : kWidths) {
        const CoreSet mask = CoreSet::firstN(n);
        EXPECT_EQ(mask.count(), n) << "width " << n;
        CoreSet manual;
        for (unsigned c = 0; c < n; ++c) {
            EXPECT_TRUE(mask.test(c)) << "width " << n << " core " << c;
            manual.set(c);
        }
        if (n < kMaxCores) {
            EXPECT_FALSE(mask.test(n));
        }
        EXPECT_EQ(mask, manual);
    }
    EXPECT_TRUE(CoreSet::firstN(0).none());
    EXPECT_EQ(CoreSet::firstN(kMaxCores).count(), kMaxCores);
}

TEST(CoreSetProperty, SetResetRoundTripAtBoundaries)
{
    for (const unsigned n : kWidths) {
        const unsigned c = n - 1; // the top core of each width
        CoreSet mask;
        EXPECT_FALSE(mask.test(c));
        mask.set(c);
        EXPECT_TRUE(mask.test(c));
        EXPECT_TRUE(mask.any());
        EXPECT_TRUE(mask.only(c));
        EXPECT_EQ(mask.count(), 1u);
        // Boundary neighbours stay clear (word-crossing off-by-ones).
        if (c > 0) {
            EXPECT_FALSE(mask.test(c - 1));
        }
        if (c + 1 < kMaxCores) {
            EXPECT_FALSE(mask.test(c + 1));
        }
        mask.reset(c);
        EXPECT_TRUE(mask.none());
        EXPECT_EQ(mask, CoreSet());
    }
}

TEST(CoreSetProperty, ForEachVisitsAscendingExactly)
{
    for (const unsigned n : kWidths) {
        CoreSet mask;
        std::vector<unsigned> want;
        // A spread of cores including both word boundaries.
        for (unsigned c = 0; c < n; c += (n > 8 ? 7 : 1)) {
            mask.set(c);
            want.push_back(c);
        }
        mask.set(n - 1);
        if (want.empty() || want.back() != n - 1)
            want.push_back(n - 1);

        std::vector<unsigned> got;
        mask.forEach([&](CoreId c) { got.push_back(c); });
        EXPECT_EQ(got, want) << "width " << n;
        EXPECT_EQ(mask.count(), want.size());
    }
}

TEST(CoreSetProperty, AlgebraMatchesPerBitSemantics)
{
    std::uint64_t seed = 0x5eedULL;
    for (const unsigned n : kWidths) {
        CoreSet a, b;
        for (unsigned i = 0; i < 48; ++i) {
            a.set(static_cast<CoreId>(nextRand(seed) % n));
            b.set(static_cast<CoreId>(nextRand(seed) % n));
        }
        const CoreSet uni = a | b;
        const CoreSet diff = a.minus(b);
        bool overlap = false;
        for (unsigned c = 0; c < n; ++c) {
            EXPECT_EQ(uni.test(c), a.test(c) || b.test(c));
            EXPECT_EQ(diff.test(c), a.test(c) && !b.test(c));
            overlap = overlap || (a.test(c) && b.test(c));
        }
        EXPECT_EQ(a.intersects(b), overlap) << "width " << n;
        EXPECT_FALSE(diff.intersects(b));

        CoreSet acc = a;
        acc |= b;
        EXPECT_EQ(acc, uni);
    }
}

TEST(CoreSetProperty, HighAnyTracksWordsAboveTheFirst)
{
    CoreSet low;
    low.set(0);
    low.set(63);
    EXPECT_FALSE(low.highAny());

    CoreSet high = low;
    high.set(64);
    EXPECT_TRUE(high.highAny());
    high.reset(64);
    EXPECT_FALSE(high.highAny());

    CoreSet top;
    top.set(kMaxCores - 1);
    EXPECT_TRUE(top.highAny());
    EXPECT_EQ(top.raw(), 0u); // nothing in word 0
}

/**
 * Differential check against the retired representation: for every
 * <=64-core mask, raw() must equal the plain uint64_t the old CoreSet
 * held, operation by operation.
 */
TEST(CoreSetDifferential, RawBitIdenticalToUint64ForNarrowMasks)
{
    for (const unsigned n : {1u, 17u, 63u, 64u}) {
        CoreSet mask;
        std::uint64_t ref = 0;
        std::uint64_t seed = 0xd1ffULL + n;
        for (unsigned step = 0; step < 512; ++step) {
            const unsigned c =
                static_cast<unsigned>(nextRand(seed) % n);
            if (nextRand(seed) & 1) {
                mask.set(static_cast<CoreId>(c));
                ref |= std::uint64_t(1) << c;
            } else {
                mask.reset(static_cast<CoreId>(c));
                ref &= ~(std::uint64_t(1) << c);
            }
            ASSERT_EQ(mask.raw(), ref)
                << "width " << n << " step " << step;
            ASSERT_EQ(mask.count(),
                      static_cast<unsigned>(__builtin_popcountll(ref)));
            ASSERT_EQ(mask.none(), ref == 0);
        }
        // firstN mirrors the old ((1 << n) - 1) idiom without the
        // n == 64 shift overflow.
        const std::uint64_t all =
            n >= 64 ? ~std::uint64_t(0)
                    : (std::uint64_t(1) << n) - 1;
        EXPECT_EQ(CoreSet::firstN(n).raw(), all);
    }
}

TEST(CoreSetDifferential, FromRawRoundTrips)
{
    const std::uint64_t patterns[] = {
        0, 1, 0x8000000000000000ULL, 0xdeadbeefcafebabeULL,
        ~std::uint64_t(0)};
    for (const std::uint64_t p : patterns) {
        const CoreSet mask = CoreSet::fromRaw(p);
        EXPECT_EQ(mask.raw(), p);
        EXPECT_FALSE(mask.highAny());
        EXPECT_EQ(mask.count(),
                  static_cast<unsigned>(__builtin_popcountll(p)));
    }
}

TEST(CoreSetProperty, ToHexMatchesPlainUint64Formatting)
{
    char buf[32];
    const std::uint64_t patterns[] = {0, 0x1, 0xff0addbeULL,
                                      0x8000000000000000ULL};
    for (const std::uint64_t p : patterns) {
        std::snprintf(buf, sizeof(buf), "%llx",
                      static_cast<unsigned long long>(p));
        EXPECT_EQ(CoreSet::fromRaw(p).toHex(), buf);
    }
    // Wide masks print the high word first, zero-padded below.
    CoreSet wide;
    wide.set(64);
    wide.set(0);
    EXPECT_EQ(wide.toHex(), "10000000000000001");
}

} // namespace
} // namespace protozoa
