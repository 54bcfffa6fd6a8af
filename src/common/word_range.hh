/**
 * @file
 * WordRange: closed interval of word indices within one region.
 *
 * Amoeba blocks, coherence probes, and data messages all name the words
 * they cover with a WordRange, exactly like the <START, END> markers of
 * the Amoeba-Cache 4-tuple in the paper (Fig. 2). Ranges never span a
 * region boundary.
 */

#ifndef PROTOZOA_COMMON_WORD_RANGE_HH
#define PROTOZOA_COMMON_WORD_RANGE_HH

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>

#include "common/types.hh"

namespace protozoa {

/**
 * Closed interval [start, end] of word indices inside a region.
 *
 * A default-constructed range is the canonical empty range. All word
 * indices are region-relative (0 .. regionWords-1).
 */
struct WordRange
{
    /** First word covered (inclusive). */
    unsigned start = 1;
    /** Last word covered (inclusive). */
    unsigned end = 0;

    constexpr WordRange() = default;

    constexpr WordRange(unsigned s, unsigned e) : start(s), end(e) {}

    /** True when the range covers no words. */
    constexpr bool empty() const { return end < start; }

    /** Number of words covered. */
    constexpr unsigned words() const { return empty() ? 0 : end - start + 1; }

    /** Number of bytes covered. */
    constexpr unsigned bytes() const { return words() * kWordBytes; }

    /** True when word @p w lies within the range. */
    constexpr bool
    contains(unsigned w) const
    {
        return !empty() && w >= start && w <= end;
    }

    /** True when @p o is entirely within this range. */
    constexpr bool
    covers(const WordRange &o) const
    {
        return !o.empty() && !empty() && o.start >= start && o.end <= end;
    }

    /** True when the two ranges share at least one word. */
    constexpr bool
    overlaps(const WordRange &o) const
    {
        return !empty() && !o.empty() &&
            start <= o.end && o.start <= end;
    }

    /** Intersection of the two ranges (possibly empty). */
    constexpr WordRange
    intersect(const WordRange &o) const
    {
        if (!overlaps(o))
            return WordRange();
        return WordRange(std::max(start, o.start), std::min(end, o.end));
    }

    /** Smallest range covering both inputs (inputs may be disjoint). */
    constexpr WordRange
    span(const WordRange &o) const
    {
        if (empty())
            return o;
        if (o.empty())
            return *this;
        return WordRange(std::min(start, o.start), std::max(end, o.end));
    }

    /** Bitmask with one bit set per covered word. */
    constexpr WordMask
    mask() const
    {
        if (empty())
            return 0;
        assert(end < kMaxRegionWords);
        WordMask all = (end + 1 >= kWordMaskBits)
                           ? ~WordMask(0)
                           : ((WordMask(1) << (end + 1)) - 1);
        return all & ~((WordMask(1) << start) - 1);
    }

    constexpr bool
    operator==(const WordRange &o) const
    {
        return (empty() && o.empty()) ||
            (start == o.start && end == o.end);
    }

    /** True when non-empty and inside a region of @p region_words
     *  words: what every range restored from a snapshot must be. */
    constexpr bool
    within(unsigned region_words) const
    {
        return start <= end && end < region_words;
    }

    /** A full-region range for a region of @p region_words words. */
    static constexpr WordRange
    full(unsigned region_words)
    {
        return WordRange(0, region_words - 1);
    }

    /** Human-readable "[s-e]" form for logs and tests. */
    std::string toString() const;
};

// ---- WordMask algebra -------------------------------------------------
//
// The bit-parallel data path works on WordMasks directly: a mask is
// the canonical set-of-words representation, a WordRange names one
// contiguous run of it. These helpers convert between the two without
// per-bit loops, so every bulk copy can be a handful of memcpy calls.

/** True when @p mask is one contiguous run of set bits (or empty). */
constexpr bool
maskIsContiguous(WordMask mask)
{
    if (mask == 0)
        return true;
    const WordMask norm =
        mask >> static_cast<unsigned>(std::countr_zero(mask));
    return (norm & (norm + 1)) == 0;
}

/** The single contiguous run of @p mask (must be contiguous, non-0). */
constexpr WordRange
rangeOfMask(WordMask mask)
{
    assert(mask != 0 && maskIsContiguous(mask));
    const unsigned start =
        static_cast<unsigned>(std::countr_zero(mask));
    const unsigned end = kWordMaskBits - 1 -
        static_cast<unsigned>(std::countl_zero(mask));
    return WordRange(start, end);
}

/**
 * Decompose @p mask into its maximal contiguous runs, ascending, and
 * call @p fn with each run as a WordRange. A dense mask costs one
 * callback; a fully sparse one degrades to popcount(mask) callbacks.
 */
template <typename F>
constexpr void
forEachMaskRun(WordMask mask, F &&fn)
{
    while (mask) {
        const unsigned start =
            static_cast<unsigned>(std::countr_zero(mask));
        const unsigned len =
            static_cast<unsigned>(std::countr_one(mask >> start));
        const WordRange run(start, start + len - 1);
        fn(run);
        mask &= ~run.mask();
    }
}

/** Number of maximal contiguous runs in @p mask. */
unsigned maskRunCount(WordMask mask);

/**
 * Shrink @p pred so that it still covers @p need but does not overlap
 * @p obstacle.
 *
 * Used when clipping a predicted fetch range against blocks already
 * present in the cache. @p obstacle must not itself overlap @p need.
 *
 * @return the clipped range (always a superset of @p need).
 */
WordRange clipAgainst(const WordRange &pred, const WordRange &need,
                      const WordRange &obstacle);

} // namespace protozoa

#endif // PROTOZOA_COMMON_WORD_RANGE_HH
