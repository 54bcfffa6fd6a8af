/**
 * @file
 * Fundamental scalar types and address arithmetic shared by every module.
 *
 * The simulator models a 16-core CMP whose memory system operates on
 * 8-byte words grouped into aligned REGIONs (the fixed coherence-metadata
 * granularity of the Protozoa paper, 64 bytes by default).
 */

#ifndef PROTOZOA_COMMON_TYPES_HH
#define PROTOZOA_COMMON_TYPES_HH

#include <bit>
#include <cstdint>
#include <cstddef>

namespace protozoa {

/** Byte address in the simulated physical address space. */
using Addr = std::uint64_t;

/** Simulated time in core clock cycles. */
using Cycle = std::uint64_t;

/** Core / L1 identifier. Also indexes mesh nodes. */
using CoreId = std::uint16_t;

/** Tile (shared-L2 slice / directory bank) identifier. */
using TileId = std::uint16_t;

/** Program counter of the instruction performing a memory access. */
using Pc = std::uint64_t;

/** Size of a machine word in bytes; the finest coherence granularity. */
constexpr unsigned kWordBytes = 8;

/** log2(kWordBytes), for shifting addresses to word indices. */
constexpr unsigned kWordShift = 3;

/** Hard upper bound on region size (words) used for fixed-size bitmaps. */
constexpr unsigned kMaxRegionWords = 16;   // supports regions up to 128 B

/** Per-block tag/metadata overhead an Amoeba L1 block charges against
 *  its set's byte budget. */
constexpr unsigned kBlockTagBytes = 8;

/** A bitmap with one bit per word of a region. */
using WordMask = std::uint32_t;

/** Bit width of WordMask; all shift guards derive from this, never from
 *  a literal, so widening WordMask for larger regions is a 1-line change. */
constexpr unsigned kWordMaskBits = 8 * sizeof(WordMask);

static_assert(kMaxRegionWords <= kWordMaskBits,
              "WordMask too narrow for kMaxRegionWords; widen WordMask");

/** Call @p fn with the index of each set bit of the @p n words at
 *  @p words, in ascending order (bit i of word w is index 64w + i). */
template <typename F>
constexpr void
forEachSetBit(const std::uint64_t *words, std::size_t n, F &&fn)
{
    for (std::size_t w = 0; w < n; ++w)
        for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1)
            fn(static_cast<unsigned>(w * 64 + std::countr_zero(bits)));
}

/** Round an address down to its containing word. */
constexpr Addr
wordAlign(Addr a)
{
    return a & ~static_cast<Addr>(kWordBytes - 1);
}

/** Index of the word containing @p a within a region of @p region_bytes. */
constexpr unsigned
wordIndexIn(Addr a, unsigned region_bytes)
{
    return static_cast<unsigned>((a & (region_bytes - 1)) >> kWordShift);
}

/** Base (aligned) address of the region containing @p a. */
constexpr Addr
regionBase(Addr a, unsigned region_bytes)
{
    return a & ~static_cast<Addr>(region_bytes - 1);
}

/**
 * Quotient and remainder by a divisor fixed at construction: a shift
 * and a mask when it is a power of two, the hardware divide otherwise.
 * Set-index functions hold one per runtime geometry value.
 */
class FixedDivisor
{
  public:
    explicit FixedDivisor(std::uint32_t d)
        : d(d), shift(static_cast<std::uint8_t>(std::countr_zero(d))),
          pow2(std::has_single_bit(d))
    {
    }

    std::uint64_t div(std::uint64_t x) const
    {
        return pow2 ? x >> shift : x / d;
    }

    std::uint64_t mod(std::uint64_t x) const
    {
        return pow2 ? x & (d - 1) : x % d;
    }

  private:
    std::uint32_t d;
    std::uint8_t shift;
    bool pow2;
};

} // namespace protozoa

#endif // PROTOZOA_COMMON_TYPES_HH
