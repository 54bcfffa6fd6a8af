/**
 * @file
 * Deterministic pseudo-random number generator (xoshiro256**).
 *
 * Every stochastic element of the simulator (workload generators, the
 * random protocol tester) draws from an explicitly seeded Rng so that
 * runs are exactly reproducible across machines and build modes.
 */

#ifndef PROTOZOA_COMMON_RNG_HH
#define PROTOZOA_COMMON_RNG_HH

#include <cstdint>

namespace protozoa {

class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        // splitmix64 expansion of the seed into the xoshiro state.
        std::uint64_t x = seed;
        for (auto &word : state) {
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p. */
    bool chance(double p) { return uniform() < p; }

    /** Snapshot hooks: expose the raw xoshiro state so a checkpoint
     *  can resume the stream mid-sequence bit-identically. */
    void
    stateWords(std::uint64_t out[4]) const
    {
        for (int i = 0; i < 4; ++i)
            out[i] = state[i];
    }

    void
    setStateWords(const std::uint64_t in[4])
    {
        for (int i = 0; i < 4; ++i)
            state[i] = in[i];
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state[4];
};

/** splitmix64 finalizer: the avalanche stage used throughout for
 *  deterministic address/seed hashing. */
inline std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Stateless counter-based draw: hash an explicit (seed, stream,
 * counter) triple into a uniform 64-bit value.
 *
 * Unlike a sequential generator, the value of draw k on stream s does
 * not depend on how draws are interleaved across streams — only on
 * (seed, s, k). The mesh fault injector keys streams by (src,dst) pair
 * and counts messages per pair, so a fault schedule is a pure function
 * of the seed and each pair's traffic, whatever the order in which
 * different pairs send.
 */
inline std::uint64_t
counterHash64(std::uint64_t seed, std::uint64_t stream,
              std::uint64_t counter)
{
    return mix64(seed ^ mix64(stream ^ mix64(counter)));
}

} // namespace protozoa

#endif // PROTOZOA_COMMON_RNG_HH
