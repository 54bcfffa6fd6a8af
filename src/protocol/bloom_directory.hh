/**
 * @file
 * Counting-Bloom sharer tracking: the paper's Sec. 6 alternative to
 * the in-cache directory ("bloom filter-based coherence directories
 * that can summarize the blocks in the cache in a fixed space",
 * citing TL / SPACE / SPATL).
 *
 * Each tile keeps, per tracked role (reader / writer), k hash tables
 * of per-core counters. Membership add/remove pair exactly with the
 * precise directory transitions, so a query always returns a superset
 * of the true sharer set; false positives cost extra probes that the
 * probed L1s answer with NACKs — exactly the imprecision/traffic
 * trade-off the paper alludes to, measurable with the
 * `ablation_bloomdir` harness.
 */

#ifndef PROTOZOA_PROTOCOL_BLOOM_DIRECTORY_HH
#define PROTOZOA_PROTOCOL_BLOOM_DIRECTORY_HH

#include <cstdint>
#include <vector>

#include "common/core_mask.hh"
#include "common/log.hh"
#include "common/serialize.hh"
#include "common/types.hh"

namespace protozoa {

class CountingBloomSharers
{
  public:
    /**
     * @param buckets  buckets per hash table (power of two).
     * @param hashes   number of hash tables (k).
     * @param cores    cores tracked per bucket.
     */
    CountingBloomSharers(unsigned buckets, unsigned hashes,
                         unsigned cores)
        : numBuckets(buckets), numHashes(hashes), numCores(cores),
          counters(static_cast<std::size_t>(buckets) * hashes * cores)
    {
        PROTO_ASSERT(buckets > 0 && (buckets & (buckets - 1)) == 0,
                     "bloom buckets must be a power of two");
        PROTO_ASSERT(hashes >= 1 && hashes <= 4, "1..4 hash tables");
        PROTO_ASSERT(cores <= kMaxCores, "bloom tracks at most "
                     "kMaxCores cores");
    }

    /** Record that @p core now holds (a block of) @p region. */
    void
    add(Addr region, CoreId core)
    {
        forEachSlot(region, core, [](std::uint16_t &c) {
            PROTO_ASSERT(c < 0xffff, "bloom counter overflow");
            ++c;
        });
    }

    /** Record that @p core no longer holds @p region. */
    void
    remove(Addr region, CoreId core)
    {
        forEachSlot(region, core, [](std::uint16_t &c) {
            PROTO_ASSERT(c > 0, "bloom counter underflow");
            --c;
        });
    }

    /** May @p core hold @p region? (no false negatives). */
    bool
    mayHold(Addr region, CoreId core) const
    {
        for (unsigned h = 0; h < numHashes; ++h) {
            if (counters[slot(h, bucketOf(region, h), core)] == 0)
                return false;
        }
        return true;
    }

    /** Set of cores that may hold @p region. */
    CoreSet
    query(Addr region) const
    {
        CoreSet out;
        for (CoreId c = 0; c < numCores; ++c) {
            if (mayHold(region, c))
                out.set(c);
        }
        return out;
    }

    /**
     * Modelled SRAM cost in bits of a (non-counting) presence-bit
     * implementation of the same geometry: buckets x hashes x cores.
     * (The counters here exist only to support exact removal in the
     * model; hardware proposals rebuild or use smaller counters.)
     */
    std::uint64_t
    storageBits() const
    {
        return static_cast<std::uint64_t>(numBuckets) * numHashes *
            numCores;
    }

    /** Serialize the counter array (snapshot subsystem). */
    void saveState(Serializer &s) const { s.writeVecRaw(counters); }

    /** Restore in place into a filter of the same geometry: no
     *  allocation, and another length is refused untouched. */
    bool
    restoreState(Deserializer &d)
    {
        if (d.readU64() != counters.size()) {
            d.setFailed();
            return false;
        }
        return d.readBytes(counters.data(),
                           counters.size() * sizeof(counters[0]));
    }

  private:
    unsigned
    bucketOf(Addr region, unsigned h) const
    {
        // Independent hashes: multiply-shift with distinct odd
        // constants per table.
        static constexpr std::uint64_t kMul[4] = {
            0x9e3779b97f4a7c15ULL, 0xc2b2ae3d27d4eb4fULL,
            0x165667b19e3779f9ULL, 0x27d4eb2f165667c5ULL};
        const std::uint64_t x = (region >> 6) * kMul[h];
        return static_cast<unsigned>((x >> 40) & (numBuckets - 1));
    }

    std::size_t
    slot(unsigned h, unsigned bucket, CoreId core) const
    {
        return (static_cast<std::size_t>(h) * numBuckets + bucket) *
            numCores +
            core;
    }

    template <typename F>
    void
    forEachSlot(Addr region, CoreId core, F &&fn)
    {
        for (unsigned h = 0; h < numHashes; ++h)
            fn(counters[slot(h, bucketOf(region, h), core)]);
    }

    unsigned numBuckets;
    unsigned numHashes;
    unsigned numCores;
    std::vector<std::uint16_t> counters;
};

} // namespace protozoa

#endif // PROTOZOA_PROTOCOL_BLOOM_DIRECTORY_HH
