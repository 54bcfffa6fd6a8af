/**
 * @file
 * System configuration: one struct gathers every knob of the simulated
 * CMP. Defaults reproduce Table 4 of the Protozoa paper.
 */

#ifndef PROTOZOA_COMMON_CONFIG_HH
#define PROTOZOA_COMMON_CONFIG_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "common/core_mask.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace protozoa {

/** The coherence protocols evaluated in the paper (Section 4). */
enum class ProtocolKind
{
    MESI,            ///< fixed-granularity 4-hop directory baseline
    ProtozoaSW,      ///< adaptive storage/comm, single writer per region
    ProtozoaSWMR,    ///< single writer + non-overlapping concurrent readers
    ProtozoaMW,      ///< multiple non-overlapping writers (word-level SWMR)
};

const char *protocolName(ProtocolKind kind);

/** Sharer-tracking organization at the directory. */
enum class DirectoryKind
{
    InCacheExact,    ///< precise per-entry reader/writer sets (paper)
    TaglessBloom,    ///< Sec. 6: Bloom-summarized sharers (TL-style)
};

/** Region -> home-tile (L2 slice) mapping function. */
enum class SliceHashKind
{
    Modulo,          ///< region index mod l2Tiles (paper's interleave)
    Spread,          ///< multiplicative spread hash (FlexiCAS slicehash
                     ///< idiom): decorrelates strided footprints from
                     ///< the tile count
};

/** Fetch-granularity policy used by the L1 on a miss. */
enum class PredictorKind
{
    FullRegion,      ///< always fetch the whole region (MESI behaviour)
    Fixed,           ///< always fetch a fixed number of words
    PcSpatial,       ///< Amoeba-Cache PC-indexed spatial predictor
    WordOnly,        ///< fetch exactly the referenced words (lower bound)
};

/**
 * Index of one slot (and of its sidecar) within an L2 tile; the
 * all-ones value is reserved as "no slot", so a tile holds at most
 * max() entries.
 */
using L2SlotIndex = std::uint32_t;

/**
 * Complete configuration of the simulated system.
 *
 * Defaults follow Table 4: 16 in-order cores at 3 GHz, 4x4 mesh at
 * 1.5 GHz with 16-byte flits and 2-cycle links, Amoeba L1 with 256 sets
 * and 288 bytes per set, 16-tile inclusive shared L2 (2 MB/tile),
 * 300-cycle main memory.
 */
struct SystemConfig
{
    ProtocolKind protocol = ProtocolKind::ProtozoaMW;
    PredictorKind predictor = PredictorKind::PcSpatial;
    DirectoryKind directory = DirectoryKind::InCacheExact;
    /** Region -> home-tile mapping (Modulo reproduces the paper). */
    SliceHashKind sliceHash = SliceHashKind::Modulo;

    /** TaglessBloom geometry: buckets per hash table, hash tables. */
    unsigned bloomBuckets = 256;
    unsigned bloomHashes = 2;

    /**
     * Sec. 6 "3-hop vs 4-hop": when a request has exactly one probe
     * target and that owner can cover the requested words, it sends
     * DATA directly to the requester (the directory still collects
     * the writeback and finishes the transaction). Falls back to
     * 4-hop whenever the owner cannot supply the full range.
     */
    bool threeHop = false;

    unsigned numCores = 16;

    /** REGION size: coherence-metadata granularity (and MESI block size). */
    unsigned regionBytes = 64;

    // ---- L1 (Amoeba) ----
    unsigned l1Sets = 256;
    unsigned l1BytesPerSet = 288;
    Cycle l1Latency = 2;
    /** Extra L1 cycles per additional block processed in a gather step. */
    Cycle l1GatherPerBlock = 1;
    /** Words fetched by the Fixed predictor policy. */
    unsigned fixedFetchWords = 8;

    // ---- shared L2 / directory ----
    unsigned l2Tiles = 16;
    std::uint64_t l2BytesPerTile = 2ull * 1024 * 1024;
    unsigned l2Assoc = 8;
    Cycle l2Latency = 14;

    // ---- interconnect (4x4 mesh) ----
    unsigned meshCols = 4;
    unsigned meshRows = 4;
    unsigned flitBytes = 16;
    /** Per-hop latency in core cycles (2 net cycles x 2 core/net ratio). */
    Cycle hopLatency = 4;
    /** Core cycles to serialize one additional flit. */
    Cycle flitSerialization = 2;

    // ---- main memory ----
    Cycle memLatency = 300;

    /** Control-message / data-header size in bytes (paper: 8 B). */
    unsigned controlBytes = 8;

    /** Verify every load against the golden memory (cheap; default on). */
    bool checkValues = true;

    // ---- conformance-harness knobs (all default off: figure harnesses
    // ---- stay bit-identical to a build without the harness) ----

    /**
     * Network fault injection: perturb message delivery times with
     * seeded random jitter so the protocol sees hostile interleavings.
     * Same-(src,dst) FIFO order is always preserved (the protocol
     * relies on it); only cross-pair order is shuffled.
     */
    bool faultInjection = false;
    /** Max extra per-message delay in core cycles (uniform [0, max]). */
    Cycle faultJitterMax = 8;
    /**
     * Probability that a message is additionally held for a long burst
     * (4*faultJitterMax + 16 cycles), virtually guaranteeing messages
     * on other (src,dst) pairs overtake it.
     */
    double faultReorderProb = 0.05;

    /**
     * Occupancy fault injection: seeded random jitter added to every
     * L1/directory occupy() reservation, so controller-side timing
     * races get the same treatment as network races. Off by default:
     * the occupancy model stays deterministic.
     */
    bool occupancyJitter = false;
    /** Max extra occupancy cycles per reservation (uniform [0, max]). */
    Cycle occupancyJitterMax = 4;

    /**
     * Schedule oracle (protocheck): the mesh parks every message in
     * per-(src,dst) FIFO channels instead of scheduling its delivery,
     * and an external chooser (the src/check explorer) decides which
     * channel fires next. Zero overhead when off.
     */
    bool scheduleOracle = false;

    /**
     * Test-only: re-inject the lost-store eviction race that the
     * WbBuffer::hasUncollected probe patch-up fixed, so the protocheck
     * regression test can prove the explorer rediscovers it.
     */
    bool debugLostStoreBug = false;

    /**
     * Deadlock watchdog: flag any MSHR entry or directory transaction
     * outstanding for more than this many cycles and dump a diagnostic
     * instead of hanging until the event-queue safety net. 0 = off.
     */
    Cycle watchdogCycles = 0;

    /**
     * Inert: the sharded parallel engine was removed, and validate()
     * refuses any value but 0. Kept only because the benchmark harness
     * still assigns it; the next change to the benchmark deletes that
     * assignment and this field.
     */
    unsigned simThreads = 0;

    /** Seed for workload generation and the random tester. */
    std::uint64_t seed = 1;

    /** Words per region. */
    unsigned regionWords() const { return regionBytes / kWordBytes; }

    /**
     * Home tile (shared-L2 slice / directory bank) of @p region. Every
     * component that needs a region's home — L1 request routing, the
     * directory's recall diagnostics, the protocheck inclusion oracle —
     * goes through this one mapping so the slice hash stays consistent
     * system-wide. Modulo is the paper's address interleave; Spread
     * multiplies the region index by a fixed odd constant and takes
     * high bits (the FlexiCAS slicehash idiom), so footprints strided
     * by a multiple of l2Tiles no longer pile onto one tile.
     */
    unsigned
    homeTileOf(Addr region) const
    {
        const Addr idx = region / regionBytes;
        if (sliceHash == SliceHashKind::Spread) {
            std::uint64_t z = idx * 0x9e3779b97f4a7c15ULL;
            z ^= z >> 32;
            return static_cast<unsigned>(z % l2Tiles);
        }
        return static_cast<unsigned>(idx % l2Tiles);
    }

    /**
     * Deadlock-watchdog horizon scaled to the machine geometry.
     * watchdogCycles bounds are calibrated against the paper's 4x4
     * 16-core reference machine; the worst-case cost of one
     * transaction — a probe fan-out across the mesh diameter, a
     * memory fetch, and per-core response collection — grows with the
     * mesh, so a flat bound that is sane at 4x4 false-positives at
     * 16x16. The configured bound scales by the ratio of the two
     * worst-case transaction costs (exactly watchdogCycles at or
     * below the reference geometry) and never drops below one full
     * transaction cost, so a tight bound cannot fire on a lone
     * memory-latency fetch either.
     */
    Cycle
    watchdogHorizon() const
    {
        if (watchdogCycles == 0)
            return 0;
        const auto txnCost = [this](unsigned cols, unsigned rows,
                                    unsigned cores) {
            const Cycle diameter = (cols - 1) + (rows - 1);
            return 2 * hopLatency * diameter + memLatency +
                   Cycle(cores) * l2Latency;
        };
        const Cycle ref = txnCost(4, 4, 16);
        const Cycle mine = txnCost(meshCols, meshRows, numCores);
        const Cycle scaled =
            mine <= ref ? watchdogCycles
                        : (watchdogCycles * mine + ref - 1) / ref;
        return std::max(scaled, mine);
    }

    /** Abort with a clear message if the configuration is inconsistent. */
    void
    validate() const
    {
        if (regionBytes % kWordBytes != 0 || regionWords() < 1 ||
            regionWords() > kMaxRegionWords)
            fatal("regionBytes=%u unsupported", regionBytes);
        if ((regionBytes & (regionBytes - 1)) != 0)
            fatal("regionBytes must be a power of two");
        if (numCores == 0 || numCores > kMaxCores)
            fatal("numCores=%u out of range [1, %u]: sharer sets are "
                  "kMaxCores wide (widen kMaxCores to go bigger)",
                  numCores, kMaxCores);
        if (meshCols == 0 || meshRows == 0)
            fatal("mesh geometry %ux%u needs at least one column and "
                  "one row", meshCols, meshRows);
        if (numCores != meshCols * meshRows)
            fatal("numCores (%u) must equal meshCols*meshRows (%u)",
                  numCores, meshCols * meshRows);
        if (l2Tiles != numCores)
            fatal("l2Tiles must equal numCores (tiled design)");
        if (l1Sets == 0)
            fatal("l1Sets must be at least 1");
        if (l2Assoc == 0)
            fatal("l2Assoc must be at least 1");
        if (l2BytesPerTile / regionBytes >
            std::numeric_limits<L2SlotIndex>::max())
            fatal("l2BytesPerTile=%llu holds more %u-byte entries than "
                  "an L2 slot index can address (%u)",
                  static_cast<unsigned long long>(l2BytesPerTile),
                  regionBytes, std::numeric_limits<L2SlotIndex>::max());
        if (l2BytesPerTile < std::uint64_t(regionBytes) * l2Assoc)
            fatal("l2BytesPerTile=%llu cannot hold one %u-way set of "
                  "%u-byte regions",
                  static_cast<unsigned long long>(l2BytesPerTile),
                  l2Assoc, regionBytes);
        if (l1BytesPerSet < regionBytes)
            fatal("l1BytesPerSet must hold at least one region");
        if (directory == DirectoryKind::TaglessBloom &&
            (bloomBuckets == 0 ||
             (bloomBuckets & (bloomBuckets - 1)) != 0))
            fatal("bloomBuckets=%u must be a nonzero power of two",
                  bloomBuckets);
        if (faultReorderProb < 0.0 || faultReorderProb > 1.0)
            fatal("faultReorderProb must be within [0,1]");
        if (simThreads != 0)
            fatal("simThreads=%u: the sharded parallel engine was "
                  "removed; every System runs on the sequential event "
                  "queue, so simThreads must be 0", simThreads);
    }
};

} // namespace protozoa

#endif // PROTOZOA_COMMON_CONFIG_HH
