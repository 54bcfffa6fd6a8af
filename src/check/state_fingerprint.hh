/**
 * @file
 * Canonical 64-bit fingerprint of a quiescent System state, for the
 * explorer's state-space memoization.
 *
 * Two states that will behave identically under every future schedule
 * must hash equal; the fingerprint therefore canonicalizes every
 * container whose iteration order is an implementation artifact
 * (hash-table order of the flat address tables, insertion order of
 * cache sets) and strips absolute time (LRU stamps become per-set
 * ranks; controller busy-until horizons have already passed at a
 * quiescent point, because the event queue is drained).
 *
 * Covered state: per-core access progress, every L1 block (extent,
 * state, touched mask, payload, per-set LRU rank), MSHR and
 * writeback-buffer entries, every directory entry (sharer sets, fill
 * and dirty flags, payload, per-set LRU rank), active transactions and
 * queued requests, the parked in-flight message multiset (per-channel
 * FIFO order preserved, channels in canonical ascending order), and
 * the golden/main-memory words of the scenario's region footprint.
 *
 * Under the PcSpatial predictor, also the state it learns from: each
 * L1's trained table entries (FetchPredictor::saveState's bytes,
 * ascending index order) and each block's fetchPc and missWord, which
 * the L1 hands to the predictor when the block dies. The other
 * predictors are stateless and never read those two fields, so their
 * fingerprints leave them out and split states as before.
 */

#ifndef PROTOZOA_CHECK_STATE_FINGERPRINT_HH
#define PROTOZOA_CHECK_STATE_FINGERPRINT_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "protocol/dir_controller.hh"

namespace protozoa {
class System;
struct AmoebaBlock;
}

namespace protozoa::check {

/**
 * The lists fingerprintSystem sorts and the predictor bytes it hashes,
 * kept by the caller across calls: once their capacities cover the
 * largest state seen, a fingerprint allocates nothing.
 */
struct FingerprintScratch
{
    /** One L1 block, keyed for canonical (set, LRU-rank) ordering. */
    struct Block
    {
        unsigned set = 0;
        std::uint64_t lruStamp = 0;
        const AmoebaBlock *blk = nullptr;
    };
    std::vector<Block> blocks;
    std::vector<DirController::EntrySnap> entries;
    std::vector<std::uint8_t> predictorBytes;
};

/**
 * Fingerprint @p sys at a quiescent point (event queue drained, only
 * parked messages in flight).
 *
 * @param regions  sorted region bases whose memory words to cover
 *                 (Scenario::regionFootprint()).
 * @param progress completed accesses per core.
 * @param scratch  reusable buffers (FingerprintScratch).
 */
std::uint64_t fingerprintSystem(System &sys,
                                const std::vector<Addr> &regions,
                                const std::vector<unsigned> &progress,
                                FingerprintScratch &scratch);

} // namespace protozoa::check

#endif // PROTOZOA_CHECK_STATE_FINGERPRINT_HH
