/**
 * @file
 * Variable-granularity L1 data storage (Amoeba-Cache, MICRO'12).
 *
 * Each set has a byte budget instead of a fixed way count. Blocks are
 * <Region, Start, End> tuples with collocated tags (one word of tag
 * overhead per block, Fig. 2 of the Protozoa paper). Blocks of the same
 * region never overlap. All blocks of a region live in the same set, so
 * the multi-block coherence snoops (CHECK / GATHER, Fig. 3) scan one
 * set only.
 *
 * Storage layout: block payloads are inline (no per-block heap words),
 * and the whole cache is a handful of flat arrays. Each set owns a run
 * of slotCap slots (the worst case of minimum-size blocks), indexed
 * set * slotCap + slot, holding the compact tags the scans read. The
 * wide AmoebaBlock storage is claimed densely, cache-wide, the first
 * time a slot is filled, and owned by that slot from then on; a set
 * reuses its freed slots before claiming a new one. A cache therefore
 * touches block memory only for the most blocks each set has ever
 * held at once, packed together, and the rest of the worst-case
 * reservation stays untouched (FixedArray). Blocks never move, so
 * block pointers stay stable across unrelated inserts and removals,
 * and a per-set order array preserves insertion order exactly like
 * the former std::list. The multi-block snoop helpers fill
 * caller-provided scratch buffers, so the steady-state
 * lookup/evict/insert loop allocates nothing.
 *
 * The fixed-granularity baseline (MESI) is the degenerate case where
 * every block spans its whole region: with the default 288-byte sets
 * and 8-byte tags that is exactly four 64-byte ways.
 */

#ifndef PROTOZOA_CACHE_AMOEBA_CACHE_HH
#define PROTOZOA_CACHE_AMOEBA_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "common/config.hh"
#include "common/fixed_array.hh"
#include "common/serialize.hh"
#include "common/small_vec.hh"
#include "common/types.hh"
#include "common/word_range.hh"

namespace protozoa {

/** L1 block coherence state (Table 2, L1 stable states). */
enum class BlockState : std::uint8_t
{
    S,   ///< shared, clean; other L1s may hold overlapping sub-blocks
    E,   ///< exclusive, clean
    M,   ///< dirty; no other L1 holds an overlapping sub-block
};

const char *blockStateName(BlockState s);

/** One variable-granularity cache block; payload words live inline. */
struct AmoebaBlock
{
    Addr region = 0;
    WordRange range;
    BlockState state = BlockState::S;
    /** Words of the region the core actually referenced. */
    WordMask touched = 0;
    /** PC of the miss that fetched this block (predictor training). */
    Pc fetchPc = 0;
    /** Word index of the original miss within the region. */
    std::uint8_t missWord = 0;
    /** LRU timestamp. */
    std::uint64_t lruStamp = 0;
    /** Data payload, indexed by (word - range.start). */
    SmallVec<std::uint64_t, kMaxRegionWords> words;

    bool dirty() const { return state == BlockState::M; }

    std::uint64_t &
    wordAt(unsigned w)
    {
        return words[w - range.start];
    }

    std::uint64_t
    wordAt(unsigned w) const
    {
        return words[w - range.start];
    }

    /** Words of this block the core touched / did not touch. */
    unsigned touchedWords() const;
    unsigned untouchedWords() const { return range.words() - touchedWords(); }
};

class AmoebaCache
{
  public:
    explicit AmoebaCache(const SystemConfig &cfg);
    ~AmoebaCache();
    AmoebaCache(const AmoebaCache &) = delete;
    AmoebaCache &operator=(const AmoebaCache &) = delete;

    /**
     * Inline capacity of the snoop scratch buffers: the default
     * 288-byte set holds at most 18 minimum-size blocks. Larger
     * configured budgets spill the scratch vector to the heap, which
     * is correct but no longer allocation-free.
     */
    static constexpr unsigned kScratchBlocks = 20;

    /** Caller-provided scratch for multi-block snoop results. */
    using BlockPtrs = SmallVec<AmoebaBlock *, kScratchBlocks>;
    /** Caller-provided scratch for eviction victims. */
    using Evicted = SmallVec<AmoebaBlock, kScratchBlocks>;

    /** Set index for a region. */
    unsigned setOf(Addr region) const;

    /** The single block containing @p word of @p region, or nullptr. */
    AmoebaBlock *findCovering(Addr region, unsigned word);

    /**
     * Append all blocks of @p region (non-overlapping by invariant) to
     * @p out. Pointers stay valid until one of them is removed.
     */
    void blocksOfRegion(Addr region, BlockPtrs &out);

    /** Append the blocks of @p region overlapping @p r to @p out. */
    void overlapping(Addr region, const WordRange &r, BlockPtrs &out);

    bool hasRegion(Addr region);
    /** True when any block of @p region is dirty. */
    bool hasDirtyRegion(Addr region);
    /**
     * True when any block of @p region still confers write permission
     * (M, or E which can silently upgrade to M).
     */
    bool hasWritableRegion(Addr region);

    /**
     * Evict LRU blocks from the target set until a block of @p r words
     * (plus tag) fits, appending the victims to @p out oldest first.
     */
    void makeRoom(Addr region, const WordRange &r, Evicted &out);

    /**
     * Insert a block. Space must already exist (call makeRoom) and the
     * block must not overlap any same-region resident block.
     * @return pointer to the resident copy (stable until removal).
     */
    AmoebaBlock *insert(AmoebaBlock blk);

    /** Extract the exact block (@p region, @p r) from the cache. */
    AmoebaBlock removeExact(Addr region, const WordRange &r);

    /** Refresh the LRU stamp of @p blk. */
    void touchLru(AmoebaBlock *blk);

    /** Apply @p fn to every resident block of @p set, oldest first. */
    template <typename F>
    void
    forEachInSet(unsigned set, F &&fn)
    {
        for (const std::uint16_t s : liveOrder(set))
            fn(blockAt(base(set) + s));
    }

    /** Apply @p fn to every resident block, set by set. */
    template <typename F>
    void
    forEach(F &&fn)
    {
        for (unsigned set = 0; set < numSets; ++set)
            forEachInSet(set, fn);
    }

    std::size_t blockCount() const;
    unsigned setOccupancyBytes(unsigned set_index) const;

    /**
     * Serialize every resident block (exact LRU stamps and per-set
     * insertion order included) plus the LRU clock.
     */
    void saveState(Serializer &s) const;
    /**
     * Rebuild from a snapshot over whatever the cache holds (same
     * geometry); reproduces insertion order, LRU stamps and all
     * derived metadata exactly, as a new cache would. Fails closed on
     * a state byte above M, a range outside the region, a touched
     * mask with bits outside the region, a missWord at or above the
     * region's word count, a word count other than the range's and a
     * block outside its set.
     */
    bool restoreState(Deserializer &d);

  private:
    /**
     * Per-set bookkeeping. The set's run of the order array holds the
     * live slots in insertion order at its front ([0, live)) and the
     * free stack at its back: slots freed below the high-water mark,
     * most recent at index slotCap - freeDepth. live + freeDepth equals
     * highWater, so the two never meet, and slots at or above
     * highWater have never held a block.
     */
    struct SetMeta
    {
        /** OR of live blocks' range masks, across all regions. */
        WordMask coverage = 0;
        unsigned bytesUsed = 0;
        std::uint16_t live = 0;
        std::uint16_t highWater = 0;

        unsigned freeDepth() const { return highWater - live; }
    };

    /**
     * What the scans read of one slot: the block's region and range
     * mask, meaningful while the slot is live, and the index of the
     * block the slot claimed on its first fill (kept for life).
     */
    struct SlotTag
    {
        Addr region;
        WordMask cover;
        std::uint32_t block;
    };

    static unsigned blockCost(const WordRange &r);

    /** First flat index of @p set's slots (and of its order run). */
    std::size_t base(unsigned set) const
    {
        return std::size_t(set) * slotCap;
    }
    /** The live slots of @p set, oldest insertion first. */
    std::span<const std::uint16_t> liveOrder(unsigned set) const
    {
        return {order + base(set), meta[set].live};
    }
    /** The block owned by (live) flat slot @p slot. */
    AmoebaBlock &blockAt(std::size_t slot)
    {
        return blocks[tags[slot].block];
    }
    const AmoebaBlock &blockAt(std::size_t slot) const
    {
        return blocks[tags[slot].block];
    }

    /** Remove order position @p pos of @p set; returns the block. */
    AmoebaBlock takeAt(unsigned set, unsigned pos);
    /** Destroy a live block in place (poisoned under ASan). */
    static void destroyBlock(AmoebaBlock *blk);

    /** Insert preserving blk.lruStamp (also the snapshot restore path). */
    AmoebaBlock *placeBlock(AmoebaBlock blk);

    unsigned numSets;
    /** setOf's remainder: a mask when numSets is a power of two. */
    FixedDivisor setsDiv;
    unsigned setBudget;
    unsigned regionBytes;
    unsigned regionShift;
    /** Slots per set: the set budget packed with one-word blocks. */
    unsigned slotCap;
    /** Blocks [0, blocksClaimed) belong to slots; the rest are unused. */
    std::uint32_t blocksClaimed = 0;
    /** Most blocks claimed before a restore emptied the cache: those
     *  past blocksClaimed may still be poisoned. */
    std::uint32_t blocksEverClaimed = 0;
    std::uint64_t lruClock = 0;

    /**
     * The scan-heavy lookups never touch the wide blocks until a
     * candidate matches: tags mirrors each slot's region and range
     * mask, blockLru each block's LRU stamp for the victim scan, and
     * SetMeta::coverage lets a snoop for words the set holds nowhere
     * be rejected with a single AND. None of these is initialized for
     * slots or blocks not yet in use. Blocks are constructed by
     * placeBlock and destroyed by takeAt. tags, blockLru and order
     * are carved from one heap block, slotIndex: a cache that has
     * filled few sets has touched only the pages around that block's
     * ends, not around each of three (under ASan, each allocation
     * also writes a fill page and its shadow), at the cost of ASan
     * redzones between the three arrays.
     */
    FixedArray<AmoebaBlock> blocks;
    std::unique_ptr<std::byte[]> slotIndex;
    SlotTag *tags = nullptr;
    std::uint64_t *blockLru = nullptr;
    std::uint16_t *order = nullptr;
    std::unique_ptr<SetMeta[]> meta;
};

} // namespace protozoa

#endif // PROTOZOA_CACHE_AMOEBA_CACHE_HH
