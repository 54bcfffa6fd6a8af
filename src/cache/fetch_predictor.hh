/**
 * @file
 * Fetch-granularity prediction.
 *
 * On every L1 miss the controller asks its FetchPredictor what word
 * range of the region to request. The policy is the configuration's
 * PredictorKind: the whole region, a fixed aligned chunk, exactly the
 * referenced words, or PcSpatial, the Amoeba-Cache PC-indexed spatial
 * predictor the paper evaluates with. PcSpatial is the only policy
 * with state: each table entry remembers how far (left/right of the
 * miss word) previous blocks fetched by the same PC were actually
 * used, learning from the touched bitmap of dying blocks.
 */

#ifndef PROTOZOA_CACHE_FETCH_PREDICTOR_HH
#define PROTOZOA_CACHE_FETCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/serialize.hh"
#include "common/types.hh"
#include "common/word_range.hh"

namespace protozoa {

class FetchPredictor
{
  public:
    /** PcSpatial table entries. */
    static constexpr unsigned kTableEntries = 1024;

    /** The policy @p cfg selects, over @p cfg's region size. */
    explicit FetchPredictor(const SystemConfig &cfg);

    /**
     * Predict the fetch range for a miss.
     *
     * @param pc        PC of the missing instruction.
     * @param miss_word region-relative word index of the miss.
     * @param need      words the access itself requires.
     * @return a range covering @p need, within the region.
     *
     * A PcSpatial entry not yet trained predicts the full region, so
     * a cold-start Protozoa mimics MESI exactly (the paper's
     * correctness invariant (i)).
     */
    WordRange predict(Pc pc, unsigned miss_word,
                      const WordRange &need) const;

    /** True for PcSpatial, the one policy that learns. */
    bool learns() const { return kind == PredictorKind::PcSpatial; }

    /**
     * Learn from a dying block: which words were actually touched. A
     * no-op unless learns(). Extents grow at once (spatial locality
     * discovered) and shrink by EWMA, so one sparse use does not
     * discard a useful wide granularity.
     *
     * @param pc        PC that fetched the block.
     * @param miss_word anchor word of the original miss.
     * @param touched   absolute word-bitmap of touched words.
     * @param range     the range the block covered.
     */
    void learn(Pc pc, unsigned miss_word, WordMask touched,
               const WordRange &range);

    /**
     * Nothing unless learns(); then sparse: u32 table size, u32 count
     * of trained entries, then per trained entry in ascending index
     * order u32 index, u8 left, u8 right. Visits only the trained
     * entries.
     */
    void saveState(Serializer &s) const;
    /**
     * Fails closed on anything saveState cannot have written. Forgets
     * only the entries trained before, so it costs what the two
     * tables hold, not the table size.
     */
    bool restoreState(Deserializer &d);

  private:
    /** Learned extents, in words, around the miss word; both stay
     *  below the region's word count, so a byte holds either. */
    struct Entry
    {
        static constexpr std::uint8_t kUntrained = 0xff;
        std::uint8_t left = kUntrained;
        std::uint8_t right = 0;

        bool trained() const { return left != kUntrained; }
    };

    std::size_t indexOf(Pc pc) const;
    void markTrained(std::size_t index);

    PredictorKind kind;
    unsigned regionWords;
    /** Fixed: words per aligned chunk. */
    unsigned fixedWords;
    /** PcSpatial only (empty otherwise). */
    std::vector<Entry> table;
    /** One bit per table entry, set exactly when it is trained. */
    std::vector<std::uint64_t> trainedBits;
};

} // namespace protozoa

#endif // PROTOZOA_CACHE_FETCH_PREDICTOR_HH
