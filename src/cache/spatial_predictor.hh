/**
 * @file
 * Fetch-granularity predictors.
 *
 * On every L1 miss the controller asks a predictor what word range of
 * the region to request. The PcSpatial policy is the Amoeba-Cache
 * PC-indexed spatial predictor the paper evaluates with: each entry
 * remembers how far (left/right of the miss word) previous blocks
 * fetched by the same PC were actually used, learning from the touched
 * bitmap of dying blocks.
 */

#ifndef PROTOZOA_CACHE_SPATIAL_PREDICTOR_HH
#define PROTOZOA_CACHE_SPATIAL_PREDICTOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/serialize.hh"
#include "common/types.hh"
#include "common/word_range.hh"

namespace protozoa {

class SpatialPredictor
{
  public:
    virtual ~SpatialPredictor() = default;

    /**
     * Predict the fetch range for a miss.
     *
     * @param pc           PC of the missing instruction.
     * @param miss_word    region-relative word index of the miss.
     * @param need         words the access itself requires.
     * @param region_words words per region.
     * @return a range covering @p need, within the region.
     */
    virtual WordRange predict(Pc pc, unsigned miss_word,
                              const WordRange &need,
                              unsigned region_words) = 0;

    /**
     * Learn from a dying block: which words were actually touched.
     *
     * @param pc        PC that fetched the block.
     * @param miss_word anchor word of the original miss.
     * @param touched   absolute word-bitmap of touched words.
     * @param range     the range the block covered.
     */
    virtual void
    learn(Pc pc, unsigned miss_word, WordMask touched,
          const WordRange &range)
    {
        (void)pc; (void)miss_word; (void)touched; (void)range;
    }

    /** Snapshot hooks; stateless predictors serialize nothing. */
    virtual void saveState(Serializer &s) const { (void)s; }
    virtual bool restoreState(Deserializer &d) { (void)d; return true; }
};

/** Always fetch the whole region: conventional-cache behaviour. */
class FullRegionPredictor : public SpatialPredictor
{
  public:
    WordRange predict(Pc pc, unsigned miss_word, const WordRange &need,
                      unsigned region_words) override;
};

/** Always fetch a fixed, aligned number of words. */
class FixedPredictor : public SpatialPredictor
{
  public:
    explicit FixedPredictor(unsigned words) : fetchWords(words) {}

    WordRange predict(Pc pc, unsigned miss_word, const WordRange &need,
                      unsigned region_words) override;

  private:
    unsigned fetchWords;
};

/** Fetch exactly the referenced words: utilization upper bound. */
class WordOnlyPredictor : public SpatialPredictor
{
  public:
    WordRange predict(Pc pc, unsigned miss_word, const WordRange &need,
                      unsigned region_words) override;
};

/**
 * PC-indexed spatial predictor (Amoeba-Cache).
 *
 * Tracks per PC how many words to the left and right of the miss word
 * were touched historically, with a fast-grow / EWMA-shrink update so
 * one streaming phase doesn't permanently inflate the granularity.
 * Cold entries predict the full region, making a cold-start Protozoa
 * mimic MESI exactly (the paper's correctness invariant (i)).
 */
class PcSpatialPredictor : public SpatialPredictor
{
  public:
    explicit PcSpatialPredictor(unsigned table_entries = 1024,
                                unsigned region_words = kMaxRegionWords);

    WordRange predict(Pc pc, unsigned miss_word, const WordRange &need,
                      unsigned region_words) override;

    void learn(Pc pc, unsigned miss_word, WordMask touched,
               const WordRange &range) override;

    /**
     * Sparse: u32 table size, u32 count of trained entries, then per
     * trained entry in ascending index order u32 index, u8 left,
     * u8 right. Visits only the trained entries.
     */
    void saveState(Serializer &s) const override;
    /**
     * Fails closed on anything saveState cannot have written. Forgets
     * only the entries trained before, so it costs what the two
     * tables hold, not the table size.
     */
    bool restoreState(Deserializer &d) override;

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

    /** Region size the snapshot's extents are checked against. */
    unsigned regionWords;
    std::vector<Entry> table;
    /** One bit per table entry, set exactly when it is trained. */
    std::vector<std::uint64_t> trainedBits;
};

/** Factory for the policy selected in the configuration. */
std::unique_ptr<SpatialPredictor> makePredictor(const SystemConfig &cfg);

} // namespace protozoa

#endif // PROTOZOA_CACHE_SPATIAL_PREDICTOR_HH
