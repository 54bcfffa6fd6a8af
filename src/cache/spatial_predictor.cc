#include "cache/spatial_predictor.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace protozoa {

WordRange
FullRegionPredictor::predict(Pc, unsigned, const WordRange &need,
                             unsigned region_words)
{
    WordRange out = WordRange::full(region_words);
    PROTO_ASSERT(out.covers(need), "need outside region");
    return out;
}

WordRange
FixedPredictor::predict(Pc, unsigned miss_word, const WordRange &need,
                        unsigned region_words)
{
    const unsigned chunk = std::min(fetchWords, region_words);
    const unsigned start = (miss_word / chunk) * chunk;
    WordRange out(start, std::min(start + chunk - 1, region_words - 1));
    return out.span(need);
}

WordRange
WordOnlyPredictor::predict(Pc, unsigned, const WordRange &need, unsigned)
{
    return need;
}

PcSpatialPredictor::PcSpatialPredictor(unsigned table_entries,
                                       unsigned region_words)
    : regionWords(region_words), table(table_entries),
      trainedBits((table_entries + 63) / 64, 0)
{
    PROTO_ASSERT(table_entries > 0, "empty predictor table");
    static_assert(kMaxRegionWords < Entry::kUntrained,
                  "extents must fit below the untrained marker");
}

std::size_t
PcSpatialPredictor::indexOf(Pc pc) const
{
    // Fibonacci hash of the PC (word-aligned PCs have dead low bits).
    const std::uint64_t h = (pc >> 2) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h % table.size());
}

void
PcSpatialPredictor::markTrained(std::size_t index)
{
    trainedBits[index / 64] |= std::uint64_t(1) << (index % 64);
}

WordRange
PcSpatialPredictor::predict(Pc pc, unsigned miss_word,
                            const WordRange &need, unsigned region_words)
{
    const Entry &e = table[indexOf(pc)];
    if (!e.trained())
        return WordRange::full(region_words);

    const unsigned start = miss_word >= e.left ? miss_word - e.left : 0;
    const unsigned end = std::min(miss_word + e.right, region_words - 1);
    return WordRange(start, end).span(need);
}

void
PcSpatialPredictor::learn(Pc pc, unsigned miss_word, WordMask touched,
                          const WordRange &range)
{
    // The block may have died untouched (e.g. invalidated before use);
    // learn the minimal granularity in that case.
    touched &= range.mask();
    unsigned lo = miss_word;
    unsigned hi = miss_word;
    if (touched != 0) {
        lo = static_cast<unsigned>(std::countr_zero(touched));
        hi = (kWordMaskBits - 1) -
             static_cast<unsigned>(std::countl_zero(touched));
    }

    // Both extents lie inside the region, below kMaxRegionWords.
    const unsigned new_left = miss_word >= lo ? miss_word - lo : 0;
    const unsigned new_right = hi >= miss_word ? hi - miss_word : 0;

    const std::size_t index = indexOf(pc);
    Entry &e = table[index];
    if (!e.trained()) {
        e.left = static_cast<std::uint8_t>(new_left);
        e.right = static_cast<std::uint8_t>(new_right);
        markTrained(index);
        return;
    }
    // Grow immediately (spatial locality discovered), shrink by EWMA so
    // a single sparse use doesn't discard a useful wide granularity.
    e.left = static_cast<std::uint8_t>(
        new_left > e.left ? new_left : (e.left + new_left) / 2);
    e.right = static_cast<std::uint8_t>(
        new_right > e.right ? new_right : (e.right + new_right) / 2);
}

void
PcSpatialPredictor::saveState(Serializer &s) const
{
    std::uint32_t trained = 0;
    for (const std::uint64_t w : trainedBits)
        trained += static_cast<std::uint32_t>(std::popcount(w));
    s.writeU32(static_cast<std::uint32_t>(table.size()));
    s.writeU32(trained);
    forEachSetBit(trainedBits.data(), trainedBits.size(), [&](unsigned i) {
        s.writeU32(i);
        s.writeU8(table[i].left);
        s.writeU8(table[i].right);
    });
}

bool
PcSpatialPredictor::restoreState(Deserializer &d)
{
    // Reject a table of another size, more entries than the table
    // holds, indices out of range or not strictly ascending, and
    // extents outside the region. Restores in place: no allocation.
    const std::uint32_t size = d.readU32();
    const std::uint32_t count = d.readU32();
    if (d.failed() || size != table.size() || count > size)
        return false;
    forEachSetBit(trainedBits.data(), trainedBits.size(),
                  [&](unsigned i) { table[i] = Entry{}; });
    std::fill(trainedBits.begin(), trainedBits.end(), 0);
    std::uint64_t next = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t index = d.readU32();
        const std::uint8_t left = d.readU8();
        const std::uint8_t right = d.readU8();
        if (d.failed() || index < next || index >= size ||
            left >= regionWords || right >= regionWords)
            return false;
        next = std::uint64_t(index) + 1;
        table[index] = Entry{left, right};
        markTrained(index);
    }
    return true;
}

std::unique_ptr<SpatialPredictor>
makePredictor(const SystemConfig &cfg)
{
    switch (cfg.predictor) {
      case PredictorKind::FullRegion:
        return std::make_unique<FullRegionPredictor>();
      case PredictorKind::Fixed:
        return std::make_unique<FixedPredictor>(cfg.fixedFetchWords);
      case PredictorKind::PcSpatial:
        return std::make_unique<PcSpatialPredictor>(1024,
                                                    cfg.regionWords());
      case PredictorKind::WordOnly:
        return std::make_unique<WordOnlyPredictor>();
    }
    panic("unknown predictor kind");
}

} // namespace protozoa
