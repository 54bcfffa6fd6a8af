#include "cache/fetch_predictor.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace protozoa {

FetchPredictor::FetchPredictor(const SystemConfig &cfg)
    : kind(cfg.predictor), regionWords(cfg.regionWords()),
      fixedWords(cfg.fixedFetchWords)
{
    static_assert(kMaxRegionWords < Entry::kUntrained,
                  "extents must fit below the untrained marker");
    if (learns()) {
        table.resize(kTableEntries);
        trainedBits.assign((kTableEntries + 63) / 64, 0);
    }
}

std::size_t
FetchPredictor::indexOf(Pc pc) const
{
    // Fibonacci hash of the PC (word-aligned PCs have dead low bits).
    const std::uint64_t h = (pc >> 2) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h % table.size());
}

void
FetchPredictor::markTrained(std::size_t index)
{
    trainedBits[index / 64] |= std::uint64_t(1) << (index % 64);
}

WordRange
FetchPredictor::predict(Pc pc, unsigned miss_word,
                        const WordRange &need) const
{
    switch (kind) {
      case PredictorKind::FullRegion: {
        const WordRange out = WordRange::full(regionWords);
        PROTO_ASSERT(out.covers(need), "need outside region");
        return out;
      }
      case PredictorKind::Fixed: {
        const unsigned chunk = std::min(fixedWords, regionWords);
        const unsigned start = (miss_word / chunk) * chunk;
        return WordRange(start, std::min(start + chunk - 1, regionWords - 1))
            .span(need);
      }
      case PredictorKind::PcSpatial: {
        const Entry &e = table[indexOf(pc)];
        if (!e.trained())
            return WordRange::full(regionWords);
        const unsigned start = miss_word >= e.left ? miss_word - e.left : 0;
        const unsigned end = std::min(miss_word + e.right, regionWords - 1);
        return WordRange(start, end).span(need);
      }
      case PredictorKind::WordOnly:
        return need;
    }
    panic("unknown predictor kind");
}

void
FetchPredictor::learn(Pc pc, unsigned miss_word, WordMask touched,
                      const WordRange &range)
{
    if (!learns())
        return;
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
    e.left = static_cast<std::uint8_t>(
        new_left > e.left ? new_left : (e.left + new_left) / 2);
    e.right = static_cast<std::uint8_t>(
        new_right > e.right ? new_right : (e.right + new_right) / 2);
}

void
FetchPredictor::saveState(Serializer &s) const
{
    if (!learns())
        return;
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
FetchPredictor::restoreState(Deserializer &d)
{
    if (!learns())
        return true;
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

} // namespace protozoa
