#include "check/state_fingerprint.hh"

#include <algorithm>
#include <cstring>
#include <span>
#include <tuple>

#include "common/rng.hh"
#include "common/serialize.hh"
#include "sim/system.hh"

namespace protozoa::check {

namespace {

struct Hasher
{
    std::uint64_t h = 0x70726f746f7a6f61ULL; // "protozoa"

    void feed(std::uint64_t v) { hashFold(h, v); }

    /** Length, then the bytes in little-endian 8-byte words. */
    void
    feedBytes(const std::vector<std::uint8_t> &bytes)
    {
        feed(bytes.size());
        for (std::size_t at = 0; at < bytes.size(); at += 8) {
            std::uint64_t w = 0;
            std::memcpy(&w, bytes.data() + at,
                        std::min<std::size_t>(8, bytes.size() - at));
            feed(w);
        }
    }
};

void
feedL1(Hasher &hx, L1Controller &l1, FingerprintScratch &scratch)
{
    // Only PcSpatial learns: a dying block trains it on the block's
    // fetchPc and missWord, and its table steers every later miss.
    // The other predictors are stateless and never read either field.
    const bool learns = l1.predictorPolicy().learns();
    if (learns) {
        // saveState writes the trained entries in ascending index
        // order: canonical bytes of the whole table.
        Serializer table(std::move(scratch.predictorBytes));
        l1.predictorPolicy().saveState(table);
        scratch.predictorBytes = table.take();
        hx.feedBytes(scratch.predictorBytes);
    }

    AmoebaCache &cache = l1.cacheStorage();
    std::vector<FingerprintScratch::Block> &blocks = scratch.blocks;
    blocks.clear();
    cache.forEach([&](const AmoebaBlock &b) {
        blocks.push_back({cache.setOf(b.region), b.lruStamp, &b});
    });
    // Per-set LRU order canonicalizes the absolute stamps: only the
    // relative recency within a set affects future evictions.
    std::sort(blocks.begin(), blocks.end(),
              [](const FingerprintScratch::Block &a,
                 const FingerprintScratch::Block &b) {
                  return std::tie(a.set, a.lruStamp) <
                         std::tie(b.set, b.lruStamp);
              });
    hx.feed(blocks.size());
    for (const FingerprintScratch::Block &s : blocks) {
        const AmoebaBlock &b = *s.blk;
        hx.feed(s.set);
        hx.feed(b.region);
        hx.feed((std::uint64_t(b.range.start) << 8) | b.range.end);
        hx.feed(static_cast<std::uint64_t>(b.state));
        hx.feed(b.touched);
        if (learns) {
            hx.feed(b.fetchPc);
            hx.feed(b.missWord);
        }
        for (unsigned w = 0; w < b.words.size(); ++w)
            hx.feed(b.words[w]);
    }

    const MshrFile &mshrs = l1.mshrFile();
    hx.feed(mshrs.size());
    mshrs.forEach([&](const MshrEntry &e) {
        hx.feed(e.region);
        hx.feed((std::uint64_t(e.need.start) << 40) |
                (std::uint64_t(e.need.end) << 32) |
                (std::uint64_t(e.pred.start) << 8) | e.pred.end);
        hx.feed((std::uint64_t(e.isWrite) << 2) |
                (std::uint64_t(e.upgrade) << 1) |
                std::uint64_t(e.upgradeBroken));
        hx.feed(e.pc);
        hx.feed(e.accessAddr);
        hx.feed(e.storeValue);
    });

    // The containers below walk in ascending region order, FIFO within
    // a region: a canonical order without sorting.
    const WbBuffer &wbs = l1.writebackBuffer();
    hx.feed(wbs.pendingCount());
    wbs.forEach([&](Addr region, const PendingWb &wb) {
        hx.feed(region);
        hx.feed((std::uint64_t(wb.seg.range.start) << 8) |
                wb.seg.range.end);
        for (unsigned w = 0; w < wb.seg.words.size(); ++w)
            hx.feed(wb.seg.words[w]);
        hx.feed((std::uint64_t(wb.touched) << 2) |
                (std::uint64_t(wb.last) << 1) |
                std::uint64_t(wb.demoteOwner));
    });
}

void
feedDir(Hasher &hx, DirController &dir, FingerprintScratch &scratch)
{
    std::vector<DirController::EntrySnap> &entries = scratch.entries;
    entries.clear();
    dir.forEachEntry([&](const DirController::EntrySnap &e) {
        entries.push_back(e);
    });
    std::sort(entries.begin(), entries.end(),
              [](const DirController::EntrySnap &a,
                 const DirController::EntrySnap &b) {
                  return std::tie(a.setIndex, a.lruStamp) <
                         std::tie(b.setIndex, b.lruStamp);
              });
    // Sharer sets: word 0 always (bit-identical to the old single-
    // uint64_t feed for <=64-core scenarios, so memoization digests
    // are unchanged), high words only when a core above 63 is set.
    const auto feedSet = [&hx](const CoreSet &s) {
        hx.feed(s.raw());
        if (s.highAny()) {
            for (unsigned i = 1; i < CoreSet::kWords; ++i)
                hx.feed(s.word(i));
        }
    };
    hx.feed(entries.size());
    for (const auto &e : entries) {
        hx.feed(e.setIndex);
        hx.feed(e.region);
        hx.feed((std::uint64_t(e.filling) << 1) | std::uint64_t(e.dirty));
        feedSet(e.readers);
        feedSet(e.writers);
        for (unsigned w = 0; w < e.wordCount; ++w)
            hx.feed(e.words[w]);
    }

    std::size_t txns = 0;
    dir.forEachTxn([&](Addr, const DirController::Txn &) { ++txns; });
    hx.feed(txns);
    dir.forEachTxn([&](Addr region, const DirController::Txn &t) {
        const bool recall = t.kind == DirController::Txn::Kind::Recall;
        hx.feed(region);
        hx.feed(static_cast<std::uint64_t>(t.reqType));
        hx.feed((std::uint64_t(t.requester) << 24) |
                (std::uint64_t(t.reqRange.start) << 16) |
                (std::uint64_t(t.reqRange.end) << 8) | t.pending);
        hx.feed((std::uint64_t(recall) << 4) |
                (std::uint64_t(t.upgrade) << 3) |
                (std::uint64_t(t.waitingUnblock) << 2) |
                (std::uint64_t(t.directSupplied) << 1) |
                std::uint64_t(t.unblocked));
        hx.feed(t.parentRegion);
    });

    std::size_t waits = 0;
    dir.forEachWaitingMsg([&](Addr, const CoherenceMsg &) { ++waits; });
    hx.feed(waits);
    dir.forEachWaitingMsg([&](Addr region, const CoherenceMsg &m) {
        hx.feed(region);
        hx.feed(m.fingerprint());
    });
}

} // namespace

std::uint64_t
fingerprintSystem(System &sys, const std::vector<Addr> &regions,
                  const std::vector<unsigned> &progress,
                  FingerprintScratch &scratch)
{
    const SystemConfig &cfg = sys.config();
    Hasher hx;

    hx.feed(progress.size());
    for (const unsigned p : progress)
        hx.feed(p);

    for (CoreId c = 0; c < cfg.numCores; ++c)
        feedL1(hx, sys.l1(c), scratch);
    for (TileId t = 0; t < cfg.l2Tiles; ++t)
        feedDir(hx, sys.dir(t), scratch);

    // Parked messages: channels in ascending (src,dst) order, FIFO
    // within a channel — the canonical in-flight multiset.
    sys.mesh().forEachParkedChannel(
        [&](unsigned src, unsigned dst, std::span<const Mesh::Parked> chan) {
            hx.feed((std::uint64_t(src) << 32) | dst);
            hx.feed(chan.size());
            for (const Mesh::Parked &p : chan)
                hx.feed(p.value.fingerprint());
        });

    for (const Addr region : regions) {
        for (unsigned w = 0; w < cfg.regionWords(); ++w) {
            const Addr addr = region + static_cast<Addr>(w) * kWordBytes;
            hx.feed(sys.goldenMemory().expected(addr));
            hx.feed(sys.memoryImage().read(addr));
        }
    }
    return hx.h;
}

} // namespace protozoa::check
