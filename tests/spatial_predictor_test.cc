/**
 * @file
 * Unit tests for the fetch-granularity policies of FetchPredictor, in
 * particular the Amoeba PC-indexed spatial predictor's learning
 * behaviour.
 */

#include <gtest/gtest.h>

#include "cache/fetch_predictor.hh"
#include "common/rng.hh"

namespace protozoa {
namespace {

constexpr unsigned kRegionWords = 8;

/** A machine running @p kind over regions of @p region_words words. */
SystemConfig
policy(PredictorKind kind, unsigned region_words = kRegionWords)
{
    SystemConfig cfg;
    cfg.predictor = kind;
    cfg.regionBytes = region_words * kWordBytes;
    return cfg;
}

FetchPredictor
pcSpatial(unsigned region_words = kRegionWords)
{
    return FetchPredictor(policy(PredictorKind::PcSpatial, region_words));
}

TEST(FullRegionPolicy, AlwaysFullRegion)
{
    const FetchPredictor p(policy(PredictorKind::FullRegion));
    EXPECT_EQ(p.predict(0x1, 3, WordRange(3, 3)), WordRange(0, 7));
    const FetchPredictor q(policy(PredictorKind::FullRegion, 4));
    EXPECT_EQ(q.predict(0x2, 0, WordRange(0, 0)), WordRange(0, 3));
}

TEST(FixedPolicy, AlignedChunks)
{
    SystemConfig cfg = policy(PredictorKind::Fixed);
    cfg.fixedFetchWords = 4;
    const FetchPredictor p(cfg);
    EXPECT_EQ(p.predict(0, 1, WordRange(1, 1)), WordRange(0, 3));
    EXPECT_EQ(p.predict(0, 5, WordRange(5, 5)), WordRange(4, 7));
}

TEST(FixedPolicy, ClampsToRegion)
{
    SystemConfig cfg = policy(PredictorKind::Fixed);
    cfg.fixedFetchWords = 16;
    const FetchPredictor p(cfg);
    EXPECT_EQ(p.predict(0, 2, WordRange(2, 2)), WordRange(0, 7));
}

TEST(WordOnlyPolicy, ExactlyTheNeed)
{
    const FetchPredictor p(policy(PredictorKind::WordOnly));
    EXPECT_EQ(p.predict(0, 6, WordRange(6, 6)), WordRange(6, 6));
}

// Satellite regression: learn() computed the touched-extent high bit
// with a hardcoded 31u (assuming a 32-bit mask). The top word of a
// 16-word (128-byte) region must train and predict correctly for any
// WordMask width.
TEST(PcSpatialPredictor, LearnsTopWordOfSixteenWordRegion)
{
    FetchPredictor p = pcSpatial(16);
    p.learn(0xc0, 15, WordMask(1) << 15, WordRange(0, 15));
    EXPECT_EQ(p.predict(0xc0, 15, WordRange(15, 15)), WordRange(15, 15));

    // Runs touching the full 16 words learn the full extent.
    FetchPredictor q = pcSpatial(16);
    q.learn(0xd0, 0, static_cast<WordMask>(0xffff), WordRange(0, 15));
    EXPECT_EQ(q.predict(0xd0, 0, WordRange(0, 0)), WordRange(0, 15));
}

TEST(PcSpatialPredictor, ColdPredictsFullRegion)
{
    FetchPredictor p = pcSpatial();
    EXPECT_EQ(p.predict(0x40, 3, WordRange(3, 3)),
              WordRange(0, 7));
}

TEST(PcSpatialPredictor, LearnsSingleWordPattern)
{
    FetchPredictor p = pcSpatial();
    p.learn(0x40, 3, WordMask(1) << 3, WordRange(0, 7));
    EXPECT_EQ(p.predict(0x40, 5, WordRange(5, 5)),
              WordRange(5, 5));
}

TEST(PcSpatialPredictor, LearnsForwardRuns)
{
    FetchPredictor p = pcSpatial();
    // Block anchored at word 0, words 0..3 touched.
    p.learn(0x80, 0, 0b1111, WordRange(0, 7));
    EXPECT_EQ(p.predict(0x80, 0, WordRange(0, 0)),
              WordRange(0, 3));
    // Prediction is anchored at the miss word.
    EXPECT_EQ(p.predict(0x80, 4, WordRange(4, 4)),
              WordRange(4, 7));
}

TEST(PcSpatialPredictor, LearnsBackwardExtent)
{
    FetchPredictor p = pcSpatial();
    // Miss word 5; words 2..5 touched => left extent 3.
    p.learn(0x90, 5, 0b111100, WordRange(0, 7));
    EXPECT_EQ(p.predict(0x90, 5, WordRange(5, 5)),
              WordRange(2, 5));
}

TEST(PcSpatialPredictor, GrowsImmediately)
{
    FetchPredictor p = pcSpatial();
    p.learn(0xa0, 0, 0b1, WordRange(0, 0));
    EXPECT_EQ(p.predict(0xa0, 0, WordRange(0, 0)),
              WordRange(0, 0));
    p.learn(0xa0, 0, 0b11111111, WordRange(0, 7));
    EXPECT_EQ(p.predict(0xa0, 0, WordRange(0, 0)),
              WordRange(0, 7));
}

TEST(PcSpatialPredictor, ShrinksByEwma)
{
    FetchPredictor p = pcSpatial();
    p.learn(0xb0, 0, 0xff, WordRange(0, 7));   // right extent 7
    p.learn(0xb0, 0, 0b1, WordRange(0, 7));    // right extent 0
    // EWMA: (7 + 0) / 2 = 3.
    EXPECT_EQ(p.predict(0xb0, 0, WordRange(0, 0)),
              WordRange(0, 3));
    p.learn(0xb0, 0, 0b1, WordRange(0, 3));
    p.learn(0xb0, 0, 0b1, WordRange(0, 1));
    p.learn(0xb0, 0, 0b1, WordRange(0, 0));
    EXPECT_EQ(p.predict(0xb0, 0, WordRange(0, 0)),
              WordRange(0, 0));
}

TEST(PcSpatialPredictor, UntouchedDeathLearnsMinimal)
{
    FetchPredictor p = pcSpatial();
    // Block died without any touch (e.g. invalidated immediately).
    p.learn(0xc0, 4, 0, WordRange(0, 7));
    EXPECT_EQ(p.predict(0xc0, 4, WordRange(4, 4)),
              WordRange(4, 4));
}

TEST(PcSpatialPredictor, PredictionAlwaysCoversNeed)
{
    FetchPredictor p = pcSpatial();
    p.learn(0xd0, 7, WordMask(1) << 7, WordRange(0, 7));
    // Learned 0/0 extents, but the need must still be covered.
    EXPECT_EQ(p.predict(0xd0, 2, WordRange(2, 2)),
              WordRange(2, 2));
}

TEST(PcSpatialPredictor, ClampsAtRegionEdges)
{
    FetchPredictor p = pcSpatial();
    p.learn(0xe0, 4, 0xff, WordRange(0, 7));   // extents 4 left, 3 right
    // Miss near the left edge: left extent clamps to 0.
    EXPECT_EQ(p.predict(0xe0, 1, WordRange(1, 1)),
              WordRange(0, 4));
    // Miss near the right edge: right extent clamps to 7.
    EXPECT_EQ(p.predict(0xe0, 6, WordRange(6, 6)),
              WordRange(2, 7));
}

TEST(PcSpatialPredictor, DistinctPcsAreIndependent)
{
    FetchPredictor p = pcSpatial();
    p.learn(0x100, 0, 0b1, WordRange(0, 7));
    EXPECT_EQ(p.predict(0x100, 0, WordRange(0, 0)),
              WordRange(0, 0));
    // A different PC is still cold.
    EXPECT_EQ(p.predict(0x200, 0, WordRange(0, 0)),
              WordRange(0, 7));
}

/**
 * Sparse snapshot round trip. The table index is the low bits of
 * (pc >> 2) times an odd constant, so PCs 4k for k below the table
 * size hit every index exactly once.
 */
TEST(PcSpatialPredictor, SnapshotRoundTripPredictsIdentically)
{
    constexpr unsigned kEntries = FetchPredictor::kTableEntries;
    FetchPredictor trained = pcSpatial();
    Rng rng(41);
    for (unsigned i = 0; i < 700; ++i) {
        const Pc pc = 4 * rng.below(kEntries);
        const unsigned miss = static_cast<unsigned>(rng.below(kRegionWords));
        const auto touched = static_cast<WordMask>(rng.below(256));
        trained.learn(pc, miss, touched, WordRange(0, kRegionWords - 1));
    }
    Serializer img;
    trained.saveState(img);

    // Restore over a differently trained table: every entry, trained
    // or not, must come from the image.
    FetchPredictor restored = pcSpatial();
    for (unsigned k = 0; k < kEntries; k += 3)
        restored.learn(4 * k, 4, 0b10000, WordRange(0, kRegionWords - 1));
    Deserializer d(img.bytes().data(), img.size());
    ASSERT_TRUE(restored.restoreState(d));
    EXPECT_TRUE(d.atEnd());

    unsigned cold = 0;
    for (unsigned k = 0; k < kEntries; ++k) {
        for (unsigned miss = 0; miss < kRegionWords; ++miss) {
            const WordRange need(miss, miss);
            EXPECT_EQ(restored.predict(4 * k, miss, need),
                      trained.predict(4 * k, miss, need))
                << "index of pc " << 4 * k << ", miss word " << miss;
        }
        cold += trained.predict(4 * k, 3, WordRange(3, 3)) ==
                WordRange::full(kRegionWords);
    }
    // Both trained and untrained entries were compared.
    EXPECT_GT(cold, 0u);
    EXPECT_LT(cold, kEntries);

    // Only trained entries are written: 6 bytes each after the header.
    Serializer again;
    restored.saveState(again);
    EXPECT_EQ(again.bytes(), img.bytes());
    EXPECT_LT(img.size(), 8 + 6 * std::size_t(kEntries));
}

/**
 * A restore forgets every entry the table had trained, whatever PCs
 * trained it: restored over a table trained on other PCs, an image
 * predicts and re-saves exactly as it does in a fresh predictor. An
 * entry or a trained-entry mark left over from before the restore
 * shows up in one of the two.
 */
TEST(PcSpatialPredictor, RestoreIntoTrainedTableMatchesFresh)
{
    constexpr unsigned kEntries = FetchPredictor::kTableEntries;
    const WordRange region(0, kRegionWords - 1);
    // The image trains the indices of PCs 4k for even k below 64.
    FetchPredictor source = pcSpatial();
    for (unsigned k = 0; k < 64; k += 2)
        source.learn(4 * k, k % kRegionWords, 0b110, region);
    Serializer img;
    source.saveState(img);

    FetchPredictor fresh = pcSpatial();
    Deserializer df(img.bytes().data(), img.size());
    ASSERT_TRUE(fresh.restoreState(df));

    // Trained on the odd k and on a stretch of the table the image
    // leaves untrained, then restored twice: once from its own image
    // and then from the source's.
    FetchPredictor used = pcSpatial();
    Rng rng(77);
    for (unsigned i = 0; i < 900; ++i) {
        const unsigned k =
            1 + 2 * static_cast<unsigned>(rng.below(kEntries / 2));
        used.learn(4 * k, static_cast<unsigned>(rng.below(kRegionWords)),
                   static_cast<WordMask>(rng.below(256)), region);
    }
    Serializer own;
    used.saveState(own);
    for (unsigned k = 0; k < 64; k += 2)
        used.learn(4 * k, 1, 0b1000000, region);
    Deserializer du0(own.bytes().data(), own.size());
    ASSERT_TRUE(used.restoreState(du0));
    for (unsigned k = 300; k < 400; ++k)
        used.learn(4 * k, 2, 0b1, region);
    Deserializer du(img.bytes().data(), img.size());
    ASSERT_TRUE(used.restoreState(du));
    EXPECT_TRUE(du.atEnd());

    for (unsigned k = 0; k < kEntries; ++k) {
        for (unsigned miss = 0; miss < kRegionWords; ++miss) {
            const WordRange need(miss, miss);
            EXPECT_EQ(used.predict(4 * k, miss, need),
                      fresh.predict(4 * k, miss, need))
                << "index of pc " << 4 * k << ", miss word " << miss;
        }
    }
    Serializer a;
    Serializer b;
    used.saveState(a);
    fresh.saveState(b);
    EXPECT_EQ(a.bytes(), b.bytes());
    EXPECT_EQ(a.bytes(), img.bytes());
}

/**
 * Only PcSpatial learns and has state: the other policies predict the
 * same after any training, save no bytes and restore from none.
 */
TEST(FetchPredictor, OnlyPcSpatialLearnsAndSaves)
{
    for (const PredictorKind kind :
         {PredictorKind::FullRegion, PredictorKind::Fixed,
          PredictorKind::PcSpatial, PredictorKind::WordOnly}) {
        const bool pc_spatial = kind == PredictorKind::PcSpatial;
        FetchPredictor p(policy(kind));
        EXPECT_EQ(p.learns(), pc_spatial);
        const WordRange before = p.predict(0x40, 3, WordRange(3, 3));
        p.learn(0x40, 3, WordMask(1) << 3, WordRange(0, 7));
        EXPECT_EQ(p.predict(0x40, 3, WordRange(3, 3)) == before,
                  !pc_spatial);

        Serializer img;
        p.saveState(img);
        EXPECT_EQ(img.size() == 0, !pc_spatial);
        FetchPredictor fresh(policy(kind));
        Deserializer d(img.bytes().data(), img.size());
        ASSERT_TRUE(fresh.restoreState(d));
        EXPECT_TRUE(d.atEnd());
        EXPECT_EQ(fresh.predict(0x40, 3, WordRange(3, 3)),
                  p.predict(0x40, 3, WordRange(3, 3)));
    }
}

} // namespace
} // namespace protozoa
