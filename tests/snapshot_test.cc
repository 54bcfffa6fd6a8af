/**
 * @file
 * Checkpoint/restore property tests: the snapshot subsystem's contract
 * is digest-locked resumption — save at cycle C, restore into a System
 * of the same config (fresh, or already run to another cycle), run to
 * completion, and the full stats digest is bit-identical to the
 * uninterrupted run. The tests exercise that contract across all four
 * protocols, with fault jitter on and off, at randomized checkpoint
 * cycles.
 *
 * The rejection half: corrupted, truncated, version-skewed and
 * config-mismatched images must be refused with a clear error — never
 * undefined behavior, never a half-restored System. That includes
 * each consistency rule of the sparse directory, predictor and mesh
 * sections.
 *
 * Images are deterministic (two identical runs save identical bytes)
 * and hold only the valid L2 entries, so a 16-core image is a small
 * fraction of the machine's L2 capacity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "check/state_fingerprint.hh"
#include "common/serialize.hh"
#include "protocol_driver.hh"
#include "protozoa/protozoa.hh"
#include "snapshot/snapshot.hh"
#include "stats_digest.hh"
#include "workload/benchmarks.hh"
#include "workload/streaming_trace.hh"

namespace protozoa {
namespace {

constexpr double kScale = 0.04;

Workload
bench(const SystemConfig &cfg, const char *name = "apache")
{
    return findBenchmark(name).gen(cfg, kScale);
}

std::uint64_t
digestOf(const RunStats &s)
{
    Digest d;
    addStats(d, s);
    return d.value();
}

/** Uninterrupted reference run. */
RunStats
referenceRun(const SystemConfig &cfg, const char *name = "apache")
{
    System sys(cfg, bench(cfg, name));
    sys.run();
    return sys.report();
}

/**
 * Run to @p stop, snapshot, restore the bytes into a fresh System (the
 * in-process equivalent of a fresh process: nothing is shared but the
 * byte image), finish both, and require that the restored run's digest
 * matches the uninterrupted one AND the donor's own resumed run.
 */
void
roundTrip(const SystemConfig &cfg, Cycle stop, const char *name = "apache")
{
    const std::uint64_t want = digestOf(referenceRun(cfg, name));

    System donor(cfg, bench(cfg, name));
    donor.runTo(stop);

    Serializer img;
    std::string err;
    ASSERT_TRUE(donor.saveSnapshot(img, &err)) << err;

    System fresh(cfg, bench(cfg, name));
    Deserializer d(img.bytes().data(), img.size());
    ASSERT_TRUE(fresh.restoreSnapshot(d, &err)) << err;
    fresh.run();
    EXPECT_EQ(want, digestOf(fresh.report()))
        << "restored run diverged (stop=" << stop << ")";

    donor.run();
    EXPECT_EQ(want, digestOf(donor.report()))
        << "donor resume diverged (stop=" << stop << ")";
}

TEST(Snapshot, DigestLockedAcrossProtocols)
{
    for (ProtocolKind kind :
         {ProtocolKind::MESI, ProtocolKind::ProtozoaSW,
          ProtocolKind::ProtozoaSWMR, ProtocolKind::ProtozoaMW}) {
        SystemConfig cfg;
        cfg.protocol = kind;
        cfg.seed = 11;
        roundTrip(cfg, 20000);
    }
}

TEST(Snapshot, DigestLockedAtRandomizedCyclesUnderJitter)
{
    // Deterministic "random" checkpoint cycles: a seeded LCG walk over
    // an interesting range, prime-ish offsets so stops land mid-burst.
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (bool jitter : {false, true}) {
        SystemConfig cfg;
        cfg.protocol = ProtocolKind::ProtozoaMW;
        cfg.faultInjection = jitter;
        cfg.seed = 23;
        for (int i = 0; i < 4; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            const Cycle stop = 3000 + (x >> 40) % 60000;
            roundTrip(cfg, stop);
        }
    }
}

TEST(Snapshot, ChainedCheckpointsStayLocked)
{
    // Checkpoint, restore, run a bit, checkpoint the restored system,
    // restore again — digests must survive arbitrary chaining.
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaMW;
    cfg.seed = 5;
    const std::uint64_t want = digestOf(referenceRun(cfg));

    System a(cfg, bench(cfg));
    a.runTo(8000);
    Serializer img1;
    std::string err;
    ASSERT_TRUE(a.saveSnapshot(img1, &err)) << err;

    System b(cfg, bench(cfg));
    Deserializer d1(img1.bytes().data(), img1.size());
    ASSERT_TRUE(b.restoreSnapshot(d1, &err)) << err;
    b.runTo(30000);
    Serializer img2;
    ASSERT_TRUE(b.saveSnapshot(img2, &err)) << err;

    System c(cfg, bench(cfg));
    Deserializer d2(img2.bytes().data(), img2.size());
    ASSERT_TRUE(c.restoreSnapshot(d2, &err)) << err;
    c.run();
    EXPECT_EQ(want, digestOf(c.report()));
}

TEST(Snapshot, FileRoundTrip)
{
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaSW;
    cfg.seed = 7;
    const std::uint64_t want = digestOf(referenceRun(cfg));

    const std::string path = "snapshot_test_roundtrip.pzsn";
    System donor(cfg, bench(cfg));
    donor.runTo(15000);
    std::string err;
    ASSERT_TRUE(donor.saveSnapshotFile(path, &err)) << err;

    System fresh(cfg, bench(cfg));
    ASSERT_TRUE(fresh.restoreSnapshotFile(path, &err)) << err;
    fresh.run();
    EXPECT_EQ(want, digestOf(fresh.report()));
    std::remove(path.c_str());
}

TEST(Snapshot, StreamingWorkloadRoundTrip)
{
    // Generator-backed streams must reposition via seekTo on restore.
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaMW;
    cfg.seed = 31;
    const std::uint64_t kRecs = 6000;

    System ref(cfg, makeSyntheticStreamWorkload(31, cfg.numCores, kRecs));
    ref.run();
    const std::uint64_t want = digestOf(ref.report());

    System donor(cfg, makeSyntheticStreamWorkload(31, cfg.numCores, kRecs));
    donor.runTo(10000);
    Serializer img;
    std::string err;
    ASSERT_TRUE(donor.saveSnapshot(img, &err)) << err;

    System fresh(cfg, makeSyntheticStreamWorkload(31, cfg.numCores, kRecs));
    Deserializer d(img.bytes().data(), img.size());
    ASSERT_TRUE(fresh.restoreSnapshot(d, &err)) << err;
    fresh.run();
    EXPECT_EQ(want, digestOf(fresh.report()));
}

// ---- rejection: corrupt / truncated / skewed images -------------------

Serializer
saveAt(const SystemConfig &cfg, Cycle stop)
{
    System donor(cfg, bench(cfg));
    donor.runTo(stop);
    Serializer img;
    std::string err;
    EXPECT_TRUE(donor.saveSnapshot(img, &err)) << err;
    return img;
}

/** Restore must fail with a non-empty error; the target is discarded. */
void
expectRefusedBy(System &fresh, const std::vector<std::uint8_t> &img)
{
    Deserializer d(img.data(), img.size());
    std::string err;
    EXPECT_FALSE(fresh.restoreSnapshot(d, &err));
    EXPECT_FALSE(err.empty());
}

void
expectRejected(const SystemConfig &cfg, const std::vector<std::uint8_t> &img)
{
    System fresh(cfg, bench(cfg));
    expectRefusedBy(fresh, img);
}

TEST(SnapshotReject, BadMagic)
{
    SystemConfig cfg;
    cfg.seed = 3;
    Serializer img = saveAt(cfg, 5000);
    std::vector<std::uint8_t> bytes = img.bytes();
    bytes[0] ^= 0xff;
    expectRejected(cfg, bytes);
}

TEST(SnapshotReject, VersionSkew)
{
    SystemConfig cfg;
    cfg.seed = 3;
    Serializer img = saveAt(cfg, 5000);
    // The version field follows the magic. A newer image, a v7 image
    // (which carried a windowed-stats section), a v6 image (dense
    // coverage matrices), a v5 image (whose parked messages each
    // carried a u64 hash) and a v4 image (which still carried the
    // engine-mode byte) are all refused before any section is read.
    for (const std::uint32_t ver :
         {kSnapshotVersion + 1, 7u, 6u, 5u, 4u}) {
        std::vector<std::uint8_t> bytes = img.bytes();
        std::memcpy(&bytes[4], &ver, sizeof(ver));
        System fresh(cfg, bench(cfg));
        Deserializer d(bytes.data(), bytes.size());
        std::string err;
        EXPECT_FALSE(fresh.restoreSnapshot(d, &err));
        EXPECT_NE(err.find("format v" + std::to_string(ver)),
                  std::string::npos)
            << err;
    }
}

TEST(SnapshotReject, ConfigMismatch)
{
    SystemConfig cfg;
    cfg.seed = 3;
    Serializer img = saveAt(cfg, 5000);

    SystemConfig other = cfg;
    other.l1Sets = 128;
    System fresh(other, bench(other));
    Deserializer d(img.bytes().data(), img.size());
    std::string err;
    EXPECT_FALSE(fresh.restoreSnapshot(d, &err));
    EXPECT_NE(err.find("configuration"), std::string::npos) << err;
}

/**
 * Restore overwrites in place. One image restored into a fresh System
 * and into Systems already run short of its cycle, past it and to the
 * end must re-save the same bytes, and every copy must finish with
 * the uninterrupted run's digest. Fault jitter fills both mesh
 * matrices; by the later stops the golden store has outgrown its
 * first page table.
 */
TEST(Snapshot, RestoreIntoUsedSystemMatchesFresh)
{
    for (ProtocolKind kind :
         {ProtocolKind::MESI, ProtocolKind::ProtozoaMW}) {
        SystemConfig cfg;
        cfg.protocol = kind;
        cfg.seed = 3;
        cfg.faultInjection = true;
        const std::uint64_t want = digestOf(referenceRun(cfg));
        const Serializer img = saveAt(cfg, 20000);
        std::string err;

        System fresh(cfg, bench(cfg));
        Deserializer d(img.bytes().data(), img.size());
        ASSERT_TRUE(fresh.restoreSnapshot(d, &err)) << err;
        Serializer resaved;
        ASSERT_TRUE(fresh.saveSnapshot(resaved, &err)) << err;

        for (const Cycle other :
             {Cycle(5000), Cycle(60000), System::kNoStop}) {
            System used(cfg, bench(cfg));
            used.runTo(other);
            Deserializer du(img.bytes().data(), img.size());
            ASSERT_TRUE(used.restoreSnapshot(du, &err)) << err;
            Serializer again;
            ASSERT_TRUE(used.saveSnapshot(again, &err)) << err;
            EXPECT_EQ(again.bytes(), resaved.bytes())
                << protocolName(kind) << ", target run to " << other;
            used.run();
            EXPECT_EQ(digestOf(used.report()), want)
                << protocolName(kind) << ", target run to " << other;
        }
        fresh.run();
        EXPECT_EQ(digestOf(fresh.report()), want) << protocolName(kind);
    }
}

TEST(SnapshotReject, TruncationAtEveryRegion)
{
    // Chop the image at a spread of offsets; every prefix must be
    // refused cleanly. (Every byte would be O(n^2); a stride plus the
    // boundaries near the header catches region-boundary bugs.)
    SystemConfig cfg;
    cfg.seed = 9;
    Serializer img = saveAt(cfg, 8000);
    const std::vector<std::uint8_t> &bytes = img.bytes();
    ASSERT_GT(bytes.size(), 64u);

    std::vector<std::size_t> cuts = {0, 1, 3, 4, 7, 8, 12, 16, 17, 24, 32};
    for (std::size_t off = 48; off < bytes.size(); off += bytes.size() / 37)
        cuts.push_back(off);
    cuts.push_back(bytes.size() - 1);

    for (std::size_t cut : cuts) {
        std::vector<std::uint8_t> trunc(bytes.begin(), bytes.begin() + cut);
        expectRejected(cfg, trunc);
    }
}

TEST(SnapshotReject, TrailingGarbage)
{
    SystemConfig cfg;
    cfg.seed = 9;
    Serializer img = saveAt(cfg, 8000);
    std::vector<std::uint8_t> bytes = img.bytes();
    bytes.push_back(0xab);
    bytes.push_back(0xcd);
    System fresh(cfg, bench(cfg));
    Deserializer d(bytes.data(), bytes.size());
    std::string err;
    EXPECT_FALSE(fresh.restoreSnapshot(d, &err));
    EXPECT_NE(err.find("trailing"), std::string::npos) << err;
}

TEST(SnapshotReject, MissingFile)
{
    SystemConfig cfg;
    cfg.seed = 9;
    System fresh(cfg, bench(cfg));
    std::string err;
    EXPECT_FALSE(
        fresh.restoreSnapshotFile("no_such_snapshot_file.pzsn", &err));
    EXPECT_FALSE(err.empty());
}

// ---- the sparse directory section ------------------------------------

/**
 * A mid-run image with the offsets of tile 0's directory entries. The
 * entry layout is DirController::saveState's: u32 slot, u64 region,
 * u8 filling, u8 dirty, u64 LRU stamp, readers, writers, u8 wordCount,
 * then wordCount words.
 */
struct DirImage
{
    std::vector<std::uint8_t> bytes;
    std::size_t countAt = 0;
    std::vector<std::size_t> entryAt;
    std::size_t endAt = 0;
};

constexpr std::size_t kFillingAt = 4 + 8;
constexpr std::size_t kDirtyAt = kFillingAt + 1;
constexpr std::size_t kReadersAt = kDirtyAt + 1 + 8;
constexpr std::size_t kWordCountAt = kReadersAt + 2 * sizeof(CoreSet);
constexpr std::size_t kWordsAt = kWordCountAt + 1;

std::uint32_t
slotsPerTile(const SystemConfig &cfg)
{
    const std::uint64_t sets =
        cfg.l2BytesPerTile / cfg.regionBytes / cfg.l2Assoc;
    return static_cast<std::uint32_t>(sets * cfg.l2Assoc);
}

std::uint32_t
getU32(const std::vector<std::uint8_t> &b, std::size_t at)
{
    std::uint32_t v = 0;
    std::memcpy(&v, &b[at], sizeof(v));
    return v;
}

void
putU32(std::vector<std::uint8_t> &b, std::size_t at, std::uint32_t v)
{
    std::memcpy(&b[at], &v, sizeof(v));
}

DirImage
dirImage(const SystemConfig &cfg, Cycle stop)
{
    System donor(cfg, bench(cfg));
    donor.runTo(stop);
    Serializer img;
    std::string err;
    EXPECT_TRUE(donor.saveSnapshot(img, &err)) << err;

    // Tile 0's section appears verbatim in the image; its entry count
    // follows the stats, lruClock, busyUntil, 4 RNG words and the
    // (setsPerTile, l2Assoc) geometry pair.
    Serializer sec;
    donor.dir(0).saveState(sec);
    DirImage im;
    im.bytes = img.bytes();
    const auto at = std::search(im.bytes.begin(), im.bytes.end(),
                                sec.bytes().begin(), sec.bytes().end());
    EXPECT_NE(at, im.bytes.end());
    if (at == im.bytes.end())
        return im;
    im.countAt = static_cast<std::size_t>(at - im.bytes.begin()) +
                 sizeof(DirStats) + 8 + 8 + 4 * 8 + 4 + 4;
    std::size_t off = im.countAt + 4;
    for (std::uint32_t i = 0; i < getU32(im.bytes, im.countAt); ++i) {
        im.entryAt.push_back(off);
        off += kWordsAt +
               im.bytes[off + kWordCountAt] * sizeof(std::uint64_t);
    }
    im.endAt = off;
    return im;
}

TEST(SnapshotReject, DirEntryCountAboveCapacity)
{
    SystemConfig cfg;
    cfg.seed = 3;
    DirImage im = dirImage(cfg, 5000);
    ASSERT_FALSE(im.entryAt.empty());
    putU32(im.bytes, im.countAt, slotsPerTile(cfg) + 1);
    expectRejected(cfg, im.bytes);
}

TEST(SnapshotReject, DirSlotOutOfRange)
{
    SystemConfig cfg;
    cfg.seed = 3;
    DirImage im = dirImage(cfg, 5000);
    ASSERT_FALSE(im.entryAt.empty());
    putU32(im.bytes, im.entryAt.back(), slotsPerTile(cfg));
    expectRejected(cfg, im.bytes);
}

TEST(SnapshotReject, DirSlotsNotAscending)
{
    // Swap the first two entries whole: each stays self-consistent
    // (its region still maps to its slot's set), only the order breaks.
    SystemConfig cfg;
    cfg.seed = 3;
    DirImage im = dirImage(cfg, 5000);
    ASSERT_GE(im.entryAt.size(), 2u);
    const std::size_t a = im.entryAt[0];
    const std::size_t b = im.entryAt[1];
    const std::size_t end = im.entryAt.size() > 2 ? im.entryAt[2] : im.endAt;
    std::rotate(im.bytes.begin() + a, im.bytes.begin() + b,
                im.bytes.begin() + end);
    expectRejected(cfg, im.bytes);
}

TEST(SnapshotReject, DirFlagByteNotZeroOrOne)
{
    SystemConfig cfg;
    cfg.seed = 3;
    const DirImage im = dirImage(cfg, 5000);
    ASSERT_FALSE(im.entryAt.empty());
    for (const std::size_t flag : {kFillingAt, kDirtyAt}) {
        for (const std::uint8_t v : {std::uint8_t(2), std::uint8_t(0xff)}) {
            std::vector<std::uint8_t> bytes = im.bytes;
            bytes[im.entryAt[0] + flag] = v;
            expectRejected(cfg, bytes);
        }
    }
}

TEST(SnapshotReject, DirSharerOutsideMachine)
{
    SystemConfig cfg;
    cfg.seed = 3;
    DirImage im = dirImage(cfg, 5000);
    ASSERT_FALSE(im.entryAt.empty());
    // Core numCores (16) as a reader of the first entry.
    im.bytes[im.entryAt[0] + kReadersAt + cfg.numCores / 8] |=
        std::uint8_t(1) << (cfg.numCores % 8);
    expectRejected(cfg, im.bytes);
}

TEST(SnapshotReject, DirFilledEntryWithoutWords)
{
    // A settled (not filling) entry always holds regionWords() words;
    // drop them and claim wordCount 0, keeping the stream aligned.
    SystemConfig cfg;
    cfg.seed = 3;
    DirImage im = dirImage(cfg, 5000);
    std::size_t victim = 0;
    for (const std::size_t at : im.entryAt) {
        if (im.bytes[at + kFillingAt] == 0) {
            victim = at;
            break;
        }
    }
    ASSERT_NE(victim, 0u);
    ASSERT_EQ(im.bytes[victim + kWordCountAt], cfg.regionWords());
    im.bytes[victim + kWordCountAt] = 0;
    im.bytes.erase(im.bytes.begin() + victim + kWordsAt,
                   im.bytes.begin() + victim + kWordsAt +
                       cfg.regionWords() * sizeof(std::uint64_t));
    expectRejected(cfg, im.bytes);
}

// ---- the sparse predictor section ------------------------------------

/**
 * A mid-run image with the offset of core 0's predictor section
 * (FetchPredictor::saveState): u32 table size, u32 count of
 * trained entries, then per entry u32 index, u8 left, u8 right.
 */
struct PredImage
{
    std::vector<std::uint8_t> bytes;
    std::size_t sizeAt = 0;
    std::uint32_t tableSize = 0;
    std::uint32_t count = 0;

    std::size_t entryAt(std::uint32_t i) const
    {
        return sizeAt + 8 + std::size_t(i) * (4 + 1 + 1);
    }
};

PredImage
predImage(const SystemConfig &cfg, Cycle stop)
{
    System donor(cfg, bench(cfg));
    donor.runTo(stop);
    Serializer img;
    std::string err;
    EXPECT_TRUE(donor.saveSnapshot(img, &err)) << err;

    Serializer sec;
    donor.l1(0).predictorPolicy().saveState(sec);
    PredImage im;
    im.bytes = img.bytes();
    const auto at = std::search(im.bytes.begin(), im.bytes.end(),
                                sec.bytes().begin(), sec.bytes().end());
    EXPECT_NE(at, im.bytes.end());
    if (at == im.bytes.end())
        return im;
    im.sizeAt = static_cast<std::size_t>(at - im.bytes.begin());
    im.tableSize = getU32(im.bytes, im.sizeAt);
    im.count = getU32(im.bytes, im.sizeAt + 4);
    return im;
}

SystemConfig
predCfg()
{
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaMW;
    cfg.seed = 3;
    return cfg;
}

constexpr Cycle kPredStop = 50000;

TEST(SnapshotReject, PredictorTableSizeMismatch)
{
    const PredImage im = predImage(predCfg(), kPredStop);
    ASSERT_GE(im.count, 2u);
    for (const std::uint32_t size : {im.tableSize - 1, im.tableSize + 1}) {
        std::vector<std::uint8_t> bytes = im.bytes;
        putU32(bytes, im.sizeAt, size);
        expectRejected(predCfg(), bytes);
    }
}

TEST(SnapshotReject, PredictorCountAboveTableSize)
{
    PredImage im = predImage(predCfg(), kPredStop);
    ASSERT_GE(im.count, 2u);
    putU32(im.bytes, im.sizeAt + 4, im.tableSize + 1);
    expectRejected(predCfg(), im.bytes);
}

TEST(SnapshotReject, PredictorIndexOutOfRange)
{
    PredImage im = predImage(predCfg(), kPredStop);
    ASSERT_GE(im.count, 2u);
    putU32(im.bytes, im.entryAt(im.count - 1), im.tableSize);
    expectRejected(predCfg(), im.bytes);
}

TEST(SnapshotReject, PredictorIndicesNotAscending)
{
    // Swap the first two entries whole: each stays in range, only the
    // order breaks.
    PredImage im = predImage(predCfg(), kPredStop);
    ASSERT_GE(im.count, 2u);
    std::rotate(im.bytes.begin() + im.entryAt(0),
                im.bytes.begin() + im.entryAt(1),
                im.bytes.begin() + im.entryAt(2));
    expectRejected(predCfg(), im.bytes);
}

TEST(SnapshotReject, PredictorExtentOutsideRegion)
{
    const PredImage im = predImage(predCfg(), kPredStop);
    ASSERT_GE(im.count, 2u);
    for (const std::size_t extent : {std::size_t(4), std::size_t(5)}) {
        std::vector<std::uint8_t> bytes = im.bytes;
        bytes[im.entryAt(0) + extent] =
            static_cast<std::uint8_t>(predCfg().regionWords());
        expectRejected(predCfg(), bytes);
    }
}

// ---- the sparse mesh section -----------------------------------------

/**
 * An image with the offsets inside its mesh section (Mesh::saveState):
 * NetStats; the lastArrival and pairSeq matrices, each u32 size, u32
 * count of non-zero entries, then per entry u32 index, u64 value;
 * u8 oracle; and under the oracle u32 channel count, then per channel
 * u32 id, u32 message count and the messages.
 */
struct MeshImage
{
    std::vector<std::uint8_t> bytes;
    /** lastArrival's size field. */
    std::size_t arrivalAt = 0;
    std::uint32_t arrivalSize = 0;
    std::uint32_t arrivalCount = 0;
    /** Each parked channel's id field. */
    std::vector<std::size_t> channelAt;
    /** One past the last channel. */
    std::size_t endAt = 0;

    std::size_t entryAt(std::uint32_t i) const
    {
        return arrivalAt + 8 + std::size_t(i) * (4 + 8);
    }
};

constexpr std::size_t kParkedBytes = sizeof(CoherenceMsg);

MeshImage
meshImage(System &donor)
{
    Serializer img;
    std::string err;
    EXPECT_TRUE(donor.saveSnapshot(img, &err)) << err;

    Serializer sec;
    donor.mesh().saveState(sec);
    MeshImage im;
    im.bytes = img.bytes();
    const auto at = std::search(im.bytes.begin(), im.bytes.end(),
                                sec.bytes().begin(), sec.bytes().end());
    EXPECT_NE(at, im.bytes.end());
    if (at == im.bytes.end())
        return im;
    im.arrivalAt =
        static_cast<std::size_t>(at - im.bytes.begin()) + sizeof(NetStats);
    im.arrivalSize = getU32(im.bytes, im.arrivalAt);
    im.arrivalCount = getU32(im.bytes, im.arrivalAt + 4);
    const std::size_t seqAt = im.entryAt(im.arrivalCount);
    std::size_t off = seqAt + 8 + getU32(im.bytes, seqAt + 4) * (4 + 8);
    if (im.bytes[off++] == 0)
        return im;
    const std::uint32_t chans = getU32(im.bytes, off);
    off += 4;
    for (std::uint32_t c = 0; c < chans; ++c) {
        im.channelAt.push_back(off);
        off += 8 + getU32(im.bytes, off + 4) * kParkedBytes;
    }
    im.endAt = off;
    return im;
}

SystemConfig
pairCfg()
{
    SystemConfig cfg;
    cfg.seed = 3;
    return cfg;
}

/** A mid-run 16-core image: most lastArrival entries are non-zero. */
MeshImage
pairImage()
{
    System donor(pairCfg(), bench(pairCfg()));
    donor.runTo(5000);
    return meshImage(donor);
}

/** The explorer's scheduling mode on a 4x1 mesh. */
SystemConfig
oracleCfg()
{
    SystemConfig cfg;
    cfg.setMesh(4, 1);
    cfg.scheduleOracle = true;
    return cfg;
}

/** Distinct region stored to by core @p c. */
Addr
oracleAddr(CoreId c)
{
    return 0x40000000 + static_cast<Addr>(c) * 5 * 64;
}

/**
 * A store from every core, run until the event queue is dry: a
 * quiescent point with each core's request parked on its own channel.
 */
void
parkStores(System &sys)
{
    for (CoreId c = 0; c < sys.config().numCores; ++c) {
        MemAccess acc;
        acc.addr = oracleAddr(c);
        acc.isWrite = true;
        acc.storeValue = 0xa0 + c;
        acc.pc = 0x3000;
        sys.l1(c).requestAccess(acc);
    }
    sys.drain();
}

MeshImage
oracleImage()
{
    const SystemConfig cfg = oracleCfg();
    System donor(cfg, emptyWorkload(cfg.numCores));
    parkStores(donor);
    return meshImage(donor);
}

void
expectOracleRejected(const std::vector<std::uint8_t> &img)
{
    const SystemConfig cfg = oracleCfg();
    System fresh(cfg, emptyWorkload(cfg.numCores));
    expectRefusedBy(fresh, img);
}

/** Every parked message as (src, dst, fingerprint), in enumeration
 *  order. */
std::vector<std::tuple<unsigned, unsigned, std::uint64_t>>
parkedFrontier(System &sys)
{
    std::vector<std::tuple<unsigned, unsigned, std::uint64_t>> out;
    sys.mesh().forEachParkedChannel(
        [&](unsigned src, unsigned dst, std::span<const Mesh::Parked> chan) {
            for (const Mesh::Parked &p : chan)
                out.emplace_back(src, dst, p.value.fingerprint());
        });
    return out;
}

TEST(SnapshotReject, MeshPairIndexOutOfRange)
{
    MeshImage im = pairImage();
    ASSERT_GE(im.arrivalCount, 2u);
    putU32(im.bytes, im.entryAt(im.arrivalCount - 1), im.arrivalSize);
    expectRejected(pairCfg(), im.bytes);
}

TEST(SnapshotReject, MeshPairIndicesNotAscending)
{
    const MeshImage im = pairImage();
    ASSERT_GE(im.arrivalCount, 3u);
    // Swap the first two entries whole: each stays in range and
    // non-zero, only the order breaks.
    std::vector<std::uint8_t> swapped = im.bytes;
    std::rotate(swapped.begin() + im.entryAt(0),
                swapped.begin() + im.entryAt(1),
                swapped.begin() + im.entryAt(2));
    expectRejected(pairCfg(), swapped);
    // Repeat the first index.
    std::vector<std::uint8_t> repeated = im.bytes;
    putU32(repeated, im.entryAt(1), getU32(im.bytes, im.entryAt(0)));
    expectRejected(pairCfg(), repeated);
}

TEST(SnapshotReject, MeshPairZeroValue)
{
    MeshImage im = pairImage();
    ASSERT_GE(im.arrivalCount, 1u);
    std::fill_n(im.bytes.begin() + im.entryAt(0) + 4, 8, 0);
    expectRejected(pairCfg(), im.bytes);
}

TEST(SnapshotReject, MeshMatrixSizeMismatch)
{
    const SystemConfig cfg = pairCfg();
    const MeshImage im = pairImage();
    ASSERT_EQ(im.arrivalSize, cfg.numCores * cfg.numCores);
    for (const std::uint32_t size :
         {im.arrivalSize - 1, im.arrivalSize + 1}) {
        std::vector<std::uint8_t> bytes = im.bytes;
        putU32(bytes, im.arrivalAt, size);
        expectRejected(cfg, bytes);
    }
}

TEST(SnapshotReject, MeshChannelIdOutOfRange)
{
    MeshImage im = oracleImage();
    ASSERT_GE(im.channelAt.size(), 2u);
    const std::uint32_t nodes = oracleCfg().numCores;
    putU32(im.bytes, im.channelAt.back(), nodes * nodes);
    expectOracleRejected(im.bytes);
}

TEST(SnapshotReject, MeshChannelsNotAscending)
{
    const MeshImage im = oracleImage();
    ASSERT_GE(im.channelAt.size(), 2u);
    // Swap the first two channels whole: each stays self-consistent,
    // only the order breaks.
    const std::size_t end =
        im.channelAt.size() > 2 ? im.channelAt[2] : im.endAt;
    std::vector<std::uint8_t> swapped = im.bytes;
    std::rotate(swapped.begin() + im.channelAt[0],
                swapped.begin() + im.channelAt[1],
                swapped.begin() + end);
    expectOracleRejected(swapped);
    // Repeat the first channel's id.
    std::vector<std::uint8_t> repeated = im.bytes;
    putU32(repeated, im.channelAt[1], getU32(im.bytes, im.channelAt[0]));
    expectOracleRejected(repeated);
}

TEST(SnapshotReject, MeshEmptyChannel)
{
    // Claim 0 messages for the first channel and drop them, keeping
    // the stream aligned.
    MeshImage im = oracleImage();
    ASSERT_GE(im.channelAt.size(), 2u);
    const std::size_t at = im.channelAt[0];
    const std::uint32_t n = getU32(im.bytes, at + 4);
    ASSERT_GE(n, 1u);
    putU32(im.bytes, at + 4, 0);
    im.bytes.erase(im.bytes.begin() + at + 8,
                   im.bytes.begin() + at + 8 + n * kParkedBytes);
    expectOracleRejected(im.bytes);
}

// ---- the sparse coverage section -------------------------------------

/**
 * A mid-run image with the offsets inside its coverage section
 * (ConformanceCoverage::saveState): one seen byte per knob profile,
 * then the L1 and the directory matrices, each u32 cell count, u32
 * count of non-zero cells, then per non-zero cell u32 cell, u64 count.
 */
struct CoverageImage
{
    std::vector<std::uint8_t> bytes;
    /** The L1 matrix's cell-count field. */
    std::size_t l1At = 0;
    std::uint32_t l1Cells = 0;
    std::uint32_t l1Count = 0;

    /** Where the L1 matrix's @p i-th non-zero cell is written. */
    std::size_t cellAt(std::uint32_t i) const
    {
        return l1At + 8 + std::size_t(i) * (4 + 8);
    }
};

CoverageImage
coverageImage()
{
    System donor(pairCfg(), bench(pairCfg()));
    donor.runTo(5000);
    Serializer img;
    std::string err;
    EXPECT_TRUE(donor.saveSnapshot(img, &err)) << err;

    Serializer sec;
    donor.conformance().saveState(sec);
    CoverageImage im;
    im.bytes = img.bytes();
    const auto at = std::search(im.bytes.begin(), im.bytes.end(),
                                sec.bytes().begin(), sec.bytes().end());
    EXPECT_NE(at, im.bytes.end());
    if (at == im.bytes.end())
        return im;
    im.l1At = static_cast<std::size_t>(at - im.bytes.begin()) +
              kNumKnobProfiles;
    im.l1Cells = getU32(im.bytes, im.l1At);
    im.l1Count = getU32(im.bytes, im.l1At + 4);
    EXPECT_EQ(im.l1Cells,
              kNumKnobProfiles * kNumL1States * kNumL1Events * kNumL1States);
    return im;
}

TEST(SnapshotReject, CoverageCellOutOfRange)
{
    const CoverageImage im = coverageImage();
    ASSERT_GE(im.l1Count, 1u);
    // The last cell moves past the matrix; the order still ascends.
    std::vector<std::uint8_t> bytes = im.bytes;
    putU32(bytes, im.cellAt(im.l1Count - 1), im.l1Cells);
    expectRejected(pairCfg(), bytes);
}

TEST(SnapshotReject, CoverageCellsNotAscending)
{
    const CoverageImage im = coverageImage();
    ASSERT_GE(im.l1Count, 2u);
    // The second cell repeats the first.
    std::vector<std::uint8_t> bytes = im.bytes;
    putU32(bytes, im.cellAt(1), getU32(bytes, im.cellAt(0)));
    expectRejected(pairCfg(), bytes);
}

TEST(SnapshotReject, CoverageZeroCount)
{
    const CoverageImage im = coverageImage();
    ASSERT_GE(im.l1Count, 1u);
    std::vector<std::uint8_t> bytes = im.bytes;
    const std::uint64_t zero = 0;
    std::memcpy(&bytes[im.cellAt(0) + 4], &zero, sizeof(zero));
    expectRejected(pairCfg(), bytes);
}

// ---- the event section and the message / access loaders -------------

/** One pending event as the snapshot writes it. */
struct PendingRecord
{
    Cycle when = 0;
    std::uint64_t seq = 0;
    EventKind kind = EventKind::CoreStep;
    std::uint16_t id = 0;
    std::vector<std::uint8_t> payload;

    bool operator==(const PendingRecord &) const = default;

    /** Kinds without a u16 core or tile id in the image. */
    bool
    hasId() const
    {
        return kind != EventKind::Deliver &&
               kind != EventKind::InvariantTick &&
               kind != EventKind::WatchdogTick;
    }

    /** Bytes of the record in the image: when, seq, kind, id, payload. */
    std::size_t
    imageBytes() const
    {
        return 8 + 8 + 1 + (hasId() ? 2 : 0) + payload.size();
    }
};

/** The queue's pending list in (when, seq) order, payloads as saved. */
std::vector<PendingRecord>
pendingRecords(System &sys)
{
    std::vector<PendingRecord> out;
    sys.eventQueue().forEachPending(
        [&](Cycle when, std::uint64_t seq, const Event &ev) {
            Serializer p;
            switch (ev.kind) {
              case EventKind::CoreIssue:
                p.writeRaw(ev.acc);
                break;
              case EventKind::L1Complete:
              case EventKind::DirFill:
                p.writeU64(ev.value);
                break;
              case EventKind::L1Send:
              case EventKind::DirSend:
              case EventKind::Deliver:
                ev.msg.save(p);
                break;
              default:
                break;
            }
            out.push_back(PendingRecord{when, seq, ev.kind, ev.id, p.bytes()});
        });
    std::sort(out.begin(), out.end(),
              [](const PendingRecord &a, const PendingRecord &b) {
                  return std::tie(a.when, a.seq) < std::tie(b.when, b.seq);
              });
    return out;
}

/** An image with the offset of every record of its event section,
 *  which ends the image. */
struct EventImage
{
    std::vector<std::uint8_t> bytes;
    std::vector<PendingRecord> records;
    std::vector<std::size_t> recordAt;

    /** The first record of @p kind, or records.size(). */
    std::size_t
    find(EventKind kind) const
    {
        std::size_t i = 0;
        while (i < records.size() && records[i].kind != kind)
            ++i;
        return i;
    }

    /** Where record @p i's payload starts. */
    std::size_t
    payloadAt(std::size_t i) const
    {
        return recordAt[i] + 17 + (records[i].hasId() ? 2 : 0);
    }
};

EventImage
eventImage(System &donor)
{
    EventImage im;
    Serializer img;
    std::string err;
    EXPECT_TRUE(donor.saveSnapshot(img, &err)) << err;
    im.bytes = img.bytes();
    im.records = pendingRecords(donor);
    std::size_t total = 0;
    for (const PendingRecord &r : im.records)
        total += r.imageBytes();
    std::size_t at = im.bytes.size() - total;
    for (const PendingRecord &r : im.records) {
        im.recordAt.push_back(at);
        at += r.imageBytes();
    }
    return im;
}

/** Fault jitter on; invariant and watchdog ticks armed. */
SystemConfig
eventCfg()
{
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaMW;
    cfg.seed = 11;
    cfg.faultInjection = true;
    cfg.faultJitterMax = 24;
    return cfg;
}

void
armTicks(System &sys)
{
    sys.enablePeriodicInvariantCheck(700);
    sys.enableWatchdog(1'000'000);
}

/** Before the first event: the cores' CoreSteps and the first ticks. */
EventImage
startImage()
{
    System donor(eventCfg(), bench(eventCfg()));
    armTicks(donor);
    donor.runTo(0);
    return eventImage(donor);
}

/**
 * Mid-run, at the first stop (in 250-cycle steps) where every kind
 * that runs mid-flight is pending at once.
 */
EventImage
midRunImage()
{
    const std::vector<EventKind> want{
        EventKind::CoreIssue,     EventKind::L1Complete,
        EventKind::L1Send,        EventKind::DirSend,
        EventKind::DirFill,       EventKind::Deliver,
        EventKind::InvariantTick, EventKind::WatchdogTick};
    System donor(eventCfg(), bench(eventCfg()));
    armTicks(donor);
    for (Cycle stop = 250; stop <= 50000; stop += 250) {
        donor.runTo(stop);
        const auto recs = pendingRecords(donor);
        const bool all = std::all_of(
            want.begin(), want.end(), [&](EventKind k) {
                return std::any_of(recs.begin(), recs.end(),
                                   [&](const PendingRecord &r) {
                                       return r.kind == k;
                                   });
            });
        if (all)
            return eventImage(donor);
    }
    ADD_FAILURE() << "no stop holds every event kind";
    return {};
}

void
expectEventRejected(const std::vector<std::uint8_t> &img)
{
    expectRejected(eventCfg(), img);
}

TEST(SnapshotEvents, EveryKindRestoresToTheSamePendingList)
{
    std::vector<bool> seen(256, false);
    for (const EventImage &im : {startImage(), midRunImage()}) {
        ASSERT_FALSE(im.records.empty());
        for (const PendingRecord &r : im.records)
            seen[static_cast<unsigned>(r.kind)] = true;
        System fresh(eventCfg(), bench(eventCfg()));
        Deserializer d(im.bytes.data(), im.bytes.size());
        std::string err;
        ASSERT_TRUE(fresh.restoreSnapshot(d, &err)) << err;
        EXPECT_EQ(pendingRecords(fresh), im.records);
    }
    for (unsigned k = 1; k <= 10; ++k) {
        if (k != 7) {
            EXPECT_TRUE(seen[k]) << "event kind " << k << " never saved";
        }
    }
}

TEST(SnapshotReject, EventKindNoSaverWrites)
{
    const EventImage im = startImage();
    ASSERT_FALSE(im.records.empty());
    for (const unsigned kind : {0u, 7u, 11u, 12u, 13u, 255u}) {
        std::vector<std::uint8_t> bytes = im.bytes;
        bytes[im.recordAt[0] + 16] = static_cast<std::uint8_t>(kind);
        expectEventRejected(bytes);
    }
}

TEST(SnapshotReject, EventIdOutsideMachine)
{
    const SystemConfig cfg = eventCfg();
    const EventImage start = startImage();
    const std::size_t step = start.find(EventKind::CoreStep);
    ASSERT_LT(step, start.records.size());
    std::vector<std::uint8_t> bytes = start.bytes;
    bytes[start.recordAt[step] + 17] =
        static_cast<std::uint8_t>(cfg.numCores);
    expectEventRejected(bytes);

    const EventImage mid = midRunImage();
    const std::size_t fill = mid.find(EventKind::DirFill);
    ASSERT_LT(fill, mid.records.size());
    bytes = mid.bytes;
    bytes[mid.recordAt[fill] + 17] = static_cast<std::uint8_t>(cfg.l2Tiles);
    expectEventRejected(bytes);
}

TEST(SnapshotReject, EventsOutOfOrder)
{
    const EventImage im = startImage();
    ASSERT_GE(im.records.size(), 3u);
    ASSERT_EQ(im.records[0].imageBytes(), im.records[1].imageBytes());
    // Swap the first two records whole: each stays valid, only the
    // (when, seq) order breaks.
    std::vector<std::uint8_t> swapped = im.bytes;
    std::rotate(swapped.begin() + im.recordAt[0],
                swapped.begin() + im.recordAt[1],
                swapped.begin() + im.recordAt[2]);
    expectEventRejected(swapped);
}

TEST(Snapshot, PendingTestHookIsRefusedWithItsCycle)
{
    System sys(eventCfg(), bench(eventCfg()));
    sys.runTo(100);
    auto hook = [] {};
    sys.scheduleTestHook(4321, hook);
    const std::string at =
        "cycle " + std::to_string(sys.eventQueue().now() + 4321) + " ";
    Serializer img;
    std::string err;
    EXPECT_FALSE(sys.saveSnapshot(img, &err));
    EXPECT_NE(err.find(at), std::string::npos) << err;
}

/** Each byte a loader refuses, at a message inside a Deliver record
 *  (mid-run image) and inside a parked channel (oracle image). */
void
expectMessageRejected(std::size_t field, std::initializer_list<unsigned> bad)
{
    const EventImage mid = midRunImage();
    const std::size_t deliver = mid.find(EventKind::Deliver);
    ASSERT_LT(deliver, mid.records.size());
    const MeshImage parked = oracleImage();
    ASSERT_FALSE(parked.channelAt.empty());
    for (const unsigned v : bad) {
        std::vector<std::uint8_t> bytes = mid.bytes;
        bytes[mid.payloadAt(deliver) + field] = static_cast<std::uint8_t>(v);
        expectEventRejected(bytes);

        bytes = parked.bytes;
        bytes[parked.channelAt[0] + 8 + field] = static_cast<std::uint8_t>(v);
        expectOracleRejected(bytes);
    }
}

TEST(SnapshotReject, MessageFlagByteNotZeroOrOne)
{
    for (const std::size_t field :
         {offsetof(CoherenceMsg, dstIsDir),
          offsetof(CoherenceMsg, keepNonOverlap),
          offsetof(CoherenceMsg, revokeWritePerm),
          offsetof(CoherenceMsg, tryDirect),
          offsetof(CoherenceMsg, suppliedDirect),
          offsetof(CoherenceMsg, stillOwner),
          offsetof(CoherenceMsg, stillSharer),
          offsetof(CoherenceMsg, upgrade), offsetof(CoherenceMsg, last),
          offsetof(CoherenceMsg, demoteOwner)})
        expectMessageRejected(field, {2, 255});
}

TEST(SnapshotReject, MessageTypeOutOfRange)
{
    expectMessageRejected(offsetof(CoherenceMsg, type), {13, 255});
}

TEST(SnapshotReject, MessageGrantOutOfRange)
{
    expectMessageRejected(offsetof(CoherenceMsg, grant), {3, 255});
}

TEST(SnapshotReject, MessageNodeOutsideMachine)
{
    // 16 is the mid-run machine's core count and past the oracle's 4.
    ASSERT_EQ(eventCfg().numCores, 16u);
    for (const std::size_t field :
         {offsetof(CoherenceMsg, srcNode), offsetof(CoherenceMsg, dstNode),
          offsetof(CoherenceMsg, sender),
          offsetof(CoherenceMsg, requester)})
        expectMessageRejected(field, {16});
}

TEST(SnapshotReject, MessageRangeOutsideRegion)
{
    // Both images hold 8-word regions. An end at word 8 or past it
    // leaves the region whatever the start: an empty range ({1,0} or
    // a clipped one) becomes non-empty and a non-empty one overhangs.
    ASSERT_EQ(eventCfg().regionWords(), 8u);
    ASSERT_EQ(oracleCfg().regionWords(), 8u);
    expectMessageRejected(
        offsetof(CoherenceMsg, range) + offsetof(WordRange, end), {8, 255});
}

TEST(SnapshotReject, MessageFetchRangeOutsideRegion)
{
    ASSERT_EQ(eventCfg().regionWords(), 8u);
    ASSERT_EQ(oracleCfg().regionWords(), 8u);
    expectMessageRejected(offsetof(CoherenceMsg, reqFetchRange) +
                              offsetof(WordRange, end),
                          {8, 255});
}

TEST(SnapshotReject, ParkedMessageOffItsChannel)
{
    // Re-address the first parked message to another (valid) node:
    // the loader accepts it, but it no longer matches its channel.
    MeshImage im = oracleImage();
    ASSERT_FALSE(im.channelAt.empty());
    const std::size_t at =
        im.channelAt[0] + 8 + offsetof(CoherenceMsg, dstNode);
    const std::uint32_t dst = getU32(im.bytes, at);
    putU32(im.bytes, at, (dst + 1) % oracleCfg().numCores);
    expectOracleRejected(im.bytes);
}

TEST(SnapshotReject, AccessWriteByteNotZeroOrOne)
{
    const EventImage im = midRunImage();
    const std::size_t issue = im.find(EventKind::CoreIssue);
    ASSERT_LT(issue, im.records.size());
    for (const unsigned v : {2u, 255u}) {
        std::vector<std::uint8_t> bytes = im.bytes;
        bytes[im.payloadAt(issue) + offsetof(MemAccess, isWrite)] =
            static_cast<std::uint8_t>(v);
        expectEventRejected(bytes);
    }
}

// ---- the raw controller records --------------------------------------

/**
 * A mid-run image with the offset of one raw record of each kind the
 * controllers write: a directory transaction's Txn bytes, an MSHR
 * entry, a writeback segment (at its u64 region) and an L1 block (at
 * its u64 region). Each offset is found from its component's own
 * section, located in the image by content.
 */
struct RecordImage
{
    std::vector<std::uint8_t> bytes;
    std::size_t txnAt = 0;
    std::size_t mshrAt = 0;
    std::size_t wbAt = 0;
    std::size_t blockAt = 0;
};

/** An 8-set L1 evicts dirty blocks early, so writebacks are pending
 *  mid-run. */
SystemConfig
recordCfg()
{
    SystemConfig cfg;
    cfg.seed = 3;
    cfg.l1Sets = 8;
    return cfg;
}

std::size_t
sectionAt(const std::vector<std::uint8_t> &img, const Serializer &sec)
{
    const auto at = std::search(img.begin(), img.end(), sec.bytes().begin(),
                                sec.bytes().end());
    EXPECT_NE(at, img.end());
    return static_cast<std::size_t>(at - img.begin());
}

/** Where the part of @p l1's section that starts @p tail bytes
 *  before its end lies in @p img. */
std::size_t
l1TailAt(const std::vector<std::uint8_t> &img, L1Controller &l1,
         std::size_t tail)
{
    Serializer sec;
    l1.saveState(sec);
    return sectionAt(img, sec) + sec.size() - tail;
}

/** The first stop (in 250-cycle steps) with an active transaction, an
 *  outstanding miss and a pending writeback. */
RecordImage
recordImage()
{
    const SystemConfig cfg = recordCfg();
    System donor(cfg, bench(cfg));
    for (Cycle stop = 250; stop <= 200000; stop += 250) {
        donor.runTo(stop);
        int tile = -1;
        int miss = -1;
        int wb = -1;
        for (TileId t = 0; t < cfg.l2Tiles && tile < 0; ++t) {
            donor.dir(t).forEachTxn(
                [&](Addr, const DirController::Txn &) { tile = int(t); });
        }
        for (CoreId c = 0; c < cfg.numCores; ++c) {
            if (miss < 0 && donor.l1(c).mshrFile().size() > 0)
                miss = int(c);
            if (wb < 0 && donor.l1(c).writebackBuffer().pendingCount() > 0)
                wb = int(c);
        }
        if (tile < 0 || miss < 0 || wb < 0)
            continue;

        RecordImage im;
        Serializer img;
        std::string err;
        EXPECT_TRUE(donor.saveSnapshot(img, &err)) << err;
        im.bytes = img.bytes();

        // The directory section ends with u32 txn count, the txns (u64
        // region, raw Txn), u32 queued count, the queued requests (u64
        // region, message) and the Bloom flag byte.
        DirController &dir = donor.dir(TileId(tile));
        Serializer dsec;
        dir.saveState(dsec);
        EXPECT_EQ(dsec.bytes().back(), 0u);
        std::size_t txns = 0;
        std::size_t queued = 0;
        dir.forEachTxn([&](Addr, const DirController::Txn &) { ++txns; });
        dir.forEachWaitingMsg([&](Addr, const CoherenceMsg &) { ++queued; });
        const std::size_t tail = 1 + 4 + queued * (8 + sizeof(CoherenceMsg)) +
                                 4 + txns * (8 + sizeof(DirController::Txn));
        im.txnAt = sectionAt(im.bytes, dsec) + dsec.size() - tail + 4 + 8;

        // An L1 section ends with the MSHR file (u32 capacity, u8
        // used, entry) and then the writeback buffer (u32 count,
        // records).
        L1Controller &ml1 = donor.l1(CoreId(miss));
        Serializer msec;
        Serializer mwb;
        ml1.mshrFile().saveState(msec);
        ml1.writebackBuffer().saveState(mwb);
        im.mshrAt = l1TailAt(im.bytes, ml1, mwb.size() + msec.size()) + 5;

        L1Controller &wl1 = donor.l1(CoreId(wb));
        Serializer wsec;
        wl1.writebackBuffer().saveState(wsec);
        im.wbAt = l1TailAt(im.bytes, wl1, wsec.size()) + 4;

        // The cache section follows the stats, busyUntil, 4 RNG words
        // and the access flag: u64 LRU clock, u32 set count, then per
        // set u32 block count and its blocks.
        Serializer lsec;
        ml1.saveState(lsec);
        std::size_t at = sectionAt(im.bytes, lsec) + sizeof(L1Stats) + 8 +
                         4 * 8 + 1 + 8 + 4;
        while (getU32(im.bytes, at) == 0)
            at += 4;
        im.blockAt = at + 4;
        return im;
    }
    ADD_FAILURE() << "no stop holds every raw record";
    return {};
}

void
expectRecordRejected(const std::vector<std::uint8_t> &img)
{
    expectRejected(recordCfg(), img);
}

/** Set byte @p at of @p im to each of @p bad in turn; each refused. */
void
expectByteRejected(const RecordImage &im, std::size_t at,
                   std::initializer_list<unsigned> bad)
{
    for (const unsigned v : bad) {
        std::vector<std::uint8_t> bytes = im.bytes;
        bytes[at] = static_cast<std::uint8_t>(v);
        expectRecordRejected(bytes);
    }
}

/** Overwrite the WordRange at @p at with [start, end]. */
void
putRange(std::vector<std::uint8_t> &b, std::size_t at, unsigned start,
         unsigned end)
{
    const WordRange r(start, end);
    std::memcpy(&b[at], &r, sizeof(r));
}

WordRange
getRange(const std::vector<std::uint8_t> &b, std::size_t at)
{
    WordRange r;
    std::memcpy(&r, &b[at], sizeof(r));
    return r;
}

/**
 * The range at @p at, shifted past the region's last word with its
 * length kept (a word count that follows it still matches), then
 * made empty; each refused.
 */
void
expectRangeRejected(const RecordImage &im, std::size_t at)
{
    const unsigned words = recordCfg().regionWords();
    const WordRange r = getRange(im.bytes, at);
    ASSERT_TRUE(r.within(words)) << r.toString();
    std::vector<std::uint8_t> bytes = im.bytes;
    putRange(bytes, at, r.start + words - r.end, words);
    expectRecordRejected(bytes);
    bytes = im.bytes;
    putRange(bytes, at, r.end + 1, r.end);
    expectRecordRejected(bytes);
}

using Txn = DirController::Txn;

TEST(SnapshotReject, DirTxnFlagByteNotZeroOrOne)
{
    const RecordImage im = recordImage();
    ASSERT_FALSE(im.bytes.empty());
    for (const std::size_t field :
         {offsetof(Txn, upgrade), offsetof(Txn, waitingUnblock),
          offsetof(Txn, directSupplied), offsetof(Txn, unblocked)})
        expectByteRejected(im, im.txnAt + field, {2, 255});
}

TEST(SnapshotReject, DirTxnEnumOutOfRange)
{
    const RecordImage im = recordImage();
    ASSERT_FALSE(im.bytes.empty());
    expectByteRejected(im, im.txnAt + offsetof(Txn, kind), {2, 255});
    expectByteRejected(im, im.txnAt + offsetof(Txn, reqType),
                       {unsigned(MsgType::PUT), kNumMsgTypes, 255});
    expectByteRejected(im, im.txnAt + offsetof(Txn, covBefore),
                       {kNumDirStates, 255});
    expectByteRejected(im, im.txnAt + offsetof(Txn, covEvent),
                       {kNumDirEvents, 255});
}

TEST(SnapshotReject, DirTxnRequesterOutsideMachine)
{
    const RecordImage im = recordImage();
    ASSERT_FALSE(im.bytes.empty());
    std::vector<std::uint8_t> bytes = im.bytes;
    const CoreId outside = CoreId(recordCfg().numCores);
    std::memcpy(&bytes[im.txnAt + offsetof(Txn, requester)], &outside,
                sizeof(outside));
    expectRecordRejected(bytes);
}

TEST(SnapshotReject, DirTxnRangeOutsideRegion)
{
    const RecordImage im = recordImage();
    ASSERT_FALSE(im.bytes.empty());
    expectRangeRejected(im, im.txnAt + offsetof(Txn, reqRange));
}

TEST(SnapshotReject, DirTxnSecondOnARegion)
{
    // Copy the first transaction's region over the second's (or add a
    // copy of the first record when there is only one).
    const RecordImage im = recordImage();
    ASSERT_FALSE(im.bytes.empty());
    std::vector<std::uint8_t> bytes = im.bytes;
    const std::size_t rec = 8 + sizeof(Txn);
    const std::size_t first = im.txnAt - 8;
    const std::uint32_t count = getU32(bytes, first - 4);
    if (count >= 2) {
        std::copy_n(bytes.begin() + first, 8, bytes.begin() + first + rec);
    } else {
        putU32(bytes, first - 4, count + 1);
        bytes.insert(bytes.begin() + first + rec, im.bytes.begin() + first,
                     im.bytes.begin() + first + rec);
    }
    expectRecordRejected(bytes);
}

TEST(SnapshotReject, MshrFlagByteNotZeroOrOne)
{
    const RecordImage im = recordImage();
    ASSERT_FALSE(im.bytes.empty());
    for (const std::size_t field :
         {offsetof(MshrEntry, isWrite), offsetof(MshrEntry, upgrade),
          offsetof(MshrEntry, upgradeBroken)})
        expectByteRejected(im, im.mshrAt + field, {2, 255});
}

TEST(SnapshotReject, MshrRangeOutsideRegion)
{
    const RecordImage im = recordImage();
    ASSERT_FALSE(im.bytes.empty());
    expectRangeRejected(im, im.mshrAt + offsetof(MshrEntry, need));
    expectRangeRejected(im, im.mshrAt + offsetof(MshrEntry, pred));
}

TEST(SnapshotReject, WbSegmentFlagByteNotZeroOrOne)
{
    // u64 region, range, u32 word count, the words, u64 touched, then
    // the last and demoteOwner bytes.
    const RecordImage im = recordImage();
    ASSERT_FALSE(im.bytes.empty());
    const std::size_t words = getU32(im.bytes, im.wbAt + 8 + sizeof(WordRange));
    const std::size_t flags =
        im.wbAt + 8 + sizeof(WordRange) + 4 + words * 8 + 8;
    expectByteRejected(im, flags, {2, 255});
    expectByteRejected(im, flags + 1, {2, 255});
}

TEST(SnapshotReject, WbSegmentRangeOutsideRegion)
{
    const RecordImage im = recordImage();
    ASSERT_FALSE(im.bytes.empty());
    expectRangeRejected(im, im.wbAt + 8);
}

TEST(SnapshotReject, L1BlockStateOutOfRange)
{
    // u64 region, range, then the state byte.
    const RecordImage im = recordImage();
    ASSERT_FALSE(im.bytes.empty());
    expectByteRejected(im, im.blockAt + 8 + sizeof(WordRange), {3, 255});
}

TEST(SnapshotReject, L1BlockRangeOutsideRegion)
{
    const RecordImage im = recordImage();
    ASSERT_FALSE(im.bytes.empty());
    expectRangeRejected(im, im.blockAt + 8);
}

TEST(SnapshotReject, L1BlockMissWordOutsideRegion)
{
    // u64 region, range, u8 state, u64 touched, u64 fetchPc, then the
    // missWord byte.
    const RecordImage im = recordImage();
    ASSERT_FALSE(im.bytes.empty());
    ASSERT_EQ(recordCfg().regionWords(), 8u);
    expectByteRejected(im, im.blockAt + 8 + sizeof(WordRange) + 1 + 8 + 8,
                       {8, 255});
}

TEST(SnapshotReject, L1BlockTouchedOutsideRegion)
{
    // The u64 touched mask after u64 region, range and u8 state: a bit
    // past the region's 8 words, inside WordMask and past it.
    const RecordImage im = recordImage();
    ASSERT_FALSE(im.bytes.empty());
    ASSERT_EQ(recordCfg().regionWords(), 8u);
    const std::size_t at = im.blockAt + 8 + sizeof(WordRange) + 1;
    for (const unsigned bit : {8u, 31u, 40u}) {
        std::vector<std::uint8_t> bytes = im.bytes;
        std::uint64_t touched = 0;
        std::memcpy(&touched, &bytes[at], 8);
        touched |= std::uint64_t(1) << bit;
        std::memcpy(&bytes[at], &touched, 8);
        expectRecordRejected(bytes);
    }
}

TEST(SnapshotReject, MessageValidOutsideRegion)
{
    // Bits past both images' 8-word regions in the payload's validity
    // mask: word 8, and words 16-31 that no region holds.
    ASSERT_EQ(eventCfg().regionWords(), 8u);
    ASSERT_EQ(oracleCfg().regionWords(), 8u);
    const std::size_t valid =
        offsetof(CoherenceMsg, data) + offsetof(MsgData, valid);
    expectMessageRejected(valid + 1, {1, 255});
    expectMessageRejected(valid + 3, {0x80});
}

TEST(SnapshotImage, OracleImageRestoresParkedChannels)
{
    // An explorer image: a quiescent point with messages parked on
    // several channels must restore to the same frontier and the same
    // state fingerprint.
    const SystemConfig cfg = oracleCfg();
    System donor(cfg, emptyWorkload(cfg.numCores));
    parkStores(donor);
    const auto frontier = parkedFrontier(donor);
    ASSERT_GE(frontier.size(), 2u);
    Serializer img;
    std::string err;
    ASSERT_TRUE(donor.saveSnapshot(img, &err)) << err;

    System fresh(cfg, emptyWorkload(cfg.numCores));
    Deserializer d(img.bytes().data(), img.size());
    ASSERT_TRUE(fresh.restoreSnapshot(d, &err)) << err;
    EXPECT_EQ(parkedFrontier(fresh), frontier);
    EXPECT_EQ(fresh.mesh().parkedMessages(), frontier.size());

    std::vector<Addr> regions;
    for (CoreId c = 0; c < cfg.numCores; ++c)
        regions.push_back(oracleAddr(c));
    const std::vector<unsigned> progress(cfg.numCores, 0);
    check::FingerprintScratch scratch;
    EXPECT_EQ(check::fingerprintSystem(fresh, regions, progress, scratch),
              check::fingerprintSystem(donor, regions, progress, scratch));
}

TEST(SnapshotImage, IdenticalRunsSaveIdenticalBytes)
{
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaMW;
    cfg.seed = 29;
    const Serializer a = saveAt(cfg, 12000);
    const Serializer b = saveAt(cfg, 12000);
    EXPECT_EQ(a.bytes(), b.bytes());
}

TEST(SnapshotImage, SixteenCoreImageIsATenthOfTheDenseOne)
{
    // BENCH_stream.json's 16-core point: Table-4 machine, Protozoa-MW,
    // apache at scale 0.21, checkpoint at cycle 50,000. The v1 image,
    // which held every L2 slot, was 117,914,866 bytes.
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaMW;
    const BenchSpec &spec = findBenchmark("apache");
    System donor(cfg, spec.gen(cfg, 0.21));
    donor.runTo(50000);
    Serializer img;
    std::string err;
    ASSERT_TRUE(donor.saveSnapshot(img, &err)) << err;
    EXPECT_LE(img.size(), 117914866u / 10);
}

TEST(Snapshot, ConfigFingerprintSemantics)
{
    SystemConfig a;
    SystemConfig b = a;
    EXPECT_EQ(configFingerprint(a), configFingerprint(b));

    b.seed = a.seed + 1;
    EXPECT_NE(configFingerprint(a), configFingerprint(b));

    b = a;
    b.faultReorderProb = a.faultReorderProb + 0.001;
    EXPECT_NE(configFingerprint(a), configFingerprint(b));
}

} // namespace
} // namespace protozoa
