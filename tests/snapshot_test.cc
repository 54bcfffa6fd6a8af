/**
 * @file
 * Checkpoint/restore property tests: the snapshot subsystem's contract
 * is digest-locked resumption — save at cycle C, restore into a fresh
 * System (same config, nothing run yet), run to completion, and the
 * full stats digest is bit-identical to the uninterrupted run. The
 * tests exercise that contract across all four protocols, with fault
 * jitter on and off, at randomized checkpoint cycles.
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
    // The version field follows the magic. A newer image and a v4
    // image (which still carried the engine-mode byte) are both
    // refused before any section is read.
    for (const std::uint32_t ver : {kSnapshotVersion + 1, 4u}) {
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

TEST(SnapshotReject, UsedTargetRefused)
{
    SystemConfig cfg;
    cfg.seed = 3;
    Serializer img = saveAt(cfg, 5000);

    System used(cfg, bench(cfg));
    used.runTo(100); // no longer fresh
    Deserializer d(img.bytes().data(), img.size());
    std::string err;
    EXPECT_FALSE(used.restoreSnapshot(d, &err));
    EXPECT_NE(err.find("fresh"), std::string::npos) << err;
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
 * (PcSpatialPredictor::saveState): u32 table size, u32 count of
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

constexpr std::size_t kParkedBytes = sizeof(CoherenceMsg) + 8;

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
    cfg.numCores = 4;
    cfg.l2Tiles = 4;
    cfg.meshCols = 4;
    cfg.meshRows = 1;
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
        sys.l1(c).requestAccess(acc, [](std::uint64_t) {});
    }
    sys.eventQueue().run();
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

/** Every parked message as (src, dst, hash), in enumeration order. */
std::vector<std::tuple<unsigned, unsigned, std::uint64_t>>
parkedFrontier(System &sys)
{
    std::vector<std::tuple<unsigned, unsigned, std::uint64_t>> out;
    sys.mesh().forEachParkedChannel(
        [&](unsigned src, unsigned dst, std::span<const Mesh::Parked> chan) {
            for (const Mesh::Parked &p : chan)
                out.emplace_back(src, dst, p.hash);
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
    EXPECT_EQ(check::fingerprintSystem(fresh, regions, progress),
              check::fingerprintSystem(donor, regions, progress));
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
