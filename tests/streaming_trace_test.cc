/**
 * @file
 * Streaming trace front end tests: crc32 against known answers and a
 * byte-at-a-time reference, PZTR binary round-trip against the
 * in-memory reference, text/binary writer equivalence, chunk-level
 * corruption and truncation detection, seek-by-header equivalence and
 * what a seek checks, synthetic-stream determinism, seek semantics and
 * frozen records, and an end-to-end simulation digest lock between a
 * fully materialized workload and its streamed twin.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "protozoa/protozoa.hh"
#include "stats_digest.hh"
#include "workload/streaming_trace.hh"
#include "workload/trace_io.hh"

namespace protozoa {
namespace {

/** The byte-at-a-time table CRC-32 (reflected 0xEDB88320) that PZTR
 *  files were first written with. */
std::uint32_t
referenceCrc32(const std::uint8_t *p, std::size_t n)
{
    std::uint32_t table[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i)
        c = table[(c ^ p[i]) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

TEST(Crc32, KnownAnswers)
{
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesByteAtATimeReference)
{
    // Every tail length around the 8-byte step, a page boundary and a
    // full default chunk (4096 records x 20 B), at every alignment.
    constexpr std::size_t kChunkBytes =
        kDefaultChunkRecords * kTraceRecordBytes;
    Rng rng(0xc3c);
    std::vector<std::uint8_t> buf(kChunkBytes + 8);
    for (std::uint8_t &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    std::vector<std::size_t> lengths;
    for (std::size_t n = 0; n <= 64; ++n)
        lengths.push_back(n);
    for (const std::size_t n : {std::size_t(4095), std::size_t(4096),
                                std::size_t(4097), kChunkBytes})
        lengths.push_back(n);
    for (const std::size_t n : lengths)
        for (std::size_t start = 0; start < 8; ++start)
            ASSERT_EQ(crc32(buf.data() + start, n),
                      referenceCrc32(buf.data() + start, n))
                << "length " << n << " at offset " << start;
}

std::vector<std::vector<TraceRecord>>
randomRecords(unsigned cores, std::uint64_t seed, std::size_t lo,
              std::size_t hi)
{
    Rng rng(seed);
    std::vector<std::vector<TraceRecord>> recs(cores);
    for (unsigned c = 0; c < cores; ++c) {
        const std::size_t n = lo + rng.below(hi - lo);
        for (std::size_t i = 0; i < n; ++i) {
            TraceRecord r;
            r.addr = wordAlign(rng.next() & 0xffffffffffull);
            r.pc = rng.next() & 0xffffffffull;
            r.isWrite = rng.chance(0.4);
            r.gapInstrs = static_cast<std::uint16_t>(rng.below(0x100));
            recs[c].push_back(r);
        }
    }
    return recs;
}

void
writeBinaryFile(const std::string &path,
                const std::vector<std::vector<TraceRecord>> &recs,
                std::size_t chunk_records = 64)
{
    std::ofstream out(path, std::ios::binary);
    TraceWriter w(out, TraceWriter::Format::Binary,
                  static_cast<unsigned>(recs.size()), chunk_records);
    // Interleave cores so chunks from different cores alternate in the
    // file — the reader must route chunks, not assume grouping.
    std::size_t longest = 0;
    for (const auto &v : recs)
        longest = std::max(longest, v.size());
    for (std::size_t i = 0; i < longest; ++i)
        for (unsigned c = 0; c < recs.size(); ++c)
            if (i < recs[c].size())
                w.append(c, recs[c][i]);
    w.finish();
}

void
expectSameStream(TraceSource &got,
                 const std::vector<TraceRecord> &want)
{
    TraceRecord r;
    for (const TraceRecord &w : want) {
        ASSERT_TRUE(got.next(r));
        EXPECT_EQ(r.addr, w.addr);
        EXPECT_EQ(r.pc, w.pc);
        EXPECT_EQ(r.isWrite, w.isWrite);
        EXPECT_EQ(r.gapInstrs, w.gapInstrs);
    }
    EXPECT_FALSE(got.next(r));
}

TEST(StreamingTrace, BinaryRoundTrip)
{
    const unsigned cores = 4;
    const auto recs = randomRecords(cores, 0xbeef, 100, 400);
    const std::string path = "streaming_trace_test_rt.pztr";
    writeBinaryFile(path, recs);

    std::string err;
    auto file = StreamingTraceFile::open(path, &err);
    ASSERT_NE(file, nullptr) << err;
    EXPECT_EQ(file->cores(), cores);
    Workload wl = file->makeWorkload();
    ASSERT_EQ(wl.size(), cores);
    for (unsigned c = 0; c < cores; ++c)
        expectSameStream(*wl[c], recs[c]);
    std::remove(path.c_str());
}

TEST(StreamingTrace, TextWriterMatchesLegacyFormat)
{
    // The incremental text writer must produce a stream readTrace()
    // parses back to the identical records.
    const unsigned cores = 3;
    const auto recs = randomRecords(cores, 0xf00d, 20, 60);

    std::ostringstream out;
    {
        TraceWriter w(out, TraceWriter::Format::Text, cores);
        for (unsigned c = 0; c < cores; ++c)
            for (const TraceRecord &r : recs[c])
                w.append(c, r);
    } // dtor finishes
    std::istringstream in(out.str());
    Workload wl = readTrace(in, cores);
    for (unsigned c = 0; c < cores; ++c)
        expectSameStream(*wl[c], recs[c]);
}

TEST(StreamingTrace, RecordsWrittenCounts)
{
    std::ostringstream out;
    TraceWriter w(out, TraceWriter::Format::Binary, 2, 8);
    TraceRecord r;
    for (int i = 0; i < 21; ++i)
        w.append(i % 2, r);
    w.finish();
    EXPECT_EQ(w.recordsWritten(), 21u);
}

TEST(StreamingTrace, SeekToReplaysForwardAndBackward)
{
    const unsigned cores = 2;
    const auto recs = randomRecords(cores, 0xcafe, 200, 300);
    const std::string path = "streaming_trace_test_seek.pztr";
    writeBinaryFile(path, recs, 32);

    std::string err;
    auto file = StreamingTraceFile::open(path, &err);
    ASSERT_NE(file, nullptr) << err;
    Workload wl = file->makeWorkload();

    // Consume some records on both cores, then seek core 0 backwards
    // (which rewinds the shared file) and core 1 forward again.
    TraceRecord r;
    for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(wl[0]->next(r));
        ASSERT_TRUE(wl[1]->next(r));
    }
    ASSERT_TRUE(wl[0]->seekTo(10));
    ASSERT_TRUE(wl[1]->seekTo(50));
    EXPECT_EQ(wl[0]->cursor(), 10u);
    EXPECT_EQ(wl[1]->cursor(), 50u);

    ASSERT_TRUE(wl[0]->next(r));
    EXPECT_EQ(r.addr, recs[0][10].addr);
    ASSERT_TRUE(wl[1]->next(r));
    EXPECT_EQ(r.addr, recs[1][50].addr);
    std::remove(path.c_str());
}

/** XOR the byte at file offset @p off of @p path with @p mask. */
void
xorByte(const std::string &path, std::uint64_t off, std::uint8_t mask)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    char b;
    f.seekg(static_cast<std::streamoff>(off));
    f.get(b);
    f.seekp(static_cast<std::streamoff>(off));
    f.put(static_cast<char>(b ^ mask));
}

/** A chunk of a PZTR file: its core, the stream index of its first
 *  record and its header's file offset. */
struct ChunkAt
{
    unsigned core;
    std::uint64_t first;
    std::uint32_t count;
    std::uint64_t headerOff;
};

/** Every chunk of the PZTR file at @p path, in file order. */
std::vector<ChunkAt>
chunkMap(const std::string &path, unsigned cores)
{
    std::ifstream in(path, std::ios::binary);
    const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    std::vector<std::uint64_t> next(cores, 0);
    std::vector<ChunkAt> out;
    for (std::size_t off = 16; off + 20 <= bytes.size();) {
        std::uint32_t h[5]; // magic, core, count, byteLen, crc
        std::memcpy(h, bytes.data() + off, sizeof(h));
        out.push_back({h[1], next[h[1]], h[2], off});
        next[h[1]] += h[2];
        off += 20 + h[3];
    }
    return out;
}

/** Core @p core's @p k-th chunk in the PZTR file at @p path. */
ChunkAt
ownChunk(const std::string &path, unsigned cores, unsigned core,
         unsigned k)
{
    for (const ChunkAt &ch : chunkMap(path, cores))
        if (ch.core == core && k-- == 0)
            return ch;
    ADD_FAILURE() << "core " << core << " has too few chunks";
    return {};
}

std::vector<TraceRecord>
suffix(const std::vector<TraceRecord> &recs, std::uint64_t from)
{
    return {recs.begin() + static_cast<std::ptrdiff_t>(from), recs.end()};
}

/** Three cores in 7-record chunks with uneven streams: core 0 ends
 *  mid-chunk, core 1 on a chunk boundary, and core 2 is empty. */
std::vector<std::vector<TraceRecord>>
unevenRecords()
{
    auto recs = randomRecords(3, 0x5eec, 61, 62);
    recs[1].resize(28);
    recs[2].clear();
    return recs;
}

constexpr std::size_t kSeekChunk = 7;

TEST(StreamingTrace, SeekToMatchesReplayFromEveryPosition)
{
    // From every position m a source reached by next() (m = 0 is a
    // fresh file, m = count + 1 one next() past the end), seekTo(n)
    // must land where consuming the stream would: inside the decoded
    // chunk, past it by header, or back behind it, for every n up to
    // one past the end.
    const auto recs = unevenRecords();
    const std::string path = "streaming_trace_test_seekall.pztr";
    writeBinaryFile(path, recs, kSeekChunk);

    for (unsigned c = 0; c < recs.size(); ++c) {
        const std::uint64_t count = recs[c].size();
        for (std::uint64_t m = 0; m <= count + 1; ++m) {
            for (std::uint64_t n = 0; n <= count + 1; ++n) {
                SCOPED_TRACE(testing::Message() << "core " << c << " from "
                                                << m << " seek " << n);
                std::string err;
                auto file = StreamingTraceFile::open(path, &err);
                ASSERT_NE(file, nullptr) << err;
                Workload wl = file->makeWorkload();
                TraceRecord r;
                for (std::uint64_t i = 0; i < m; ++i)
                    ASSERT_EQ(wl[c]->next(r), i < count);
                EXPECT_EQ(wl[c]->seekTo(n), n <= count);
                // A seek past the end leaves the cursor at the end.
                const std::uint64_t at = std::min(n, count);
                EXPECT_EQ(wl[c]->cursor(), at);
                expectSameStream(*wl[c], suffix(recs[c], at));
            }
        }
    }
    std::remove(path.c_str());
}

TEST(StreamingTrace, SeekSkipsPayloadsWhollyBeforeTarget)
{
    // Seek checks what it reads: a chunk that ends before the target
    // is skipped by its header, so a flipped payload byte there does
    // not reach the records the source hands out.
    const auto recs = unevenRecords();
    const std::string path = "streaming_trace_test_seekskip.pztr";
    writeBinaryFile(path, recs, kSeekChunk);
    const ChunkAt skipped = ownChunk(path, 3, 0, 1);
    xorByte(path, skipped.headerOff + 20 + 5, 0x40);

    const std::uint64_t n = 3 * kSeekChunk + 3;
    std::string err;
    auto file = StreamingTraceFile::open(path, &err);
    ASSERT_NE(file, nullptr) << err;
    Workload wl = file->makeWorkload();
    ASSERT_TRUE(wl[0]->seekTo(n));
    EXPECT_EQ(wl[0]->cursor(), n);
    expectSameStream(*wl[0], suffix(recs[0], n));

    // The flip is real: reading through that chunk still dies.
    ASSERT_TRUE(wl[0]->seekTo(0));
    TraceRecord r;
    EXPECT_DEATH(
        {
            while (wl[0]->next(r)) {
            }
        },
        "chunk CRC mismatch");
    std::remove(path.c_str());
}

TEST(StreamingTraceDeath, SeekChecksTheChunkItDecodes)
{
    const auto recs = unevenRecords();
    const std::string path = "streaming_trace_test_seekcrc.pztr";
    writeBinaryFile(path, recs, kSeekChunk);
    const ChunkAt target = ownChunk(path, 3, 0, 3);
    xorByte(path, target.headerOff + 20 + 5, 0x40);

    std::string err;
    auto file = StreamingTraceFile::open(path, &err);
    ASSERT_NE(file, nullptr) << err;
    Workload wl = file->makeWorkload();
    EXPECT_DEATH(wl[0]->seekTo(target.first + 3), "chunk CRC mismatch");
    std::remove(path.c_str());
}

TEST(StreamingTraceDeath, SeekChecksSkippedHeaders)
{
    const auto recs = unevenRecords();
    const std::string path = "streaming_trace_test_seekmagic.pztr";
    writeBinaryFile(path, recs, kSeekChunk);
    const ChunkAt skipped = ownChunk(path, 3, 0, 1);
    xorByte(path, skipped.headerOff, 0x01);

    std::string err;
    auto file = StreamingTraceFile::open(path, &err);
    ASSERT_NE(file, nullptr) << err;
    Workload wl = file->makeWorkload();
    EXPECT_DEATH(wl[0]->seekTo(3 * kSeekChunk + 3), "bad chunk magic");
    std::remove(path.c_str());
}

TEST(StreamingTrace, OpenRejectsBadHeader)
{
    const std::string path = "streaming_trace_test_bad.pztr";
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a trace file";
    }
    std::string err;
    EXPECT_EQ(StreamingTraceFile::open(path, &err), nullptr);
    EXPECT_NE(err.find("magic"), std::string::npos) << err;
    std::remove(path.c_str());

    EXPECT_EQ(StreamingTraceFile::open("no_such_file.pztr", &err),
              nullptr);
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

TEST(StreamingTraceDeath, DetectsPayloadCorruption)
{
    const auto recs = randomRecords(2, 0xd00d, 100, 200);
    const std::string path = "streaming_trace_test_crc.pztr";
    writeBinaryFile(path, recs, 32);

    // Flip one payload byte well past the first chunk header.
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(16 + 20 + 11); // header + chunk header + into payload
        char b;
        f.seekg(16 + 20 + 11);
        f.get(b);
        f.seekp(16 + 20 + 11);
        f.put(static_cast<char>(b ^ 0x40));
    }
    std::string err;
    auto file = StreamingTraceFile::open(path, &err);
    ASSERT_NE(file, nullptr) << err;
    Workload wl = file->makeWorkload();
    TraceRecord r;
    EXPECT_DEATH(
        {
            while (wl[0]->next(r)) {
            }
        },
        "CRC mismatch");
    std::remove(path.c_str());
}

TEST(StreamingTraceDeath, DetectsTruncatedChunk)
{
    const auto recs = randomRecords(2, 0xd11d, 100, 200);
    const std::string path = "streaming_trace_test_trunc.pztr";
    writeBinaryFile(path, recs, 32);

    // Truncate mid-payload of the final chunk.
    std::uintmax_t size;
    {
        std::ifstream f(path, std::ios::binary | std::ios::ate);
        size = static_cast<std::uintmax_t>(f.tellg());
    }
    ASSERT_EQ(truncate(path.c_str(), static_cast<long>(size - 7)), 0);

    std::string err;
    auto file = StreamingTraceFile::open(path, &err);
    ASSERT_NE(file, nullptr) << err;
    Workload wl = file->makeWorkload();
    TraceRecord r;
    EXPECT_DEATH(
        {
            while (wl[0]->next(r) || wl[1]->next(r)) {
            }
        },
        "truncated chunk");
    std::remove(path.c_str());
}

TEST(StreamingTrace, SyntheticStreamIsDeterministicAndSeekable)
{
    SyntheticStreamSource a(42, 1, 1000, 128);
    SyntheticStreamSource b(42, 1, 1000, 128);

    // Same stream regardless of consumption pattern.
    std::vector<TraceRecord> first;
    TraceRecord r;
    while (a.next(r))
        first.push_back(r);
    EXPECT_EQ(first.size(), 1000u);

    ASSERT_TRUE(b.seekTo(500));
    ASSERT_TRUE(b.next(r));
    EXPECT_EQ(r.addr, first[500].addr);
    EXPECT_EQ(r.pc, first[500].pc);
    ASSERT_TRUE(b.seekTo(3));
    ASSERT_TRUE(b.next(r));
    EXPECT_EQ(r.addr, first[3].addr);
    ASSERT_TRUE(b.seekTo(1000));
    EXPECT_FALSE(b.next(r));
    EXPECT_FALSE(b.seekTo(1001));

    // A stream holds exactly its records: none at 0.
    SyntheticStreamSource empty(42, 1, 0, 128);
    EXPECT_FALSE(empty.next(r));
    EXPECT_TRUE(empty.seekTo(0));
    EXPECT_FALSE(empty.seekTo(1));
}

/**
 * The synthetic stream's records are frozen: long-horizon digests,
 * checkpoint images and PZTR files written from it depend on every
 * byte. 10,000 records in 4,096-record chunks end in a partial chunk.
 * The digest was computed with the generator this source replaced.
 */
TEST(StreamingTrace, SyntheticStreamRecordsAreFrozen)
{
    Workload wl = makeSyntheticStreamWorkload(7, 6, 10000, 4096);
    Digest d;
    TraceRecord r;
    std::uint64_t n = 0;
    while (wl[5]->next(r)) {
        d.add(r.addr);
        d.add(r.pc);
        d.add(r.gapInstrs);
        d.add(r.isWrite);
        ++n;
    }
    EXPECT_EQ(n, 10000u);
    EXPECT_EQ(d.value(), 0x6a0974c42aa3550fULL);
}

TEST(StreamingTrace, StreamedSimulationMatchesMaterialized)
{
    // Digest lock: running from StreamingTraceSource views must be
    // bit-identical to running the same records from VectorTraces.
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaMW;
    cfg.seed = 77;

    // Materialize the synthetic stream per core.
    std::vector<std::vector<TraceRecord>> recs(cfg.numCores);
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        SyntheticStreamSource g(9, c, 2000, 256);
        TraceRecord r;
        while (g.next(r))
            recs[c].push_back(r);
    }

    Workload vec;
    for (unsigned c = 0; c < cfg.numCores; ++c)
        vec.push_back(std::make_unique<VectorTrace>(
            std::vector<TraceRecord>(recs[c])));
    System ref(cfg, std::move(vec));
    ref.run();
    Digest dref;
    addStats(dref, ref.report());

    const std::string path = "streaming_trace_test_sim.pztr";
    writeBinaryFile(path, recs, 256);
    std::string err;
    auto file = StreamingTraceFile::open(path, &err);
    ASSERT_NE(file, nullptr) << err;
    System sys(cfg, file->makeWorkload());
    sys.run();
    Digest dstream;
    addStats(dstream, sys.report());

    EXPECT_EQ(dref.value(), dstream.value());
    std::remove(path.c_str());
}

} // namespace
} // namespace protozoa
