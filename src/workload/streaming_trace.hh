/**
 * @file
 * Streaming trace front end: bounded-memory trace ingest for
 * long-horizon runs.
 *
 * The load-it-all `readTrace`/`VectorTrace` path tops out at what fits
 * in RAM; "millions of users" means billions of accesses. This layer
 * adds:
 *
 *  - PZTR, a binary chunked trace format. A file is a fixed header
 *    followed by self-framed chunks, each carrying up to a few thousand
 *    packed records for ONE core plus a CRC32, so a reader can route a
 *    whole chunk to its core queue without touching individual records
 *    and can detect truncation/corruption at chunk granularity.
 *
 *  - TraceWriter, an append-records-incrementally writer (text or
 *    binary) and the one way to write a trace: a capture tool can emit
 *    records as they happen with O(chunk) memory.
 *
 *  - StreamingTraceFile / StreamingTraceSource: per-core TraceSource
 *    views over one shared chunked reader. Each core scans the file
 *    with its own chunk cursor via positional pread(), skipping other
 *    cores' payloads, so a ring never holds more than one decoded
 *    chunk regardless of consumption-rate skew — ring capacities pin
 *    after the first decode and the steady-state refill loop performs
 *    zero allocations (alloc_regression_test locks this). All mutable
 *    state is per-ring and the fd has no shared position, so distinct
 *    cores' sources may be pulled from distinct threads.
 *
 *  - GeneratorTraceSource: chunk-indexed deterministic generation, so
 *    synthetic archetypes run unbounded with O(chunk) memory and can
 *    be repositioned (snapshot restore) by regenerating a chunk.
 *
 * Record layout (packed, little-endian, kRecordBytes = 20):
 *   addr u64 | pc u64 | gapInstrs u16 | isWrite u8 | pad u8
 * Chunk header (kChunkHeaderBytes = 20):
 *   magic "PZCK" u32 | core u32 | recordCount u32 | byteLen u32 | crc32 u32
 * File header (kFileHeaderBytes = 16):
 *   magic "PZTR" u32 | version u32 | numCores u32 | reserved u32
 */

#ifndef PROTOZOA_WORKLOAD_STREAMING_TRACE_HH
#define PROTOZOA_WORKLOAD_STREAMING_TRACE_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "workload/trace.hh"

namespace protozoa {

/** File magic "PZTR" (little-endian). */
constexpr std::uint32_t kTraceMagic = 0x52545a50u;
/** Chunk magic "PZCK". */
constexpr std::uint32_t kTraceChunkMagic = 0x4b435a50u;
/** Format version; bump on any layout change. */
constexpr std::uint32_t kTraceVersion = 1;
/** Packed on-disk record size. */
constexpr std::size_t kTraceRecordBytes = 20;
/** Records per chunk a TraceWriter batches before flushing. */
constexpr std::size_t kDefaultChunkRecords = 4096;
/** Reader sanity bound on a chunk payload (corruption guard). */
constexpr std::size_t kMaxChunkRecords = 1u << 20;

/** CRC-32 (IEEE 802.3, reflected 0xEDB88320) over @p n bytes. */
std::uint32_t crc32(const void *data, std::size_t n);

/**
 * Incremental trace writer: append records one at a time, in any core
 * order, with O(cores * chunk) memory. The text format is the one
 * readTrace() (workload/trace_io.hh) parses.
 */
class TraceWriter
{
  public:
    enum class Format { Text, Binary };

    /**
     * @param out           destination stream (binary mode for Binary).
     * @param fmt           text (human-readable) or PZTR binary.
     * @param num_cores     cores the trace covers; appends for cores
     *                      beyond this are a fatal error.
     * @param chunk_records batching granularity for the binary format.
     */
    TraceWriter(std::ostream &out, Format fmt, unsigned num_cores,
                std::size_t chunk_records = kDefaultChunkRecords);

    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one record for @p core. */
    void append(unsigned core, const TraceRecord &rec);

    /** Flush all pending chunks; idempotent, called by the dtor. */
    void finish();

    std::uint64_t recordsWritten() const { return written; }

  private:
    void flushChunk(unsigned core);

    std::ostream &out;
    Format fmt;
    unsigned cores;
    std::size_t chunkRecords;
    std::uint64_t written = 0;
    std::vector<std::vector<TraceRecord>> pending;
    std::vector<std::uint8_t> encodeBuf;
    bool finished = false;
};

class StreamingTraceSource;

/**
 * Shared chunked reader over one PZTR file. Create with open(), then
 * call makeWorkload() exactly once to get per-core TraceSource views;
 * the file object must outlive them (System holds the Workload, the
 * caller holds the file).
 */
class StreamingTraceFile
{
  public:
    /** Open + validate the header. @return nullptr with @p err set. */
    static std::unique_ptr<StreamingTraceFile>
    open(const std::string &path, std::string *err);

    ~StreamingTraceFile();

    StreamingTraceFile(const StreamingTraceFile &) = delete;
    StreamingTraceFile &operator=(const StreamingTraceFile &) = delete;

    unsigned cores() const { return nCores; }

    /** Build one StreamingTraceSource per core (call once). */
    Workload makeWorkload();

  private:
    friend class StreamingTraceSource;

    struct Ring
    {
        /** Decoded records of the current chunk; [head, buf.size())
         *  are unconsumed. A ring holds at most ONE chunk — capacity
         *  is pinned after the first decode, so refills never
         *  allocate. */
        std::vector<TraceRecord> buf;
        /** Per-ring chunk payload buffer (capacity sticky). */
        std::vector<std::uint8_t> chunkBuf;
        std::size_t head = 0;
        /** Total records handed to next() on this core. */
        std::uint64_t consumed = 0;
        /** File offset of the next chunk header to scan. */
        std::uint64_t nextOff = 0;
        /** This core's chunk stream hit clean EOF. */
        bool exhausted = false;
    };

    StreamingTraceFile() = default;

    /** Refill @p core's ring (scanning past other cores' chunks).
     *  @return false when the core's stream is exhausted. */
    bool fillFor(unsigned core);

    /** Scan from the core's cursor to its next chunk and decode it.
     *  @return false at clean EOF; fatal() on a malformed chunk. */
    bool readChunkFor(unsigned core);

    int fd = -1;
    std::string path;
    unsigned nCores = 0;
    std::uint64_t dataStart = 0;
    std::vector<Ring> rings;
};

/** One core's pull view over a shared StreamingTraceFile. */
class StreamingTraceSource : public TraceSource
{
  public:
    StreamingTraceSource(StreamingTraceFile &file, unsigned core)
        : file(file), core(core)
    {
    }

    bool next(TraceRecord &out) override;
    std::uint64_t cursor() const override;

    /**
     * Reposition to record @p n. Cores keep independent chunk
     * cursors, so a backward seek resets only THIS core's scan to the
     * first chunk and replays forward — other cores' positions are
     * untouched, and snapshot restore can seek every core once in any
     * order.
     */
    bool seekTo(std::uint64_t n) override;

  private:
    StreamingTraceFile &file;
    unsigned core;
};

/**
 * Unbounded (or capped) chunk-indexed generated stream. The refill
 * callback must be a pure function of (chunk_index) — typically seeded
 * by counterHash64(seed, core, chunk_index) — so any chunk can be
 * regenerated for seekTo() and the stream is identical regardless of
 * consumption pattern.
 */
class GeneratorTraceSource : public TraceSource
{
  public:
    /** Fill @p out with up to the chunk's records; fewer ends the
     *  stream at that point. */
    using Refill =
        std::function<void(std::uint64_t chunk_index,
                           std::vector<TraceRecord> &out)>;

    /**
     * @param refill        deterministic chunk generator.
     * @param total_records stream length; 0 means unbounded.
     * @param chunk_records generation granularity.
     */
    GeneratorTraceSource(Refill refill, std::uint64_t total_records,
                         std::size_t chunk_records = kDefaultChunkRecords);

    bool next(TraceRecord &out) override;
    std::uint64_t cursor() const override { return consumed; }
    bool seekTo(std::uint64_t n) override;

  private:
    bool loadChunkFor(std::uint64_t n);

    Refill refill;
    std::uint64_t total;
    std::size_t chunkRecords;
    std::vector<TraceRecord> chunk;
    std::uint64_t chunkIndex = ~std::uint64_t(0);
    std::uint64_t consumed = 0;
};

/**
 * Deterministic synthetic stream for long-horizon runs: a per-core mix
 * of private streaming, hot shared-region reads and occasional shared
 * writes, generated chunk-at-a-time from (seed, core, chunk_index).
 * The long-horizon CI job and bench/microbench_stream use this to
 * drive multi-100M-record runs without a trace file.
 */
GeneratorTraceSource::Refill
syntheticStreamRefill(std::uint64_t seed, unsigned core,
                      unsigned num_cores, std::size_t chunk_records);

/** Whole-system synthetic stream workload (one generator per core). */
Workload
makeSyntheticStreamWorkload(std::uint64_t seed, unsigned num_cores,
                            std::uint64_t records_per_core,
                            std::size_t chunk_records =
                                kDefaultChunkRecords);

} // namespace protozoa

#endif // PROTOZOA_WORKLOAD_STREAMING_TRACE_HH
