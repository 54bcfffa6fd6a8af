#include "workload/streaming_trace.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <ostream>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace protozoa {

namespace {

constexpr std::size_t kFileHeaderBytes = 16;
constexpr std::size_t kChunkHeaderBytes = 20;

/** Slicing-by-8 tables for the reflected 0xEDB88320 polynomial: t[0]
 *  is the byte-at-a-time table, and t[k][b] is the CRC register after
 *  byte b is followed by k zero bytes. */
struct Crc32Tables
{
    std::uint32_t t[8][256];

    Crc32Tables()
    {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (std::uint32_t i = 0; i < 256; ++i)
            for (int k = 1; k < 8; ++k)
                t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
};

const Crc32Tables &
crcTables()
{
    static const Crc32Tables tables;
    return tables;
}

/** Little-endian u32 composed from bytes, whatever the host order. */
std::uint32_t
load32le(const std::uint8_t *p)
{
    return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
           std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
}

void
put32(std::uint8_t *p, std::uint32_t v)
{
    std::memcpy(p, &v, 4);
}

std::uint32_t
get32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

void
encodeRecord(std::uint8_t *p, const TraceRecord &r)
{
    std::memcpy(p, &r.addr, 8);
    std::memcpy(p + 8, &r.pc, 8);
    std::memcpy(p + 16, &r.gapInstrs, 2);
    p[18] = r.isWrite ? 1 : 0;
    p[19] = 0;
}

TraceRecord
decodeRecord(const std::uint8_t *p)
{
    TraceRecord r;
    std::memcpy(&r.addr, p, 8);
    std::memcpy(&r.pc, p + 8, 8);
    std::memcpy(&r.gapInstrs, p + 16, 2);
    r.isWrite = p[18] != 0;
    return r;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t n)
{
    const auto &t = crcTables().t;
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = 0xffffffffu;
    // Eight bytes per step: the register folds into the first four,
    // and each byte's contribution comes from the table for the
    // number of bytes that follow it in the step.
    for (; n >= 8; p += 8, n -= 8) {
        const std::uint32_t lo = load32le(p) ^ c;
        const std::uint32_t hi = load32le(p + 4);
        c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
            t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^
            t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
            t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n)
        c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

// ---- TraceWriter ------------------------------------------------------

TraceWriter::TraceWriter(std::ostream &out, Format fmt,
                         unsigned num_cores, std::size_t chunk_records)
    : out(out), fmt(fmt), cores(num_cores), chunkRecords(chunk_records)
{
    PROTO_ASSERT(chunkRecords > 0 && chunkRecords <= kMaxChunkRecords,
                 "bad chunk size");
    if (fmt == Format::Binary) {
        pending.resize(cores);
        for (auto &v : pending)
            v.reserve(chunkRecords);
        encodeBuf.resize(kChunkHeaderBytes +
                         chunkRecords * kTraceRecordBytes);
        std::uint8_t hdr[kFileHeaderBytes];
        put32(hdr, kTraceMagic);
        put32(hdr + 4, kTraceVersion);
        put32(hdr + 8, cores);
        put32(hdr + 12, 0);
        out.write(reinterpret_cast<const char *>(hdr), sizeof(hdr));
    } else {
        out << "# protozoa trace: <core> <L|S> <hex-addr> <hex-pc> "
               "<gap>\n";
    }
}

TraceWriter::~TraceWriter() { finish(); }

void
TraceWriter::append(unsigned core, const TraceRecord &rec)
{
    PROTO_ASSERT(!finished, "append after finish()");
    if (core >= cores)
        fatal("trace writer: core %u out of range (%u cores)", core,
              cores);
    ++written;
    if (fmt == Format::Text) {
        out << core << ' ' << (rec.isWrite ? 'S' : 'L') << ' '
            << std::hex << rec.addr << ' ' << rec.pc << std::dec << ' '
            << rec.gapInstrs << '\n';
        return;
    }
    pending[core].push_back(rec);
    if (pending[core].size() >= chunkRecords)
        flushChunk(core);
}

void
TraceWriter::flushChunk(unsigned core)
{
    auto &recs = pending[core];
    if (recs.empty())
        return;
    const std::uint32_t count = static_cast<std::uint32_t>(recs.size());
    const std::uint32_t byteLen =
        count * static_cast<std::uint32_t>(kTraceRecordBytes);
    std::uint8_t *payload = encodeBuf.data() + kChunkHeaderBytes;
    for (std::uint32_t i = 0; i < count; ++i)
        encodeRecord(payload + i * kTraceRecordBytes, recs[i]);

    std::uint8_t *hdr = encodeBuf.data();
    put32(hdr, kTraceChunkMagic);
    put32(hdr + 4, core);
    put32(hdr + 8, count);
    put32(hdr + 12, byteLen);
    put32(hdr + 16, crc32(payload, byteLen));
    out.write(reinterpret_cast<const char *>(encodeBuf.data()),
              kChunkHeaderBytes + byteLen);
    recs.clear();
}

void
TraceWriter::finish()
{
    if (finished)
        return;
    finished = true;
    if (fmt == Format::Binary)
        for (unsigned c = 0; c < cores; ++c)
            flushChunk(c);
    out.flush();
}

// ---- StreamingTraceFile ----------------------------------------------

std::unique_ptr<StreamingTraceFile>
StreamingTraceFile::open(const std::string &path, std::string *err)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        if (err)
            *err = "cannot open trace file '" + path + "'";
        return nullptr;
    }
    std::uint8_t hdr[kFileHeaderBytes];
    if (::pread(fd, hdr, sizeof(hdr), 0) !=
        static_cast<ssize_t>(sizeof(hdr))) {
        ::close(fd);
        if (err)
            *err = "'" + path + "': truncated PZTR header";
        return nullptr;
    }
    if (get32(hdr) != kTraceMagic) {
        ::close(fd);
        if (err)
            *err = "'" + path + "': not a PZTR trace (bad magic)";
        return nullptr;
    }
    if (get32(hdr + 4) != kTraceVersion) {
        ::close(fd);
        if (err)
            *err = "'" + path + "': PZTR version " +
                   std::to_string(get32(hdr + 4)) + ", expected " +
                   std::to_string(kTraceVersion);
        return nullptr;
    }
    const std::uint32_t cores = get32(hdr + 8);
    if (cores == 0 || cores > 4096) {
        ::close(fd);
        if (err)
            *err = "'" + path + "': implausible core count " +
                   std::to_string(cores);
        return nullptr;
    }

    auto file = std::unique_ptr<StreamingTraceFile>(
        new StreamingTraceFile());
    file->fd = fd;
    file->path = path;
    file->nCores = cores;
    file->dataStart = kFileHeaderBytes;
    file->rings.resize(cores);
    for (Ring &r : file->rings) {
        r.nextOff = file->dataStart;
        r.chunkBuf.reserve(kDefaultChunkRecords * kTraceRecordBytes);
    }
    return file;
}

StreamingTraceFile::~StreamingTraceFile()
{
    if (fd >= 0)
        ::close(fd);
}

Workload
StreamingTraceFile::makeWorkload()
{
    Workload out;
    for (unsigned c = 0; c < nCores; ++c)
        out.push_back(std::make_unique<StreamingTraceSource>(*this, c));
    return out;
}

bool
StreamingTraceFile::readHeader(std::uint64_t off, ChunkHeader &h) const
{
    std::uint8_t hdr[kChunkHeaderBytes];
    const ssize_t got =
        ::pread(fd, hdr, sizeof(hdr), static_cast<off_t>(off));
    if (got == 0)
        return false;
    if (got != static_cast<ssize_t>(sizeof(hdr)))
        fatal("'%s': truncated chunk header", path.c_str());
    if (get32(hdr) != kTraceChunkMagic)
        fatal("'%s': bad chunk magic (corrupt trace)", path.c_str());
    h.core = get32(hdr + 4);
    h.count = get32(hdr + 8);
    h.byteLen = get32(hdr + 12);
    h.crc = get32(hdr + 16);
    if (h.core >= nCores)
        fatal("'%s': chunk names core %u of %u", path.c_str(), h.core,
              nCores);
    if (h.count == 0 || h.count > kMaxChunkRecords ||
        h.byteLen != h.count * kTraceRecordBytes)
        fatal("'%s': implausible chunk framing (count %u, bytes %u)",
              path.c_str(), h.count, h.byteLen);
    return true;
}

bool
StreamingTraceFile::readChunkFor(unsigned target, std::uint64_t n)
{
    // Each core keeps its own chunk cursor and scans the file for its
    // own chunks, skipping over other cores' payloads — so a ring
    // never buffers more than one chunk no matter how skewed per-core
    // consumption rates are, which pins every ring's capacity after
    // its first decode (alloc_regression_test locks this). All reads
    // are positional pread()s and all mutable state is per-ring, so
    // distinct cores may refill from distinct threads.
    Ring &ring = rings[target];
    for (;;) {
        ChunkHeader h;
        if (!readHeader(ring.nextOff, h)) {
            ring.exhausted = true;
            return false;
        }
        const std::uint64_t payloadOff =
            ring.nextOff + kChunkHeaderBytes;
        ring.nextOff = payloadOff + h.byteLen;
        if (h.core != target)
            continue; // skip a foreign chunk without touching payload
        if (ring.consumed + h.count <= n) {
            ring.consumed += h.count; // an own chunk wholly before n
            continue;
        }

        ring.chunkBuf.resize(h.byteLen); // capacity sticky
        if (::pread(fd, ring.chunkBuf.data(), h.byteLen,
                    static_cast<off_t>(payloadOff)) !=
            static_cast<ssize_t>(h.byteLen))
            fatal("'%s': truncated chunk payload", path.c_str());
        if (crc32(ring.chunkBuf.data(), h.byteLen) != h.crc)
            fatal("'%s': chunk CRC mismatch (corrupt trace)",
                  path.c_str());

        ring.buf.clear(); // fully drained before refill; keeps capacity
        for (std::uint32_t i = 0; i < h.count; ++i)
            ring.buf.push_back(decodeRecord(ring.chunkBuf.data() +
                                            i * kTraceRecordBytes));
        ring.head = static_cast<std::size_t>(n - ring.consumed);
        ring.consumed = n;
        return true;
    }
}

bool
StreamingTraceFile::fillFor(unsigned core)
{
    Ring &ring = rings[core];
    if (ring.head < ring.buf.size())
        return true;
    return !ring.exhausted && readChunkFor(core, ring.consumed);
}

bool
StreamingTraceFile::seekFor(unsigned core, std::uint64_t n)
{
    Ring &ring = rings[core];
    if (n < ring.consumed) {
        // Per-core cursors make a backward seek purely local: reset
        // this core's scan to the first chunk, then seek forward.
        ring.buf.clear();
        ring.head = 0;
        ring.consumed = 0;
        ring.nextOff = dataStart;
        ring.exhausted = false;
    }
    const std::size_t left = ring.buf.size() - ring.head;
    if (n - ring.consumed <= left) {
        ring.head += static_cast<std::size_t>(n - ring.consumed);
        ring.consumed = n;
        return true;
    }
    // Past the ring: drop its remainder, skip every chunk that ends at
    // or before n by its header alone, and decode the one holding n.
    ring.consumed += left;
    ring.buf.clear();
    ring.head = 0;
    if (!ring.exhausted)
        readChunkFor(core, n);
    return ring.consumed == n;
}

// ---- StreamingTraceSource --------------------------------------------

bool
StreamingTraceSource::next(TraceRecord &out)
{
    if (!file.fillFor(core))
        return false;
    StreamingTraceFile::Ring &ring = file.rings[core];
    out = ring.buf[ring.head++];
    ++ring.consumed;
    return true;
}

std::uint64_t
StreamingTraceSource::cursor() const
{
    return file.rings[core].consumed;
}

bool
StreamingTraceSource::seekTo(std::uint64_t n)
{
    return file.seekFor(core, n);
}

// ---- SyntheticStreamSource -------------------------------------------

SyntheticStreamSource::SyntheticStreamSource(std::uint64_t seed,
                                             unsigned core,
                                             std::uint64_t records,
                                             std::size_t chunk_records)
    : seed(seed), core(core), total(records), chunkRecords(chunk_records)
{
    PROTO_ASSERT(chunkRecords > 0, "bad chunk size");
    chunk.reserve(chunkRecords);
}

bool
SyntheticStreamSource::next(TraceRecord &out)
{
    if (consumed >= total)
        return false;
    const std::uint64_t index = consumed / chunkRecords;
    if (index != chunkIndex)
        generate(index);
    out = chunk[static_cast<std::size_t>(consumed % chunkRecords)];
    ++consumed;
    return true;
}

bool
SyntheticStreamSource::seekTo(std::uint64_t n)
{
    if (n > total)
        return false;
    consumed = n;
    return true;
}

void
SyntheticStreamSource::generate(std::uint64_t index)
{
    chunk.clear(); // keeps capacity: regeneration stays allocation-free
    chunkIndex = index;
    const std::uint64_t n =
        std::min<std::uint64_t>(chunkRecords, total - index * chunkRecords);
    Rng rng(counterHash64(seed, (std::uint64_t(core) << 32) | 1, index));
    // Per-core private window walks forward with the chunk index so the
    // footprint stays cache-sized but the address stream never repeats;
    // a small set of hot shared regions carries real cross-core
    // coherence traffic.
    const Addr privBase =
        0x100000000ULL + (Addr(core) << 24) + (index % 4096) * 0x1000;
    const Addr sharedBase = 0x200000000ULL;
    const unsigned kSharedRegions = 16;
    for (std::uint64_t i = 0; i < n; ++i) {
        TraceRecord r;
        const std::uint64_t roll = rng.below(100);
        if (roll < 70) {
            // private streaming read/write
            r.addr = privBase + (rng.below(512) << kWordShift);
            r.isWrite = rng.chance(0.3);
            r.pc = 0x4000 + (core << 8);
        } else if (roll < 95) {
            // hot shared read
            r.addr = sharedBase + rng.below(kSharedRegions) * 64 +
                     (rng.below(8) << kWordShift);
            r.isWrite = false;
            r.pc = 0x5000;
        } else {
            // shared write (false-sharing pressure: word keyed by core,
            // region shared by all)
            r.addr = sharedBase + rng.below(kSharedRegions) * 64 +
                     ((core % 8) << kWordShift);
            r.isWrite = true;
            r.pc = 0x6000;
        }
        r.addr = wordAlign(r.addr);
        r.gapInstrs = static_cast<std::uint16_t>(2 + rng.below(6));
        chunk.push_back(r);
    }
}

Workload
makeSyntheticStreamWorkload(std::uint64_t seed, unsigned num_cores,
                            std::uint64_t records_per_core,
                            std::size_t chunk_records)
{
    Workload out;
    for (unsigned c = 0; c < num_cores; ++c)
        out.push_back(std::make_unique<SyntheticStreamSource>(
            seed, c, records_per_core, chunk_records));
    return out;
}

} // namespace protozoa
