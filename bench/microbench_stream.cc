/**
 * @file
 * microbench_stream: throughput of the long-horizon runtime's two I/O
 * paths.
 *
 *  - Trace ingest (records/s): the legacy load-it-all text format
 *    parsed by readTrace() vs the chunked PZTR binary streamed through
 *    StreamingTraceFile, writer included for context. Both sides
 *    consume every record through the TraceSource interface, so the
 *    numbers compare end-to-end ingest, not just decode.
 *
 *  - Snapshot save/restore latency and image size vs system size
 *    (16-core 4x4 and 64-core 8x8 machines, mid-run checkpoint of the
 *    apache profile).
 *
 * Results go to stdout as a table and to BENCH_stream.json. Honours
 * PROTOZOA_SCALE: record counts and the snapshot workloads shrink for
 * CI smoke runs.
 *
 *   microbench_stream                  # table + BENCH_stream.json
 *   microbench_stream --json out.json
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/serialize.hh"
#include "workload/streaming_trace.hh"
#include "workload/trace_io.hh"

using namespace protozoa;
using namespace protozoa::bench;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct IngestPoint
{
    const char *format = "";
    std::uint64_t records = 0;
    double writeSec = 0.0;
    double readSec = 0.0;
};

struct SnapshotPoint
{
    unsigned cores = 0;
    std::uint64_t bytes = 0;
    double saveMs = 0.0;
    double restoreMs = 0.0;
};

std::vector<std::vector<TraceRecord>>
materialize(unsigned cores, std::uint64_t per_core)
{
    std::vector<std::vector<TraceRecord>> recs(cores);
    for (unsigned c = 0; c < cores; ++c) {
        SyntheticStreamSource g(7, c, per_core, 4096);
        recs[c].reserve(per_core);
        TraceRecord r;
        while (g.next(r))
            recs[c].push_back(r);
    }
    return recs;
}

std::uint64_t
consumeAll(Workload &wl)
{
    std::uint64_t n = 0;
    TraceRecord r;
    for (auto &src : wl)
        while (src->next(r))
            ++n;
    return n;
}

IngestPoint
benchText(const std::vector<std::vector<TraceRecord>> &recs,
          std::uint64_t total)
{
    IngestPoint p;
    p.format = "text";
    p.records = total;
    const std::string path = "microbench_stream.trace.txt";

    double t0 = now();
    {
        std::ofstream out(path);
        TraceWriter w(out, TraceWriter::Format::Text,
                      static_cast<unsigned>(recs.size()));
        for (unsigned c = 0; c < recs.size(); ++c)
            for (const TraceRecord &r : recs[c])
                w.append(c, r);
    }
    p.writeSec = now() - t0;

    t0 = now();
    Workload wl =
        readTraceFile(path, static_cast<unsigned>(recs.size()));
    const std::uint64_t got = consumeAll(wl);
    p.readSec = now() - t0;
    if (got != total)
        std::fprintf(stderr, "text ingest lost records: %llu/%llu\n",
                      (unsigned long long)got, (unsigned long long)total);
    std::remove(path.c_str());
    return p;
}

IngestPoint
benchBinary(const std::vector<std::vector<TraceRecord>> &recs,
            std::uint64_t total)
{
    IngestPoint p;
    p.format = "binary";
    p.records = total;
    const std::string path = "microbench_stream.trace.pztr";

    double t0 = now();
    {
        std::ofstream out(path, std::ios::binary);
        TraceWriter w(out, TraceWriter::Format::Binary,
                      static_cast<unsigned>(recs.size()));
        for (unsigned c = 0; c < recs.size(); ++c)
            for (const TraceRecord &r : recs[c])
                w.append(c, r);
    }
    p.writeSec = now() - t0;

    t0 = now();
    std::string err;
    auto file = StreamingTraceFile::open(path, &err);
    if (!file) {
        std::fprintf(stderr, "%s\n", err.c_str());
        std::exit(1);
    }
    Workload wl = file->makeWorkload();
    const std::uint64_t got = consumeAll(wl);
    p.readSec = now() - t0;
    if (got != total)
        std::fprintf(stderr, "binary ingest lost records: %llu/%llu\n",
                      (unsigned long long)got, (unsigned long long)total);
    std::remove(path.c_str());
    return p;
}

SnapshotPoint
benchSnapshot(unsigned cols, unsigned rows, double scale)
{
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaMW;
    cfg.setMesh(cols, rows);
    const BenchSpec &spec = findBenchmark("apache");

    System donor(cfg, spec.gen(cfg, scale));
    donor.runTo(50000);

    SnapshotPoint p;
    p.cores = cfg.numCores;
    Serializer img;
    std::string err;
    double t0 = now();
    if (!donor.saveSnapshot(img, &err)) {
        std::fprintf(stderr, "save failed: %s\n", err.c_str());
        std::exit(1);
    }
    p.saveMs = (now() - t0) * 1e3;
    p.bytes = img.size();

    System fresh(cfg, spec.gen(cfg, scale));
    Deserializer d(img.bytes().data(), img.size());
    t0 = now();
    if (!fresh.restoreSnapshot(d, &err)) {
        std::fprintf(stderr, "restore failed: %s\n", err.c_str());
        std::exit(1);
    }
    p.restoreMs = (now() - t0) * 1e3;
    return p;
}

void
writeJson(const std::string &path, double scale,
          const std::vector<IngestPoint> &ingest,
          const std::vector<SnapshotPoint> &snaps)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"scale\": %g,\n  \"ingest\": [\n", scale);
    for (std::size_t i = 0; i < ingest.size(); ++i) {
        const IngestPoint &p = ingest[i];
        std::fprintf(f,
                     "    {\"format\": \"%s\", \"records\": %llu, "
                     "\"write_sec\": %.6f, \"read_sec\": %.6f, "
                     "\"read_records_per_sec\": %.0f}%s\n",
                     p.format, (unsigned long long)p.records,
                     p.writeSec, p.readSec,
                     p.readSec > 0 ? p.records / p.readSec : 0.0,
                     i + 1 < ingest.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"snapshot\": [\n");
    for (std::size_t i = 0; i < snaps.size(); ++i) {
        const SnapshotPoint &p = snaps[i];
        std::fprintf(f,
                     "    {\"cores\": %u, \"bytes\": %llu, "
                     "\"save_ms\": %.3f, \"restore_ms\": %.3f}%s\n",
                     p.cores, (unsigned long long)p.bytes, p.saveMs,
                     p.restoreMs, i + 1 < snaps.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonPath = "BENCH_stream.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--json") && i + 1 < argc)
            jsonPath = argv[++i];
    }
    double scale = 1.0;
    if (const char *s = std::getenv("PROTOZOA_SCALE"))
        scale = std::atof(s);

    const unsigned cores = 16;
    const std::uint64_t perCore =
        static_cast<std::uint64_t>(200000 * scale) + 1000;
    const auto recs = materialize(cores, perCore);
    const std::uint64_t total = perCore * cores;

    std::vector<IngestPoint> ingest;
    ingest.push_back(benchText(recs, total));
    ingest.push_back(benchBinary(recs, total));

    std::printf("%-8s %12s %12s %12s %16s\n", "format", "records",
                "write s", "read s", "read rec/s");
    for (const IngestPoint &p : ingest)
        std::printf("%-8s %12llu %12.3f %12.3f %16.0f\n", p.format,
                    (unsigned long long)p.records, p.writeSec, p.readSec,
                    p.readSec > 0 ? p.records / p.readSec : 0.0);

    std::vector<SnapshotPoint> snaps;
    snaps.push_back(benchSnapshot(4, 4, 0.2 * scale + 0.01));
    snaps.push_back(benchSnapshot(8, 8, 0.05 * scale + 0.01));

    std::printf("\n%-8s %12s %12s %12s\n", "cores", "image B",
                "save ms", "restore ms");
    for (const SnapshotPoint &p : snaps)
        std::printf("%-8u %12llu %12.3f %12.3f\n", p.cores,
                    (unsigned long long)p.bytes, p.saveMs, p.restoreMs);

    writeJson(jsonPath, scale, ingest, snaps);
    return 0;
}
