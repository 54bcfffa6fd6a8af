/**
 * @file
 * fig_scaling: beyond the paper's 16-core machine. Sweeps three
 * representative benchmarks across 16-, 64- and 256-core meshes (4x4,
 * 8x8, 16x16) for all four protocols, and reports execution time,
 * network traffic bytes and flit-hops per point, plus each adaptive
 * protocol's ratio to MESI at the same core count.
 *
 * The aggregate shared L2 is held at the paper's 32 MB (2 MB/tile x
 * 16) across every point — l2BytesPerTile shrinks as the tile count
 * grows — so the sweep scales the machine, not the cache budget.
 *
 * A second section measures the Sec. 6 TaglessBloom directory with
 * its default fixed 256-bucket geometry at every core count. The
 * filter is per-tile, so growing the tile count shards each
 * workload's regions across more filters and aliasing *falls* — the
 * scaling cost shows up in the probe fan-out and flit-hop columns of
 * the main table instead, not in the filter.
 *
 *   fig_scaling                     # full sweep, table + JSON
 *   fig_scaling --json out.json     # JSON artifact path
 *   PROTOZOA_SCALE=0.05 fig_scaling # CI smoke
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"

using namespace protozoa;
using namespace protozoa::bench;

namespace {

struct MeshPoint
{
    unsigned cores;
    unsigned cols;
    unsigned rows;
};

const MeshPoint kPoints[] = {{16, 4, 4}, {64, 8, 8}, {256, 16, 16}};

const char *const kBenches[] = {"apache", "canneal",
                                "linear-regression"};

/** Paper machine resized to @p pt with the 32 MB aggregate L2. */
SystemConfig
configFor(const MeshPoint &pt)
{
    SystemConfig cfg;
    cfg.setMesh(pt.cols, pt.rows);
    cfg.l2BytesPerTile = (2ull * 1024 * 1024 * 16) / pt.cores;
    return cfg;
}

struct PointStat
{
    const char *bench;
    unsigned cores;
    ProtocolKind proto;
    RunStats stats;
};

struct BloomStat
{
    unsigned cores;
    std::uint64_t falseProbes;
    std::uint64_t requests;
};

void
writeJson(const std::string &path, double scale,
          const std::vector<PointStat> &points,
          const std::vector<BloomStat> &bloom)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"scale\": %.3f,\n"
                    "  \"aggregateL2Bytes\": %llu,\n  \"points\": [\n",
                 scale, 2ull * 1024 * 1024 * 16);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointStat &p = points[i];
        std::fprintf(
            f,
            "    {\"bench\": \"%s\", \"cores\": %u, "
            "\"protocol\": \"%s\", \"cycles\": %llu, "
            "\"trafficBytes\": %llu, \"flitHops\": %llu}%s\n",
            p.bench, p.cores, shortName(p.proto),
            static_cast<unsigned long long>(p.stats.cycles),
            static_cast<unsigned long long>(p.stats.net.bytes),
            static_cast<unsigned long long>(p.stats.net.flitHops),
            i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"bloomFixed256Buckets\": [\n");
    for (std::size_t i = 0; i < bloom.size(); ++i) {
        const BloomStat &b = bloom[i];
        const double rate =
            b.requests ? static_cast<double>(b.falseProbes) / b.requests
                       : 0.0;
        std::fprintf(f,
                     "    {\"cores\": %u, \"falseProbes\": %llu, "
                     "\"requests\": %llu, \"falseProbeRate\": %.4f}%s\n",
                     b.cores,
                     static_cast<unsigned long long>(b.falseProbes),
                     static_cast<unsigned long long>(b.requests), rate,
                     i + 1 < bloom.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonPath = "BENCH_scaling.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            jsonPath = argv[++i];
    }
    const double scale = envScale();
    std::printf("fig_scaling: 16/64/256-core meshes, aggregate L2 "
                "fixed at 32 MB (scale=%.2f)\n\n", scale);

    // The three benchmarks on every (mesh point, protocol) machine, and
    // for the Bloom-geometry section apache under MW with the default
    // fixed 256-bucket TaglessBloom directory at every core count: two
    // grids, swept as one.
    Grid meshGrid{{std::begin(kBenches), std::end(kBenches)}, {}};
    Grid bloomGrid{{"apache"}, {}};
    for (const MeshPoint &pt : kPoints) {
        for (ProtocolKind kind : allProtocols()) {
            meshGrid.configs.push_back(configFor(pt));
            meshGrid.configs.back().protocol = kind;
        }
        bloomGrid.configs.push_back(configFor(pt));
        bloomGrid.configs.back().protocol = ProtocolKind::ProtozoaMW;
        bloomGrid.configs.back().directory = DirectoryKind::TaglessBloom;
    }
    auto stats = runGrid({meshGrid, bloomGrid}, scale);

    std::vector<PointStat> points;
    for (std::size_t b = 0; b < meshGrid.benches.size(); ++b) {
        for (std::size_t c = 0; c < meshGrid.configs.size(); ++c) {
            const SystemConfig &cfg = meshGrid.configs[c];
            points.push_back({kBenches[b], cfg.numCores, cfg.protocol,
                              std::move(stats[0][b][c])});
        }
    }

    for (const char *bench : kBenches) {
        std::printf("%s\n", bench);
        TextTable table({"cores", "proto", "cycles", "MBytes",
                         "MFlitHops", "cyc/MESI", "byte/MESI"});
        for (const MeshPoint &pt : kPoints) {
            const PointStat *mesi = nullptr;
            for (const PointStat &p : points) {
                if (p.bench == bench && p.cores == pt.cores &&
                    p.proto == ProtocolKind::MESI)
                    mesi = &p;
            }
            for (const PointStat &p : points) {
                if (p.bench != bench || p.cores != pt.cores)
                    continue;
                const double cr = static_cast<double>(p.stats.cycles) /
                                  static_cast<double>(mesi->stats.cycles);
                const double br =
                    static_cast<double>(p.stats.net.bytes) /
                    static_cast<double>(mesi->stats.net.bytes);
                table.addRow(
                    {std::to_string(p.cores), shortName(p.proto),
                     std::to_string(p.stats.cycles),
                     TextTable::fmt(p.stats.net.bytes / 1.0e6),
                     TextTable::fmt(p.stats.net.flitHops / 1.0e6),
                     TextTable::fmt(cr), TextTable::fmt(br)});
            }
        }
        table.print(std::cout);
        std::printf("\n");
    }

    std::vector<BloomStat> bloom;
    std::printf("TaglessBloom, fixed 256-bucket geometry (MW, apache)\n");
    TextTable btable({"cores", "falseProbes", "requests", "rate"});
    for (std::size_t i = 0; i < 3; ++i) {
        const RunStats &s = stats[1][0][i];
        bloom.push_back({kPoints[i].cores, s.dir.bloomFalseProbes,
                         s.dir.requests});
        const double rate =
            s.dir.requests ? static_cast<double>(s.dir.bloomFalseProbes) /
                                 static_cast<double>(s.dir.requests)
                           : 0.0;
        btable.addRow({std::to_string(kPoints[i].cores),
                       std::to_string(s.dir.bloomFalseProbes),
                       std::to_string(s.dir.requests),
                       TextTable::fmt(rate)});
    }
    btable.print(std::cout);
    std::printf("\nPer-tile filters shard the footprint: more tiles "
                "mean fewer regions per filter, so the fixed 256-bucket "
                "geometry aliases *less* as the mesh grows. The scaling "
                "cost lives in the traffic columns above (flit-hops "
                "grow superlinearly with the mesh diameter), not in "
                "the filter.\n");

    writeJson(jsonPath, scale, points, bloom);
    std::printf("wrote %s\n", jsonPath.c_str());
    return 0;
}
