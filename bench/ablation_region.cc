/**
 * @file
 * Ablation (DESIGN.md): how does the REGION size — the coherence-
 * metadata granularity and maximum block size — affect Protozoa-MW?
 *
 * The paper fixes REGION at 64 B; this sweep shows the trade-off it
 * navigates: smaller regions cap spatial prefetching, larger regions
 * raise directory reach per entry and widen false-sharing exposure in
 * the region-granularity protocols.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"

using namespace protozoa;
using namespace protozoa::bench;

int
main()
{
    const double scale = envScale();
    const std::vector<std::string> apps = {
        "canneal", "histogram", "linear-regression", "mat-mul",
        "streamcluster", "x264"};
    std::vector<SystemConfig> configs;
    for (unsigned region : {32u, 64u, 128u}) {
        SystemConfig cfg;
        cfg.protocol = ProtocolKind::ProtozoaMW;
        cfg.regionBytes = region;
        configs.push_back(cfg);
    }

    std::printf("Ablation: REGION size sweep under Protozoa-MW "
                "(scale=%.2f)\n\n", scale);

    TextTable table({"app", "region", "MPKI", "used%", "traffic-bytes",
                     "flit-hops"});

    const auto grid = runGrid(apps, configs, scale);
    for (std::size_t a = 0; a < apps.size(); ++a) {
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const RunStats &stats = grid[a][c];
            const auto tb = trafficBreakdown(stats);
            table.addRow({apps[a], std::to_string(configs[c].regionBytes),
                          TextTable::fmt(stats.mpki()),
                          TextTable::pct(stats.usedDataFraction()),
                          TextTable::fmt(tb.total(), 0),
                          std::to_string(stats.net.flitHops)});
        }
    }

    table.print(std::cout);
    std::printf("\nExpectation: dense streams (mat-mul) want large "
                "regions for spatial reach; adaptive fetch makes MW "
                "far less sensitive to region size than MESI is to "
                "block size (compare Table 1).\n");
    return 0;
}
