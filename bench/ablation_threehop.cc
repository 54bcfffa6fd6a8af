/**
 * @file
 * Ablation (paper Sec. 6, "3-hop vs 4-hop"): enable direct
 * owner-to-requester forwarding and measure the latency benefit on
 * sharing-heavy workloads. Falls back to 4-hop whenever the owner
 * cannot cover the requested words — the corner case the paper calls
 * out for Protozoa's partial-overlap forwards.
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
        "cholesky", "water", "x264", "histogram", "raytrace",
        "linear-regression"};
    // Per protocol, a 4-hop machine and then its 3-hop twin.
    const ProtocolKind protocols[] = {ProtocolKind::MESI,
                                      ProtocolKind::ProtozoaMW};
    std::vector<SystemConfig> configs;
    for (ProtocolKind kind : protocols) {
        for (bool threeHop : {false, true}) {
            SystemConfig cfg;
            cfg.protocol = kind;
            cfg.threeHop = threeHop;
            configs.push_back(cfg);
        }
    }

    std::printf("Ablation: 3-hop direct forwarding (scale=%.2f)\n\n",
                scale);

    TextTable table({"app", "proto", "3hop-xfers", "cycles-4hop",
                     "cycles-3hop", "speedup", "traffic-ratio"});

    const auto grid = runGrid(apps, configs, scale);
    for (std::size_t a = 0; a < apps.size(); ++a) {
        for (std::size_t p = 0; p < std::size(protocols); ++p) {
            const RunStats &hop4 = grid[a][2 * p];
            const RunStats &hop3 = grid[a][2 * p + 1];
            const double t4 = trafficBreakdown(hop4).total();
            const double t3 = trafficBreakdown(hop3).total();
            table.addRow(
                {apps[a], shortName(protocols[p]),
                 std::to_string(hop3.dir.threeHopDirect),
                 std::to_string(hop4.cycles),
                 std::to_string(hop3.cycles),
                 TextTable::fmt(static_cast<double>(hop4.cycles) /
                                    static_cast<double>(hop3.cycles)),
                 TextTable::fmt(t3 / t4)});
        }
    }

    table.print(std::cout);
    std::printf("\nExpectation: migratory and producer/consumer "
                "sharing benefit most (the extra hop sat on the\n"
                "critical path); traffic is near-neutral because the "
                "directory still collects writebacks.\n");
    return 0;
}
