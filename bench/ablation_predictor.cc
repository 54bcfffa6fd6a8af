/**
 * @file
 * Ablation (DESIGN.md): the fetch-granularity predictor. Protozoa's
 * gains hinge on predicting each miss's useful extent; this sweep
 * compares the Amoeba PC predictor against always-full-region,
 * fixed-4-word, and exact-word policies under Protozoa-MW.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"

using namespace protozoa;
using namespace protozoa::bench;

namespace {

const char *
predictorName(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::FullRegion: return "full-region";
      case PredictorKind::Fixed:      return "fixed-4w";
      case PredictorKind::PcSpatial:  return "pc-spatial";
      case PredictorKind::WordOnly:   return "word-only";
    }
    return "?";
}

} // namespace

int
main()
{
    const double scale = envScale();
    const PredictorKind predictors[] = {
        PredictorKind::FullRegion, PredictorKind::Fixed,
        PredictorKind::PcSpatial, PredictorKind::WordOnly};
    const std::vector<std::string> apps = {
        "canneal", "facesim", "histogram", "mat-mul", "swaptions", "x264"};
    std::vector<SystemConfig> configs;
    for (PredictorKind predictor : predictors) {
        SystemConfig cfg;
        cfg.protocol = ProtocolKind::ProtozoaMW;
        cfg.predictor = predictor;
        cfg.fixedFetchWords = 4;
        configs.push_back(cfg);
    }

    std::printf("Ablation: fetch-granularity predictor under "
                "Protozoa-MW (scale=%.2f)\n\n", scale);

    TextTable table({"app", "predictor", "MPKI", "used%",
                     "traffic-bytes"});

    const auto grid = runGrid(apps, configs, scale);
    for (std::size_t a = 0; a < apps.size(); ++a) {
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const RunStats &stats = grid[a][c];
            table.addRow({apps[a], predictorName(configs[c].predictor),
                          TextTable::fmt(stats.mpki()),
                          TextTable::pct(stats.usedDataFraction()),
                          TextTable::fmt(
                              trafficBreakdown(stats).total(), 0)});
        }
    }

    table.print(std::cout);
    std::printf("\nExpectation: word-only maximizes utilization but "
                "forfeits spatial prefetching (worst MPKI on dense "
                "apps); full-region is MESI-like; pc-spatial tracks "
                "whichever is better per access site.\n");
    return 0;
}
