#include "sim/random_tester.hh"

#include "common/rng.hh"
#include "sim/system.hh"
#include "workload/trace.hh"

namespace protozoa {

const char *
RandomTester::patternName(Pattern p)
{
    switch (p) {
      case Pattern::Uniform: return "uniform";
      case Pattern::FalseShareBoundary: return "false-share";
      case Pattern::EvictionPressure: return "evict-pressure";
      case Pattern::UpgradeHeavy: return "upgrade-heavy";
    }
    return "?";
}

std::vector<std::vector<TraceRecord>>
RandomTester::buildTraces(const Params &params)
{
    const SystemConfig &cfg = params.cfg;
    Rng rng(cfg.seed * 0x5851f42d4c957f2dULL + 7);
    const Addr base = 0x40000000;
    const unsigned region_words = cfg.regionWords();

    // Pattern knobs layered on the shared hot/cold pool machinery.
    double cold_fraction = params.coldFraction;
    double write_fraction = params.writeFraction;
    switch (params.pattern) {
      case Pattern::Uniform:
        break;
      case Pattern::FalseShareBoundary:
        write_fraction = 0.6;
        break;
      case Pattern::EvictionPressure:
        cold_fraction = 0.7;
        break;
      case Pattern::UpgradeHeavy:
        break;
    }

    std::vector<std::vector<TraceRecord>> traces;
    traces.reserve(cfg.numCores);
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        std::vector<TraceRecord> recs;
        recs.reserve(params.accessesPerCore);
        bool upgrade_store_next = false;
        Addr upgrade_addr = 0;
        for (std::uint64_t i = 0; i < params.accessesPerCore; ++i) {
            TraceRecord rec;
            if (upgrade_store_next) {
                // Second half of a load-then-store upgrade pair.
                rec.addr = upgrade_addr;
                rec.pc = 0x2000;
                rec.isWrite = true;
                rec.gapInstrs =
                    static_cast<std::uint16_t>(rng.range(1, 4));
                recs.push_back(rec);
                upgrade_store_next = false;
                continue;
            }

            const bool cold = rng.chance(cold_fraction);
            const Addr area = cold ? base + 0x10000000 : base;
            const std::uint64_t region = rng.below(
                cold ? params.coldRegions : params.regions);
            unsigned word =
                static_cast<unsigned>(rng.below(region_words));
            if (params.pattern == Pattern::FalseShareBoundary && !cold) {
                // Even cores take the top of the region, odd cores the
                // bottom, biased hard toward the boundary words so the
                // same region carries disjoint per-core word ranges.
                const unsigned half = region_words / 2;
                const unsigned off =
                    rng.chance(0.75)
                        ? 0
                        : static_cast<unsigned>(rng.below(half));
                word = (c % 2 == 0) ? region_words - 1 - off : off;
            }
            rec.addr = area + region * cfg.regionBytes +
                       static_cast<Addr>(word) * kWordBytes;
            // A small PC pool exercises predictor training/aliasing.
            rec.pc = 0x1000 + 4 * rng.below(16);
            rec.isWrite = rng.chance(write_fraction);
            rec.gapInstrs = static_cast<std::uint16_t>(rng.range(1, 4));
            if (params.pattern == Pattern::UpgradeHeavy && !rec.isWrite &&
                rng.chance(0.6)) {
                // Queue a store to the same word right behind the load,
                // so the load installs S and the store must upgrade.
                upgrade_store_next = true;
                upgrade_addr = rec.addr;
            }
            recs.push_back(rec);
        }
        traces.push_back(std::move(recs));
    }
    return traces;
}

RandomTester::Result
RandomTester::runTraces(const Params &params,
                        const std::vector<std::vector<TraceRecord>> &traces)
{
    const SystemConfig &cfg = params.cfg;

    Workload wl;
    std::uint64_t accesses = 0;
    for (const auto &recs : traces) {
        accesses += recs.size();
        wl.push_back(std::make_unique<VectorTrace>(recs));
    }
    // Every core needs a trace source, even once shrinking empties it.
    while (wl.size() < cfg.numCores)
        wl.push_back(
            std::make_unique<VectorTrace>(std::vector<TraceRecord>{}));

    System sys(cfg, std::move(wl));
    if (params.checkPeriod > 0)
        sys.enablePeriodicInvariantCheck(params.checkPeriod);
    sys.run();

    Result res;
    res.valueViolations = sys.valueViolations();
    res.invariantViolations = sys.invariantViolations();
    if (auto err = sys.checkCoherenceInvariant())
        ++res.invariantViolations;
    res.accesses = accesses;
    res.stats = sys.report();
    res.coverage = sys.conformance();
    return res;
}

RandomTester::Result
RandomTester::run(const Params &params)
{
    return runTraces(params, buildTraces(params));
}

} // namespace protozoa
