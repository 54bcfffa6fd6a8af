/**
 * @file
 * Shared plumbing for the experiment harnesses in bench/: grids of
 * benchmark x machine runs, swept with progress reporting.
 *
 * Every harness honours PROTOZOA_SCALE (workload size multiplier,
 * default 1.0) and PROTOZOA_JOBS (sweep worker threads, default
 * hardware concurrency) so a quick smoke pass and a high-fidelity
 * pass use the same binaries. Grids fan out through runSweep(); the
 * result order — and every statistic — is identical to a serial run.
 */

#ifndef PROTOZOA_BENCH_BENCH_UTIL_HH
#define PROTOZOA_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>
#include <vector>

#include "protozoa/protozoa.hh"

namespace protozoa {
namespace bench {

/** The four protocols in the paper's bar order (ProtocolKind order). */
inline const std::vector<ProtocolKind> &
allProtocols()
{
    static const std::vector<ProtocolKind> kinds = {
        ProtocolKind::MESI, ProtocolKind::ProtozoaSW,
        ProtocolKind::ProtozoaSWMR, ProtocolKind::ProtozoaMW};
    return kinds;
}

/** Short column labels matching the paper's figures. */
inline const char *
shortName(ProtocolKind kind)
{
    switch (kind) {
      case ProtocolKind::MESI:         return "MESI";
      case ProtocolKind::ProtozoaSW:   return "SW";
      case ProtocolKind::ProtozoaSWMR: return "SW+MR";
      case ProtocolKind::ProtozoaMW:   return "MW";
    }
    return "?";
}

/** The paper benchmarks' names, in roster order. */
inline std::vector<std::string>
paperBenchmarkNames()
{
    std::vector<std::string> names;
    for (const BenchSpec &spec : paperBenchmarks())
        names.push_back(spec.name);
    return names;
}

/** A grid of runs: every benchmark in benches on every machine in configs. */
struct Grid
{
    std::vector<std::string> benches;
    std::vector<SystemConfig> configs;
};

/**
 * Run every job of @p grids as one sweep, fanned across PROTOZOA_JOBS
 * worker threads (one System per job), so no grid waits for another's
 * longest run. Progress and the kernel-health summary go to stderr so
 * stdout stays a clean table. Returns each grid's stats
 * benchmark-major: result[g][b][c] is grids[g].benches[b] on
 * grids[g].configs[c].
 */
inline std::vector<std::vector<std::vector<RunStats>>>
runGrid(const std::vector<Grid> &grids, double scale)
{
    std::vector<SweepJob> jobs;
    for (const Grid &grid : grids)
        for (const std::string &bench : grid.benches)
            for (const SystemConfig &cfg : grid.configs)
                jobs.push_back({bench, cfg, scale});

    const unsigned workers = envJobs();
    std::fprintf(stderr, "  sweep: %zu runs on %u worker thread(s)\n",
                 jobs.size(), workers);
    auto stats =
        runSweep(jobs, workers, [](std::size_t, const SweepJob &job) {
            std::fprintf(stderr, "  running %-18s %3u cores %-8s...\n",
                         job.bench.c_str(), job.cfg.numCores,
                         shortName(job.cfg.protocol));
        });

    std::vector<std::vector<std::vector<RunStats>>> results;
    KernelStats kernel;
    std::size_t j = 0;
    for (const Grid &grid : grids) {
        auto &rows = results.emplace_back(grid.benches.size());
        for (auto &row : rows) {
            for (std::size_t c = 0; c < grid.configs.size(); ++c, ++j) {
                kernel.merge(stats[j].kernel);
                row.push_back(std::move(stats[j]));
            }
        }
    }
    std::fprintf(stderr, "  %s\n", kernelSummary(kernel).c_str());
    return results;
}

/** One grid's stats: grid[b][c] is benches[b] on configs[c]. */
inline std::vector<std::vector<RunStats>>
runGrid(const std::vector<std::string> &benches,
        const std::vector<SystemConfig> &configs, double scale)
{
    return std::move(runGrid({{benches, configs}}, scale)[0]);
}

} // namespace bench
} // namespace protozoa

#endif // PROTOZOA_BENCH_BENCH_UTIL_HH
