/**
 * @file
 * Parallel experiment sweep runner.
 *
 * Every paper figure re-runs the 28-benchmark roster under several
 * protocols; each (benchmark, config) pair is an independent System
 * with its own event queue, caches and statistics, so the sweep is
 * embarrassingly parallel. runSweep() fans the job list across a
 * fixed pool of worker threads and returns RunStats in job order, so
 * results are deterministic and identical to a serial sweep.
 *
 * Worker count comes from PROTOZOA_JOBS when set (benchmarks honour it
 * the same way they honour PROTOZOA_SCALE), otherwise from
 * std::thread::hardware_concurrency().
 */

#ifndef PROTOZOA_SIM_SWEEP_RUNNER_HH
#define PROTOZOA_SIM_SWEEP_RUNNER_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"

namespace protozoa {

/** One independent simulation in a sweep. */
struct SweepJob
{
    /** Paper benchmark name (see workload/benchmarks.hh). */
    std::string bench;
    SystemConfig cfg;
    /** Workload size multiplier, as in runBenchmark(). */
    double scale = 1.0;
};

/**
 * Worker count for sweeps: PROTOZOA_JOBS when set and positive, else
 * @p fallback when nonzero, else the hardware thread count (min 1).
 */
unsigned envJobs(unsigned fallback = 0);

/**
 * Run @p fn(i) for every i in [0, count) across a pool of @p workers
 * threads (0 = envJobs(); 1 = inline on the calling thread, the exact
 * serial path). Work-stealing by atomic index; returns when every
 * index has completed. @p fn must be thread-safe across indices.
 */
void parallelFor(std::size_t count, unsigned workers,
                 const std::function<void(std::size_t)> &fn);

/**
 * Run every job to completion and return one RunStats per job, in job
 * order regardless of completion order.
 *
 * @param workers thread count; 0 means envJobs(). With one worker the
 *        jobs run inline on the calling thread (the exact serial path).
 * @param progress optional callback invoked as each job starts; calls
 *        are serialized, so it may write to stderr freely.
 */
std::vector<RunStats>
runSweep(const std::vector<SweepJob> &jobs, unsigned workers = 0,
         std::function<void(std::size_t, const SweepJob &)> progress = {});

} // namespace protozoa

#endif // PROTOZOA_SIM_SWEEP_RUNNER_HH
