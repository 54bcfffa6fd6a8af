#include "sim/sweep_runner.hh"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "sim/system.hh"
#include "workload/benchmarks.hh"

namespace protozoa {

unsigned
envJobs(unsigned fallback)
{
    if (const char *env = std::getenv("PROTOZOA_JOBS")) {
        const long v = std::atol(env);
        if (v > 0)
            return static_cast<unsigned>(v);
    }
    if (fallback > 0)
        return fallback;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void
parallelFor(std::size_t count, unsigned workers,
            const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;
    if (workers == 0)
        workers = envJobs();
    if (workers > count)
        workers = static_cast<unsigned>(count);

    if (workers <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
            for (std::size_t i = next.fetch_add(1); i < count;
                 i = next.fetch_add(1))
                fn(i);
        });
    }
    for (auto &t : pool)
        t.join();
}

std::vector<RunStats>
runSweep(const std::vector<SweepJob> &jobs, unsigned workers,
         std::function<void(std::size_t, const SweepJob &)> progress)
{
    std::vector<RunStats> results(jobs.size());
    if (jobs.empty())
        return results;

    std::mutex progress_mutex;
    parallelFor(jobs.size(), workers, [&](std::size_t i) {
        const SweepJob &job = jobs[i];
        if (progress) {
            std::lock_guard<std::mutex> lock(progress_mutex);
            progress(i, job);
        }
        const BenchSpec &spec = findBenchmark(job.bench);
        System sys(job.cfg, spec.gen(job.cfg, job.scale));
        sys.run();
        results[i] = sys.report();
    });
    return results;
}

} // namespace protozoa
