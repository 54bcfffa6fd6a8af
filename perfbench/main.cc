/**
 * @file
 * perfbench: the repo's benchmark. One workload per invocation, driven
 * as a closed loop with one client on the calling thread:
 *
 *   perfbench --workload sweep16|mesh64|checkpoint|protocheck
 *             --seed N --seconds S --trace 0|1
 *             [--scratch DIR] [--inject chain-seed|fail-op]
 *
 * It repeats passes of the workload for about --seconds and prints a
 * host block, a host-speed canary, every metric by name with its unit,
 * the stats digest and the operations attempted and failed. The last
 * stdout line is one JSON object: the end-to-end metrics with
 * --trace 0, the per-layer metrics of a traced pass with --trace 1.
 * Exits 1 when any operation failed, 2 on a usage or build refusal.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "spans.hh"
#include "workloads.hh"

#ifndef PERFBENCH_BUILD
#define PERFBENCH_BUILD "unknown"
#endif

using namespace perfbench;

namespace {

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scratch DIR] "
                 "[--inject chain-seed|fail-op]\n"
                 "workloads:",
                 why);
    for (const BenchWorkload &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

/** Debug and sanitizer builds time something else; refuse them. */
const char *
buildRefusal()
{
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
    return "refusing a debug build: configure with "
           "-DCMAKE_BUILD_TYPE=Release";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "refusing a sanitizer build";
#else
    return nullptr;
#endif
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile @p q in [0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t rank =
        static_cast<std::size_t>(std::ceil(q * v.size()));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

double
ratio(double a, double b)
{
    return b > 0.0 ? a / b : 0.0;
}

constexpr double kMiB = 1024.0 * 1024.0;

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0; // Linux reports kilobytes
}

unsigned
onlineCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 0;
    return static_cast<unsigned>(CPU_COUNT(&set));
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
        if (!__get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                         &regs[4 * i + 2], &regs[4 * i + 3]))
            return "unknown";
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
#else
    return "unknown";
#endif
}

const char *
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "g++ " __VERSION__;
#else
    return "unknown";
#endif
}

/**
 * Host-speed canary: a fixed integer loop that does not touch the
 * program. Timed at the start and end of a run, it tells host drift
 * between two sets of runs apart from a change in the program. It is
 * printed, never reported as a metric. @return milliseconds.
 */
volatile std::uint64_t canarySink;

double
canaryMs()
{
    const double t0 = now();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t i = 0; i < 20'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x += i;
    }
    canarySink = x;
    return (now() - t0) * 1e3;
}

void
printMetrics(const char *title, const std::vector<Metric> &ms)
{
    std::printf("%s\n", title);
    for (const Metric &m : ms)
        std::printf("  %-32s %.10g %s\n", m.name.c_str(), m.value, m.unit);
}

/** End-to-end metrics every workload has: the ones the JSON line carries. */
constexpr std::size_t kJsonEndToEnd = 3;

/**
 * Every end-to-end metric that applies to @p w, the kJsonEndToEnd
 * that BENCHMARK.json declares first. The rest are zero or meaningless
 * on some workload, so they are printed but kept out of the JSON line.
 */
std::vector<Metric>
endToEnd(const BenchWorkload &w, const std::vector<PassResult> &passes,
         double rss_mb)
{
    std::vector<double> walls;
    std::vector<double> setups;
    std::vector<double> trips;
    double runSec = 0.0;
    double accesses = 0.0;
    std::uint64_t imageMax = 0;
    for (const PassResult &p : passes) {
        walls.push_back(p.wall);
        setups.insert(setups.end(), p.setups.begin(), p.setups.end());
        trips.insert(trips.end(), p.roundTrips.begin(), p.roundTrips.end());
        runSec += p.run;
        accesses += static_cast<double>(p.runAccesses);
        imageMax = std::max(imageMax, p.imageMaxBytes);
    }
    const PassResult &first = passes.front();
    std::vector<Metric> out = {
        {"wall_s", median(walls), "s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    if (w.simulates) {
        out.push_back({"sim_accesses_per_s", ratio(accesses, runSec), "1/s"});
        out.push_back({"sim_cycles", static_cast<double>(first.sim.cycles),
                       "cycles"});
        out.push_back({"net_bytes", static_cast<double>(first.sim.net.bytes),
                       "B"});
        out.push_back({"flit_hops",
                       static_cast<double>(first.sim.net.flitHops), "count"});
    }
    if (w.checkpoints) {
        out.push_back({"checkpoint_s", median(trips), "s"});
        out.push_back({"snapshot_mb", imageMax / kMiB, "MB"});
    }
    return out;
}

/**
 * Per-layer metrics of traced pass @p t, named by module. A layer a
 * workload does not exercise reads 0. Host times of layers that only
 * some workloads exercise are given as shares of the traced wall time
 * and as rates, so that no time metric is a constant 0.
 */
std::vector<Metric>
perLayer(const PassResult &t, const PassResult &u, const Tracer &tr)
{
    const auto &rs = t.sim;
    const double accesses = static_cast<double>(rs.l1.loads + rs.l1.stores);
    const double pct = 100.0 / t.wall;
    std::vector<double> ctorMs;
    for (double s : t.ctorEach)
        ctorMs.push_back(s * 1e3);
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    return {
        {"workload.gen_s", t.gen, "s"},
        {"workload.records", d(t.records), "count"},
        {"workload.trace_mb", t.traceBytes / kMiB, "MB"},
        {"workload.trace_write_mb_per_s",
         ratio(t.traceBytes / kMiB, t.traceWrite), "MB/s"},

        {"sim.systems", d(t.systems), "count"},
        {"sim.ctor_s", t.ctor, "s"},
        {"sim.ctor_ms_p50", percentile(ctorMs, 0.5), "ms"},
        {"sim.ctor_ms_p90", percentile(ctorMs, 0.9), "ms"},
        {"sim.dtor_s", t.dtor, "s"},
        {"sim.run_pct", t.run * pct, "%"},
        {"sim.events", d(t.runEvents), "count"},
        {"sim.events_per_s", ratio(d(t.runEvents), t.run), "1/s"},
        {"sim.cold_events_per_s", ratio(d(t.coldEvents), t.coldSec), "1/s"},
        {"sim.steady_events_per_s", ratio(d(t.steadyEvents), t.steadySec),
         "1/s"},
        {"sim.accesses_per_s", ratio(d(t.runAccesses), t.run), "1/s"},
        {"sim.bucket_hit_rate",
         ratio(d(rs.kernel.bucketScheduled), d(rs.kernel.eventsScheduled)),
         "ratio"},
        {"sim.max_queue_depth", d(rs.kernel.maxQueueDepth), "count"},
        {"sim.invariant_check_pct", t.invariant * pct, "%"},
        {"sim.cycles", d(rs.cycles), "cycles"},

        {"cache.accesses", accesses, "count"},
        {"cache.hit_rate", ratio(d(rs.l1.hits), d(rs.l1.hits + rs.l1.misses)),
         "ratio"},
        {"cache.used_data_pct",
         100.0 * ratio(d(rs.l1.usedDataBytes), d(rs.l1.dataBytes())), "%"},
        {"cache.blocks_invalidated", d(rs.l1.blocksInvalidated), "count"},

        {"protocol.dir_requests", d(rs.dir.requests), "count"},
        {"protocol.l2_misses", d(rs.dir.l2Misses), "count"},
        {"protocol.recalls", d(rs.dir.recalls), "count"},
        {"protocol.inv_msgs", d(rs.l1.invMsgsReceived), "count"},
        {"protocol.ctrl_bytes", d(rs.l1.ctrlBytesTotal()), "B"},
        {"protocol.nack_bytes",
         d(rs.l1.ctrlBytes[static_cast<unsigned>(protozoa::CtrlClass::Nack)]),
         "B"},

        {"noc.messages", d(rs.net.messages), "count"},
        {"noc.flits", d(rs.net.flits), "count"},
        {"noc.bytes", d(rs.net.bytes), "B"},
        {"noc.flit_hops", d(rs.net.flitHops), "count"},
        {"noc.bytes_per_access", ratio(d(rs.net.bytes), accesses), "B"},

        {"mem.read_bytes", d(rs.dir.memReadBytes), "B"},
        {"mem.write_bytes", d(rs.dir.memWriteBytes), "B"},
        {"mem.value_violations", d(t.valueViolations), "count"},

        {"snapshot.checkpoints", d(t.roundTrips.size()), "count"},
        {"snapshot.save_pct", t.save * pct, "%"},
        {"snapshot.restore_pct", t.restore * pct, "%"},
        {"snapshot.restore_ctor_pct", t.restoreCtor * pct, "%"},
        {"snapshot.save_mb_per_s", ratio(t.imageBytes / kMiB, t.save),
         "MB/s"},
        {"snapshot.restore_mb_per_s", ratio(t.imageBytes / kMiB, t.restore),
         "MB/s"},
        {"snapshot.image_mb", t.imageMaxBytes / kMiB, "MB"},

        {"check.pairs", d(t.check.pairs), "count"},
        {"check.explore_pct", t.explore * pct, "%"},
        {"check.states", d(t.check.states), "count"},
        {"check.states_per_s", ratio(d(t.check.states), t.explore), "1/s"},
        {"check.deliveries", d(t.check.deliveries), "count"},
        {"check.schedules", d(t.check.schedules), "count"},
        {"check.memo_hit_rate",
         ratio(d(t.check.memoHits), d(t.check.memoHits + t.check.states)),
         "ratio"},
        {"check.por_pruned", d(t.check.porPruned), "count"},

        {"trace.spans", d(tr.spans().size()), "count"},
        {"trace.overhead_pct", 100.0 * ratio(t.wall - u.wall, u.wall), "%"},
    };
}

/**
 * Print each layer's self time in traced pass @p t, check that the
 * self times sum to the traced wall time, give the tracing overhead
 * against untraced pass @p u, and state whether the trace confirms the
 * workload's purpose (informational: a later optimization may change
 * the answer without anything being wrong).
 */
void
spanReport(const BenchWorkload &w, const PassResult &t, const PassResult &u,
           const Tracer &tr)
{
    const auto layers = tr.byLayer();
    double total = 0.0;
    std::printf("self time by layer (traced pass):\n");
    std::printf("  %-24s %10s %12s %8s\n", "span", "calls", "self s",
                "share");
    for (const auto &[name, lt] : layers) {
        std::printf("  %-24s %10llu %12.6f %7.2f%%\n", name.c_str(),
                    static_cast<unsigned long long>(lt.calls), lt.self,
                    100.0 * lt.self / t.wall);
        total += lt.self;
    }
    std::printf("  self-time sum %.6f s, traced wall %.6f s (%s)\n", total,
                t.wall,
                std::fabs(total - t.wall) <= 1e-6 * t.wall ? "equal"
                                                           : "DIFFERENT");
    std::printf("  untraced wall %.6f s, tracing overhead %+.6f s "
                "(%+.2f%%)\n",
                u.wall, t.wall - u.wall, 100.0 * (t.wall - u.wall) / u.wall);

    const auto self = [&](const char *name) {
        const auto it = layers.find(name);
        return it == layers.end() ? 0.0 : it->second.self;
    };
    const std::string name = w.name;
    if (name == "sweep16") {
        const double share = (self("sim.ctor") + self("sim.dtor")) / t.wall;
        std::printf("purpose: System construction + teardown %.1f%% of wall "
                    "(more than half: %s)\n",
                    100 * share, share > 0.5 ? "yes" : "no");
    } else if (name == "mesh64") {
        const double share = self("sim.runTo") / t.wall;
        std::printf("purpose: System::run/runTo %.1f%% of wall (more than "
                    "85%%: %s)\n",
                    100 * share, share > 0.85 ? "yes" : "no");
    } else if (name == "checkpoint") {
        const double snap = self("snapshot.save") + self("snapshot.restore") +
                            self("snapshot.restore_ctor");
        double other = 0.0;
        std::string otherName = "none";
        for (const auto &[n, lt] : layers) {
            if (n == "sim.runTo" || n.rfind("snapshot.", 0) == 0)
                continue;
            if (lt.self > other) {
                other = lt.self;
                otherName = n;
            }
        }
        std::printf("purpose: save + restore + restore-construction %.3f s; "
                    "largest other cost outside runTo %s %.3f s (largest: "
                    "%s)\n",
                    snap, otherName.c_str(), other,
                    snap > other ? "yes" : "no");
    } else if (name == "protocheck") {
        const double share = self("check.explore") / t.wall;
        std::printf("purpose: check::explore %.1f%% of wall (nearly all, "
                    "over 95%%: %s)\n",
                    100 * share, share > 0.95 ? "yes" : "no");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (const char *why = buildRefusal())
        usage(why);
    // What is measured must not depend on the caller's environment:
    // these select the sharded engine, sweep threads and trace scale.
    for (const char *var :
         {"PROTOZOA_SIM_THREADS", "PROTOZOA_JOBS", "PROTOZOA_SCALE"})
        unsetenv(var);

    std::string workload;
    std::string scratch = ".";
    std::string inject;
    long long seed = -1;
    double seconds = 0.0;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        if (i + 1 >= argc)
            usage("every option takes a value");
        const std::string opt = argv[i];
        const char *val = argv[++i];
        char *end = nullptr;
        if (opt == "--workload") {
            workload = val;
        } else if (opt == "--seed") {
            seed = std::strtoll(val, &end, 10);
            if (*end || seed < 0)
                usage("--seed takes a whole number");
        } else if (opt == "--seconds") {
            seconds = std::strtod(val, &end);
            if (*end || !(seconds > 0.0))
                usage("--seconds takes a positive number");
        } else if (opt == "--trace") {
            trace = std::strcmp(val, "0") == 0 ? 0
                    : std::strcmp(val, "1") == 0 ? 1 : -1;
            if (trace < 0)
                usage("--trace takes 0 or 1");
        } else if (opt == "--scratch") {
            scratch = val;
        } else if (opt == "--inject") {
            inject = val;
        } else {
            usage(("unknown option " + opt).c_str());
        }
    }
    const BenchWorkload *w = findWorkload(workload);
    if (!w)
        usage(("unknown workload '" + workload + "'").c_str());
    if (seed < 0 || seconds <= 0.0 || trace < 0)
        usage("--workload, --seed, --seconds and --trace are required");

    PassConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(seed);
    cfg.scratchDir = scratch;
    if (inject == "chain-seed")
        cfg.inject = Inject::ChainSeed;
    else if (inject == "fail-op")
        cfg.inject = Inject::FailOp;
    else if (!inject.empty())
        usage("--inject takes chain-seed or fail-op");

    std::printf("perfbench %s seed=%lld seconds=%g trace=%d\n", w->name,
                seed, seconds, trace);
    std::printf("host: nproc=%u cpu=\"%s\" compiler=\"%s\" build=\"%s\"\n",
                onlineCpus(), cpuModel().c_str(), compilerName(),
                PERFBENCH_BUILD);
    const double canaryStart = canaryMs();

    // Passes repeat while the next one is expected to fit in --seconds;
    // a traced run alternates an untraced pass (its reference: digests,
    // run lengths, overhead) with a traced one. At least one of each.
    std::vector<PassResult> untraced;
    std::vector<PassResult> traced;
    std::vector<std::unique_ptr<Tracer>> tracers;
    Tracer off(false);
    const double start = now();
    double longest = 0.0;
    do {
        const double t0 = now();
        untraced.push_back(
            w->pass(cfg, off, untraced.empty() ? nullptr : &untraced.front()));
        if (trace) {
            tracers.push_back(std::make_unique<Tracer>(true));
            traced.push_back(w->pass(cfg, *tracers.back(), &untraced.back()));
        }
        longest = std::max(longest, now() - t0);
    } while (now() - start + longest <= seconds);

    const double canaryEnd = canaryMs();
    std::printf("canary: start %.3f ms, end %.3f ms (fixed loop, not a "
                "metric)\n",
                canaryStart, canaryEnd);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const auto *set : {&untraced, &traced}) {
        for (const PassResult &p : *set) {
            attempted += p.ops.size();
            failed += p.failed();
            for (const Op &op : p.ops) {
                if (!op.failure.empty())
                    std::printf("FAILED %s: %s\n", op.label.c_str(),
                                op.failure.c_str());
            }
        }
    }
    std::printf("passes: %zu untraced, %zu traced; untraced wall s:",
                untraced.size(), traced.size());
    for (const PassResult &p : untraced)
        std::printf(" %.4f", p.wall);
    std::printf("\n");
    std::printf("digest: 0x%016llx\n",
                static_cast<unsigned long long>(untraced.front().digest));
    std::printf("operations: attempted %llu, failed %llu (%.2f%%)\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                100.0 * ratio(failed, attempted));

    std::vector<Metric> json;
    const std::vector<Metric> e2e = endToEnd(*w, untraced, peakRssMb());
    printMetrics("end-to-end:", e2e);
    if (!trace) {
        json.assign(e2e.begin(), e2e.begin() + kJsonEndToEnd);
    } else {
        // Report the traced pass with the median wall time.
        std::vector<std::size_t> order(traced.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(), [&](auto a, auto b) {
            return traced[a].wall < traced[b].wall;
        });
        const std::size_t m = order[(order.size() - 1) / 2];
        spanReport(*w, traced[m], untraced[m], *tracers[m]);
        const std::string path = scratch + "/perfbench-spans-" + w->name +
                                 "-seed" + std::to_string(seed) + ".jsonl";
        if (tracers[m]->write(path))
            std::printf("spans: %zu written to %s\n",
                        tracers[m]->spans().size(), path.c_str());
        else
            std::printf("spans: cannot write %s\n", path.c_str());
        json = perLayer(traced[m], untraced[m], *tracers[m]);
        printMetrics("per-layer:", json);
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < json.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", json[i].name.c_str(), json[i].value,
                    json[i].unit);
    std::printf("}}\n");
    return failed == 0 ? 0 : 1;
}
