/**
 * @file
 * longhorizon: the nightly long-horizon CI driver. Streams a generated
 * multi-million-record synthetic trace (O(chunk) memory — no file, no
 * materialized workload) through the default 16-core machine under
 * Protozoa-MW, one stream per core, in one of three phases:
 *
 *   --phase reference    uninterrupted run; prints the stats digest.
 *   --phase checkpoint   run to --stop, save --snapshot, exit — the
 *                        "kill" half of a kill/restore cycle.
 *   --phase restore      fresh process: load --snapshot, run to end;
 *                        prints the stats digest.
 *
 * The reference and restore phases print `digest=0x...`, and every
 * phase prints `maxrss_mb=...` on stdout; the workflow gates on the
 * restore digest matching the reference digest (the checkpoint/restore
 * contract) and on peak RSS staying under --rss-limit-mb (the
 * streaming front end's bounded-memory contract — RSS must not scale
 * with --records).
 *
 * --window-json (reference phase) writes a windowed stats series: the
 * run advances in runTo slices of --window-period cycles, and each
 * slice boundary closes one window of counter deltas taken from
 * System::report(). Sampling schedules no event, so a windowed run
 * executes the same events as an unwindowed one.
 */

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "protozoa/protozoa.hh"
#include "workload/streaming_trace.hh"

using namespace protozoa;

namespace {

// FNV-1a over the deterministic stats (mirrors tests/stats_digest.hh;
// bench/ cannot include test headers).
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

std::uint64_t
digestOf(const RunStats &s)
{
    Digest d;
    d.add(s.l1.loads);
    d.add(s.l1.stores);
    d.add(s.l1.hits);
    d.add(s.l1.misses);
    d.add(s.l1.invMsgsReceived);
    d.add(s.l1.blocksInvalidated);
    d.add(s.dir.requests);
    d.add(s.dir.l2Misses);
    d.add(s.dir.recalls);
    d.add(s.net.messages);
    d.add(s.net.bytes);
    d.add(s.net.flits);
    d.add(s.instructions);
    d.add(s.cycles);
    return d.value();
}

/**
 * The windowed stats series of a run from cycle 0: per window, counter
 * deltas since the previous window's end and the directory entries
 * valid at its end.
 */
class WindowSeries
{
  public:
    explicit WindowSeries(Cycle cycles) : period(cycles) {}

    const Cycle period;

    /** Close the window that ends at cycle @p end. */
    void
    close(System &sys, Cycle end)
    {
        const RunStats cur = sys.report();
        std::uint64_t occupancy = 0;
        for (TileId t = 0; t < sys.config().l2Tiles; ++t)
            occupancy += sys.dir(t).occupancy();
        const std::pair<const char *, std::uint64_t> fields[] = {
            {"endCycle", end},
            {"instructions", cur.instructions - prev.instructions},
            {"loads", cur.l1.loads - prev.l1.loads},
            {"stores", cur.l1.stores - prev.l1.stores},
            {"hits", cur.l1.hits - prev.l1.hits},
            {"misses", cur.l1.misses - prev.l1.misses},
            {"blocksInvalidated",
             cur.l1.blocksInvalidated - prev.l1.blocksInvalidated},
            {"usedDataBytes", cur.l1.usedDataBytes - prev.l1.usedDataBytes},
            {"unusedDataBytes",
             cur.l1.unusedDataBytes - prev.l1.unusedDataBytes},
            {"netMessages", cur.net.messages - prev.net.messages},
            {"netBytes", cur.net.bytes - prev.net.bytes},
            {"flitHops", cur.net.flitHops - prev.net.flitHops},
            {"dirRequests", cur.dir.requests - prev.dir.requests},
            {"l2Misses", cur.dir.l2Misses - prev.dir.l2Misses},
            {"recalls", cur.dir.recalls - prev.dir.recalls},
            {"dirOccupancy", occupancy},
        };
        std::string w = "    {";
        for (const auto &[key, value] : fields)
            w += "\"" + std::string(key) + "\": " + std::to_string(value) +
                 ", ";
        // Granularity mix: blocks inserted in the window, by word count.
        w += "\"blockSizeHist\": [";
        for (std::size_t b = 0; b < cur.l1.blockSizeHist.size(); ++b) {
            w += (b ? ", " : "") +
                 std::to_string(cur.l1.blockSizeHist[b] -
                                prev.l1.blockSizeHist[b]);
        }
        windows.push_back(w + "]}");
        prev = cur;
    }

    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\n  \"windowCycles\": %llu,\n  \"windows\": [\n",
                     static_cast<unsigned long long>(period));
        for (std::size_t i = 0; i < windows.size(); ++i)
            std::fprintf(f, "%s%s\n", windows[i].c_str(),
                         i + 1 < windows.size() ? "," : "");
        std::fprintf(f, "  ]\n}\n");
        return std::fclose(f) == 0;
    }

  private:
    /** Cumulative counters at the previous window's end. */
    RunStats prev;
    std::vector<std::string> windows;
};

/**
 * Run @p sys to the end in runTo slices ending at each multiple of the
 * series' period, each closing one window; then run() drains whatever
 * the slices left, and the last, partial window closes at the final
 * cycle.
 */
void
runToEnd(System &sys, WindowSeries &series)
{
    for (Cycle at = series.period;; at += series.period) {
        sys.runTo(at);
        if (sys.finished())
            break;
        series.close(sys, at);
    }
    sys.run();
    series.close(sys, sys.eventQueue().now());
}

double
maxRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0; // Linux: ru_maxrss is in KB
}

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: longhorizon --phase reference|checkpoint|restore\n"
        "         [--records N>0] [--seed S] [--stop C]\n"
        "         [--snapshot path] [--window-json path]\n"
        "         [--window-period C>0] [--rss-limit-mb M]\n"
        "       (--window-json: reference phase only)\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string phase;
    std::string snapshotPath;
    std::string windowJson;
    std::uint64_t recordsPerCore = 2'000'000;
    std::uint64_t seed = 2013;
    Cycle stop = 0;
    Cycle windowPeriod = 1'000'000;
    double rssLimitMb = 0.0;

    for (int i = 1; i < argc; ++i) {
        const auto arg = [&](const char *name) {
            if (std::strcmp(argv[i], name) != 0 || i + 1 >= argc)
                return (const char *)nullptr;
            return (const char *)argv[++i];
        };
        if (const char *v = arg("--phase"))
            phase = v;
        else if (const char *v = arg("--records"))
            recordsPerCore = std::strtoull(v, nullptr, 10);
        else if (const char *v = arg("--seed"))
            seed = std::strtoull(v, nullptr, 10);
        else if (const char *v = arg("--stop"))
            stop = std::strtoull(v, nullptr, 10);
        else if (const char *v = arg("--snapshot"))
            snapshotPath = v;
        else if (const char *v = arg("--window-json"))
            windowJson = v;
        else if (const char *v = arg("--window-period"))
            windowPeriod = std::strtoull(v, nullptr, 10);
        else if (const char *v = arg("--rss-limit-mb"))
            rssLimitMb = std::atof(v);
        else
            usage();
    }
    if (phase.empty() || recordsPerCore == 0 || windowPeriod == 0 ||
        (!windowJson.empty() && phase != "reference"))
        usage();

    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaMW;
    cfg.seed = seed;

    System sys(cfg, makeSyntheticStreamWorkload(seed, cfg.numCores,
                                                recordsPerCore));

    if (phase == "reference") {
        if (windowJson.empty()) {
            sys.run();
        } else {
            WindowSeries series(windowPeriod);
            runToEnd(sys, series);
            if (!series.write(windowJson)) {
                std::fprintf(stderr, "window stats: cannot write %s\n",
                             windowJson.c_str());
                return 1;
            }
        }
    } else if (phase == "checkpoint") {
        if (stop == 0 || snapshotPath.empty())
            usage();
        sys.runTo(stop);
        std::string err;
        if (!sys.saveSnapshotFile(snapshotPath, &err)) {
            std::fprintf(stderr, "checkpoint failed: %s\n",
                          err.c_str());
            return 1;
        }
        std::printf("checkpointed_at=%llu\n",
                     (unsigned long long)stop);
        std::printf("maxrss_mb=%.1f\n", maxRssMb());
        return 0;
    } else if (phase == "restore") {
        if (snapshotPath.empty())
            usage();
        std::string err;
        if (!sys.restoreSnapshotFile(snapshotPath, &err)) {
            std::fprintf(stderr, "restore failed: %s\n", err.c_str());
            return 1;
        }
        sys.run();
    } else {
        usage();
    }

    const RunStats stats = sys.report();
    std::printf("digest=0x%016llx\n",
                 (unsigned long long)digestOf(stats));
    std::printf("instructions=%llu cycles=%llu\n",
                 (unsigned long long)stats.instructions,
                 (unsigned long long)stats.cycles);
    std::printf("maxrss_mb=%.1f\n", maxRssMb());
    if (sys.valueViolations() != 0) {
        std::fprintf(stderr, "value violations: %llu\n",
                      (unsigned long long)sys.valueViolations());
        return 1;
    }
    if (rssLimitMb > 0 && maxRssMb() > rssLimitMb) {
        std::fprintf(stderr, "peak RSS %.1f MB exceeds limit %.1f MB\n",
                      maxRssMb(), rssLimitMb);
        return 1;
    }
    return 0;
}
