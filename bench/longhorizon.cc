/**
 * @file
 * longhorizon: the nightly long-horizon CI driver. Streams a generated
 * multi-million-record synthetic trace (O(chunk) memory — no file, no
 * materialized workload) through a full system, in one of three
 * phases:
 *
 *   --phase reference    uninterrupted run; prints the stats digest.
 *   --phase checkpoint   run to --stop, save --snapshot, exit — the
 *                        "kill" half of a kill/restore cycle.
 *   --phase restore      fresh process: load --snapshot, run to end;
 *                        prints the stats digest.
 *
 * Every phase prints `digest=0x...` and `maxrss_mb=...` on stdout; the
 * workflow gates on the restore digest matching the reference digest
 * (the checkpoint/restore contract) and on peak RSS staying under
 * --rss-limit-mb (the streaming front end's bounded-memory contract —
 * RSS must not scale with --records). Windowed stats are enabled in
 * all phases (identical event streams) and written as a JSON artifact
 * wherever --window-json is given.
 */

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

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
        "         [--records N] [--cores N] [--seed S] [--stop C]\n"
        "         [--snapshot path] [--window-json path]\n"
        "         [--window-period C] [--rss-limit-mb M]\n");
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
    unsigned cores = 16;
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
        else if (const char *v = arg("--cores"))
            cores = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
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
    if (phase.empty())
        usage();

    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaMW;
    cfg.seed = seed;

    System sys(cfg, makeSyntheticStreamWorkload(seed, cores,
                                                recordsPerCore));
    sys.enableWindowStats(windowPeriod, windowJson);

    if (phase == "reference") {
        sys.run();
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
