/**
 * @file
 * protocheck: bounded schedule explorer CLI.
 *
 * Enumerates cross-pair message-delivery interleavings for the curated
 * scenario library (src/check/scenario.cc) — with sleep-set partial-
 * order reduction by default — and reports states, complete schedules,
 * memoization hits and POR counters per (scenario, protocol) pair.
 * Exits nonzero on any invariant violation (printing the minimized
 * counterexample) or when a run blows its state budget.
 *
 *   protocheck --tier fast                      # PR-gating CI entries,
 *   protocheck --tier deep --max-states 200000  #   on every push
 *   protocheck --tier all --max-states 2000000  # nightly CI entry
 *   protocheck --tier large                     # 64/256-core meshes
 *   protocheck --scenario evict-vs-partial-probe --protocol mw -v
 *   protocheck --no-por --scenario upgrade-race # full enumeration
 *   protocheck --json stats.json --tier all     # machine-readable
 *   protocheck --list
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "check/explorer.hh"
#include "check/minimizer.hh"
#include "check/scenario.hh"
#include "protozoa/protozoa.hh"

using namespace protozoa;
using namespace protozoa::check;

namespace {

struct ProtoOpt
{
    const char *flag;
    ProtocolKind kind;
};

const ProtoOpt kProtocols[] = {
    {"mesi", ProtocolKind::MESI},
    {"sw", ProtocolKind::ProtozoaSW},
    {"swmr", ProtocolKind::ProtozoaSWMR},
    {"mw", ProtocolKind::ProtozoaMW},
};

void
usage()
{
    std::puts(
        "usage: protocheck [--scenario <name>|all]\n"
        "                  [--tier fast|deep|large|all]\n"
        "                  [--protocol mesi|sw|swmr|mw|all]\n"
        "                  [--max-states N] [--no-por] [--no-memo]\n"
        "                  [--json FILE]\n"
        "                  [--list] [-v]");
}

std::string
joinStresses(const Scenario &s)
{
    std::string out;
    for (const std::string &t : s.stresses) {
        if (!out.empty())
            out += ",";
        out += t;
    }
    return out;
}

/** One finished (scenario, protocol) run, for the JSON artifact. */
struct RunStat
{
    std::string scenario;
    const char *proto;
    ExploreResult res;
    double wallMs = 0;
};

void
writeJson(const std::string &path, const std::vector<RunStat> &stats,
          const ExploreLimits &lim)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"por\": %s,\n  \"maxStates\": %llu,\n"
                    "  \"runs\": [\n",
                 lim.por ? "true" : "false",
                 static_cast<unsigned long long>(lim.maxStates));
    for (std::size_t i = 0; i < stats.size(); ++i) {
        const RunStat &r = stats[i];
        const char *result = "ok";
        if (r.res.violation)
            result = "violation";
        else if (r.res.budgetExhausted)
            result = "budget-exhausted";
        std::fprintf(
            f,
            "    {\"scenario\": \"%s\", \"protocol\": \"%s\", "
            "\"states\": %llu, \"schedules\": %llu, "
            "\"memoHits\": %llu, \"porPruned\": %llu, "
            "\"porCommutations\": %llu, \"wallMs\": %.1f, "
            "\"result\": \"%s\"}%s\n",
            r.scenario.c_str(), r.proto,
            static_cast<unsigned long long>(r.res.statesVisited),
            static_cast<unsigned long long>(r.res.schedulesCompleted),
            static_cast<unsigned long long>(r.res.memoHits),
            static_cast<unsigned long long>(r.res.porPruned),
            static_cast<unsigned long long>(r.res.porCommutations),
            r.wallMs, result, i + 1 < stats.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string scenarioArg;
    std::string protocolArg = "all";
    std::string tierArg = "all";
    std::string jsonPath;
    ExploreLimits lim;
    bool verbose = false;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
            scenarioArg = argv[++i];
        } else if (std::strcmp(argv[i], "--protocol") == 0 &&
                   i + 1 < argc) {
            protocolArg = argv[++i];
        } else if (std::strcmp(argv[i], "--tier") == 0 && i + 1 < argc) {
            tierArg = argv[++i];
        } else if (std::strcmp(argv[i], "--max-states") == 0 &&
                   i + 1 < argc) {
            lim.maxStates = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--no-por") == 0) {
            lim.por = false;
        } else if (std::strcmp(argv[i], "--no-memo") == 0) {
            lim.memo = false;
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            jsonPath = argv[++i];
        } else if (std::strcmp(argv[i], "--list") == 0) {
            for (const Scenario &s : scenarioLibrary())
                std::printf("%-24s %-5s %-40s [%s]\n", s.name.c_str(),
                            s.large ? "large" : s.deep ? "deep" : "fast",
                            s.note.c_str(), joinStresses(s).c_str());
            return 0;
        } else if (std::strcmp(argv[i], "-v") == 0) {
            verbose = true;
        } else {
            usage();
            return 2;
        }
    }
    if (tierArg != "fast" && tierArg != "deep" && tierArg != "large" &&
        tierArg != "all") {
        usage();
        return 2;
    }

    std::vector<Scenario> scenarios;
    if (scenarioArg.empty() || scenarioArg == "all") {
        for (const Scenario &s : scenarioLibrary()) {
            if (tierArg == "fast" && (s.deep || s.large))
                continue;
            if (tierArg == "deep" && !s.deep)
                continue;
            if (tierArg == "large" && !s.large)
                continue;
            scenarios.push_back(s);
        }
    } else if (const Scenario *s = findScenario(scenarioArg)) {
        scenarios.push_back(*s);
    } else {
        std::fprintf(stderr, "unknown scenario '%s' (try --list)\n",
                     scenarioArg.c_str());
        return 2;
    }

    std::vector<ProtocolKind> protocols;
    for (const ProtoOpt &p : kProtocols) {
        if (protocolArg == "all" || protocolArg == p.flag)
            protocols.push_back(p.kind);
    }
    if (protocols.empty()) {
        usage();
        return 2;
    }

    std::printf("%-24s %-6s %9s %9s %9s %9s %9s  %s\n", "scenario",
                "proto", "states", "scheds", "memo", "pruned",
                "commute", "result");

    int rc = 0;
    std::uint64_t totalStates = 0;
    std::uint64_t totalSchedules = 0;
    std::vector<RunStat> stats;
    for (const Scenario &s : scenarios) {
        for (ProtocolKind proto : protocols) {
            const auto t0 = std::chrono::steady_clock::now();
            const ExploreResult r = explore(s, proto, lim);
            const double wallMs =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            totalStates += r.statesVisited;
            totalSchedules += r.schedulesCompleted;
            stats.push_back({s.name, protocolName(proto), r, wallMs});
            const char *result = "ok";
            if (r.violation)
                result = "VIOLATION";
            else if (r.budgetExhausted)
                result = "BUDGET EXHAUSTED";
            std::printf("%-24s %-6s %9llu %9llu %9llu %9llu %9llu  %s\n",
                        s.name.c_str(), protocolName(proto),
                        static_cast<unsigned long long>(r.statesVisited),
                        static_cast<unsigned long long>(
                            r.schedulesCompleted),
                        static_cast<unsigned long long>(r.memoHits),
                        static_cast<unsigned long long>(r.porPruned),
                        static_cast<unsigned long long>(
                            r.porCommutations),
                        result);
            if (verbose && r.violation) {
                std::printf("  [%s] %s\n", r.violation->kind.c_str(),
                            r.violation->detail.c_str());
                for (std::size_t k = 0; k < r.violation->steps.size();
                     ++k)
                    std::printf("    [%zu] choice %u: %s\n", k,
                                r.violation->schedule[k],
                                r.violation->steps[k].desc.c_str());
            }
            if (r.violation) {
                rc = 1;
                if (auto min = minimize(s, proto, lim)) {
                    std::printf(
                        "minimized to %zu accesses, %zu schedule "
                        "choices (%llu states across probes):\n%s\n",
                        min->scenario.accesses.size(),
                        min->schedule.size(),
                        static_cast<unsigned long long>(
                            min->statesExplored),
                        min->repro.c_str());
                }
            } else if (r.budgetExhausted) {
                rc = 1;
            }
        }
    }
    std::printf("total: %llu states, %llu complete schedules across "
                "%zu scenario/protocol pairs\n",
                static_cast<unsigned long long>(totalStates),
                static_cast<unsigned long long>(totalSchedules),
                scenarios.size() * protocols.size());
    if (!jsonPath.empty())
        writeJson(jsonPath, stats, lim);
    if (rc == 0)
        std::puts("protocheck: all scenarios clean");
    return rc;
}
