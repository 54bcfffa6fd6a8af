/**
 * @file
 * Sec. 3.6 verification experiment: the random protocol tester, run
 * per protocol with shrunken caches (forcing evictions, writeback
 * races, and inclusive recalls), reporting load-value and SWMR
 * invariant violations — both must be zero — plus activity counters
 * proving the hard paths were exercised.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "sim/random_tester.hh"

using namespace protozoa;
using namespace protozoa::bench;

int
main()
{
    const double scale = envScale();
    const auto accesses =
        static_cast<std::uint64_t>(12000 * scale);

    std::printf("Sec. 3.6: random protocol tester "
                "(%llu accesses/core x 16 cores per protocol)\n\n",
                static_cast<unsigned long long>(accesses));

    TextTable table({"protocol", "value-violations", "swmr-violations",
                     "misses", "invalidations", "recalls"});

    bool all_clean = true;
    for (ProtocolKind kind : allProtocols()) {
        std::fprintf(stderr, "  fuzzing %s...\n", shortName(kind));
        RandomTester::Params p;
        p.cfg.protocol = kind;
        p.accessesPerCore = accesses;
        p.regions = 16;
        p.checkPeriod = 128;
        p.cfg.seed = 2026;
        const auto result = RandomTester::run(p);

        all_clean &= result.valueViolations == 0 &&
            result.invariantViolations == 0;
        table.addRow({shortName(kind),
                      std::to_string(result.valueViolations),
                      std::to_string(result.invariantViolations),
                      std::to_string(result.stats.l1.misses),
                      std::to_string(result.stats.l1.invMsgsReceived),
                      std::to_string(result.stats.dir.recalls)});
    }

    table.print(std::cout);
    std::printf("\n%s\n", all_clean
                              ? "PASS: all protocols clean."
                              : "FAIL: violations detected!");
    return all_clean ? 0 : 1;
}
