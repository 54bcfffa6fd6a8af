/**
 * @file
 * Protocol race-hunting stress campaign (Sec. 3.6: random tester).
 *
 * Fans (protocol x jitter profile x access pattern x seed) RandomTester
 * jobs across the thread pool, with golden-value checks, periodic SWMR
 * invariant scans, the deadlock watchdog and transition-coverage
 * tracking. Exits nonzero on any violation or unexplained coverage gap.
 *
 * PROTOZOA_SCALE scales accesses per core (1.0 = 2000/core/job, which
 * with the default 3x4x8 grid exceeds 1.5M accesses per protocol).
 * PROTOZOA_JOBS sets the worker count. Argument "-v" lists every
 * documented transition with its hit count. Argument "--small" runs
 * the hostile 4-core 2x2 grid instead: ~10x the seeds for the same
 * wall-clock, trading system size for interleaving diversity.
 * Argument "--large" runs the 64-core 8x8 grid: fewer seeds, but
 * recall/invalidation fan-outs span 64-wide sharer masks.
 */

#include <cstdio>
#include <cstring>
#include <iostream>

#include "check/campaign_shrink.hh"
#include "protozoa/protozoa.hh"
#include "sim/stress_campaign.hh"

using namespace protozoa;

int
main(int argc, char **argv)
{
    bool verbose = false;
    bool small = false;
    bool large = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "-v") == 0)
            verbose = true;
        else if (std::strcmp(argv[i], "--small") == 0)
            small = true;
        else if (std::strcmp(argv[i], "--large") == 0)
            large = true;
    }
    const double scale = envScale();

    CampaignSpec spec = small   ? CampaignSpec::smallSystem()
                        : large ? CampaignSpec::largeMesh()
                                : CampaignSpec();
    spec.tester.accessesPerCore =
        static_cast<std::uint64_t>(2000 * scale) + 1;
    spec.progress = false;

    std::uint64_t per_proto =
        spec.tester.accessesPerCore * spec.tester.cfg.numCores;
    per_proto *= spec.profiles.size() * spec.patterns.size() *
                 spec.seeds.size();
    std::printf("stress campaign: %zu protocols x %zu profiles x %zu "
                "patterns x %zu seeds (~%llu accesses/protocol)\n",
                spec.protocols.size(), spec.profiles.size(),
                spec.patterns.size(), spec.seeds.size(),
                static_cast<unsigned long long>(per_proto));

    const CampaignResult res = runCampaign(spec);
    std::cout << res.report(verbose);
    if (!res.failures.empty()) {
        // Auto-shrink the first (canonically ordered) failure so the
        // console already carries a small repro.
        std::printf("auto-shrinking first failure...\n");
        if (auto shrunk = check::shrinkCampaignFailure(res.failures[0])) {
            std::cout << shrunk->summary;
            if (shrunk->minimized)
                std::cout << shrunk->minimized->repro;
        } else {
            std::printf("failure did not reproduce serially; "
                        "re-run the grid point by hand\n");
        }
    }
    return res.passed() ? 0 : 1;
}
