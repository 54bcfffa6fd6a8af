#include "sim/stress_campaign.hh"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <string_view>
#include <tuple>

#include "common/log.hh"
#include "sim/sweep_runner.hh"

namespace protozoa {

const std::vector<JitterProfile> &
standardJitterProfiles()
{
    static const std::vector<JitterProfile> profiles{
        {"off", false, 0, 0.0},
        {"mild", true, 4, 0.02},
        {"wild", true, 16, 0.10},
        {"occ", true, 4, 0.02, 4},
    };
    return profiles;
}

CampaignSpec
CampaignSpec::smallSystem()
{
    CampaignSpec spec;
    spec.tester.cfg.setMesh(2, 2);
    spec.seeds.clear();
    for (std::uint64_t s = 1; s <= 80; ++s)
        spec.seeds.push_back(s);
    return spec;
}

CampaignSpec
CampaignSpec::largeMesh()
{
    CampaignSpec spec;
    spec.tester.cfg.setMesh(8, 8);
    spec.seeds.clear();
    for (std::uint64_t s = 1; s <= 20; ++s)
        spec.seeds.push_back(s);
    // Quarter the per-tile L2 so 4x the tiles keeps the same
    // aggregate conflict pressure (two 8-way sets per tile), and
    // grow the hot pool 4x so per-region sharer counts match the
    // 16-core grid (one core per hot region on average): 64 cores on
    // a 16-region pool bury every region under dozens of sharers,
    // which starves the single-writer directory states (WR,
    // last-writer evictions) that the coverage matrix requires.
    spec.tester.cfg.l2BytesPerTile = 1024;
    spec.tester.regions = 64;
    // Violations gate this grid; matrix completeness stays with the
    // 16/4-core grids. 64 cores dilute per-(core, region) density
    // until the multi-block-writer rows ((WR, Put) -> WR) need far
    // more than a CI budget of accesses to appear.
    spec.requireFullCoverage = false;
    return spec;
}

bool
CampaignResult::passed() const
{
    if (valueViolations != 0 || invariantViolations != 0)
        return false;
    if (requireFullCoverage) {
        for (const auto &cov : coverage) {
            if (!cov.complete())
                return false;
        }
    }
    return true;
}

std::string
CampaignResult::report(bool verbose) const
{
    std::ostringstream os;
    os << "stress campaign: " << jobs << " jobs, " << accesses
       << " accesses, " << valueViolations << " value violations, "
       << invariantViolations << " invariant violations\n";
    for (const auto &f : failures) {
        os << "  FAILED " << protocolName(f.params.cfg.protocol) << " "
           << f.profile << " knobs=" << f.knobs << " "
           << RandomTester::patternName(f.params.pattern) << " seed="
           << f.params.cfg.seed << " (" << f.valueViolations << " value, "
           << f.invariantViolations << " invariant)\n";
    }
    for (const auto &cov : coverage)
        os << cov.report(verbose);
    os << (passed() ? "campaign PASSED" : "campaign FAILED") << "\n";
    return os.str();
}

CampaignResult
runCampaign(const CampaignSpec &spec)
{
    struct Job
    {
        std::size_t protoIdx;
        RandomTester::Params params;
        const char *profile;
        const char *knobs;
    };

    std::vector<Job> jobs;
    for (std::size_t p = 0; p < spec.protocols.size(); ++p) {
        for (const auto &prof : spec.profiles) {
            for (const auto &knob : spec.knobs) {
                for (const auto pattern : spec.patterns) {
                    for (const auto seed : spec.seeds) {
                        Job job{p, spec.tester, prof.name, knob.name};
                        auto &rp = job.params;
                        rp.cfg.protocol = spec.protocols[p];
                        rp.cfg.seed = seed;
                        rp.cfg.faultInjection = prof.faultInjection;
                        rp.cfg.faultJitterMax = prof.jitterMax;
                        rp.cfg.faultReorderProb = prof.reorderProb;
                        rp.cfg.occupancyJitter = prof.occJitterMax > 0;
                        rp.cfg.occupancyJitterMax = prof.occJitterMax;
                        rp.cfg.threeHop = knob.threeHop;
                        rp.cfg.directory = knob.directory;
                        rp.pattern = pattern;
                        jobs.push_back(job);
                    }
                }
            }
        }
    }

    CampaignResult res;
    res.jobs = jobs.size();
    res.requireFullCoverage = spec.requireFullCoverage;
    res.coverage.reserve(spec.protocols.size());
    for (const auto proto : spec.protocols)
        res.coverage.emplace_back(proto);

    std::mutex merge_mutex;
    parallelFor(jobs.size(), spec.workers, [&](std::size_t i) {
        const Job &job = jobs[i];
        if (spec.progress) {
            std::lock_guard<std::mutex> lock(merge_mutex);
            std::fprintf(stderr,
                         "[campaign %zu/%zu] %s %s %s seed=%llu\n",
                         i + 1, jobs.size(),
                         protocolName(job.params.cfg.protocol),
                         job.profile,
                         RandomTester::patternName(job.params.pattern),
                         static_cast<unsigned long long>(
                             job.params.cfg.seed));
        }
        const RandomTester::Result r = RandomTester::run(job.params);
        std::lock_guard<std::mutex> lock(merge_mutex);
        res.accesses += r.accesses;
        res.valueViolations += r.valueViolations;
        res.invariantViolations += r.invariantViolations;
        if (r.valueViolations != 0 || r.invariantViolations != 0) {
            CampaignFailure f;
            f.params = job.params;
            f.profile = job.profile;
            f.knobs = job.knobs;
            f.valueViolations = r.valueViolations;
            f.invariantViolations = r.invariantViolations;
            res.failures.push_back(f);
        }
        res.coverage[job.protoIdx].merge(r.coverage);
    });

    // Worker completion order is nondeterministic; canonicalize the
    // failure list so reports and the shrinker see a stable order.
    std::sort(res.failures.begin(), res.failures.end(),
              [](const CampaignFailure &a, const CampaignFailure &b) {
                  const auto key = [](const CampaignFailure &f) {
                      return std::make_tuple(
                          static_cast<int>(f.params.cfg.protocol),
                          std::string_view(f.profile),
                          std::string_view(f.knobs),
                          static_cast<int>(f.params.pattern),
                          f.params.cfg.seed);
                  };
                  return key(a) < key(b);
              });
    return res;
}

} // namespace protozoa
