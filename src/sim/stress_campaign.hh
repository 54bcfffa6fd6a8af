/**
 * @file
 * Protocol race-hunting stress campaign.
 *
 * Fans a (protocol x jitter profile x access pattern x seed) grid of
 * RandomTester jobs across the sweep_runner thread pool. Each job runs
 * with the golden-memory value oracle, the periodic SWMR invariant
 * scan, the deadlock watchdog, and transition-coverage recording; the
 * campaign merges per-job coverage into one matrix per protocol so the
 * final report can show which documented transitions the interleavings
 * actually reached (Sec. 3.6 of the paper: "we have tested protozoa
 * extensively with the random tester (1 million accesses)").
 *
 * Jitter profiles modulate the Mesh fault injector: "off" keeps the
 * default deterministic network; the others add bounded per-message
 * jitter plus occasional long holds that reorder messages between
 * different (src,dst) pairs (same-pair FIFO is preserved — the
 * protocol's one real network ordering assumption).
 */

#ifndef PROTOZOA_SIM_STRESS_CAMPAIGN_HH
#define PROTOZOA_SIM_STRESS_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "protocol/conformance.hh"
#include "sim/random_tester.hh"

namespace protozoa {

/** One fault profile in the campaign grid. */
struct JitterProfile
{
    const char *name;
    bool faultInjection;
    Cycle jitterMax;
    double reorderProb;
    /** Controller occupancy jitter bound (0 = off). */
    Cycle occJitterMax = 0;
};

/**
 * The four standard profiles: off, mild jitter, wild reordering, and
 * "occ" (mild network jitter plus controller occupancy jitter).
 */
const std::vector<JitterProfile> &standardJitterProfiles();

/** One coherence-knob combination in the campaign grid. */
struct KnobSetting
{
    const char *name;
    bool threeHop;
    DirectoryKind directory;
};

struct CampaignSpec
{
    /** Protocols to stress (default: the full family). */
    std::vector<ProtocolKind> protocols{
        ProtocolKind::MESI, ProtocolKind::ProtozoaSW,
        ProtocolKind::ProtozoaSWMR, ProtocolKind::ProtozoaMW};
    /** Jitter profiles (default: standardJitterProfiles()). */
    std::vector<JitterProfile> profiles = standardJitterProfiles();
    /**
     * Coherence-knob combinations; every grid point runs once per
     * setting and the merged coverage matrix records which knob
     * profile reached each documented transition.
     */
    std::vector<KnobSetting> knobs{
        {"base", false, DirectoryKind::InCacheExact}};
    /** Access-pattern archetypes. */
    std::vector<RandomTester::Pattern> patterns{
        RandomTester::Pattern::Uniform,
        RandomTester::Pattern::FalseShareBoundary,
        RandomTester::Pattern::EvictionPressure,
        RandomTester::Pattern::UpgradeHeavy};
    /** Seeds; each grid point runs once per seed. */
    std::vector<std::uint64_t> seeds{1, 2, 3, 4, 5, 6, 7, 8};
    /**
     * The tester run every job starts from. Each job overwrites
     * cfg.protocol and cfg.seed, the jitter profile's five fault
     * fields (cfg.faultInjection, faultJitterMax, faultReorderProb,
     * occupancyJitter, occupancyJitterMax), the knob setting's
     * cfg.threeHop and cfg.directory, and the pattern; the machine,
     * the pools, accessesPerCore and checkPeriod come from here. The
     * default is the tester's own run with a generous deadlock
     * watchdog: jitter holds stretch latencies, but a healthy protocol
     * still completes every transaction within a few hundred cycles.
     * Its 4 KB L2 tiles keep inclusion recalls frequent at 16 tiles;
     * wider meshes shrink them further so the per-tile conflict
     * pressure (and thus the recall rate) does not dilute with the
     * tile count.
     */
    RandomTester::Params tester = [] {
        RandomTester::Params p;
        p.cfg.watchdogCycles = 50000;
        return p;
    }();
    /** Worker threads (0 = envJobs()). */
    unsigned workers = 0;
    /** Serialized per-job progress lines on stderr. */
    bool progress = false;
    /**
     * Gate passed() on full transition-matrix coverage. The default
     * and small grids own that gate; the large-mesh grid turns it
     * off, because 64 cores dilute the per-(core, region) access
     * density until multi-block-writer transitions like
     * (WR, Put) -> WR stop occurring within any CI-sized budget (see
     * EXPERIMENTS.md). Unexplained gaps are still reported.
     */
    bool requireFullCoverage = true;

    /**
     * Hostile 4-core 2x2 variant: each job costs ~1/10 of a 16-core
     * one, so the same wall-clock budget covers ~10x the seeds. Fewer
     * cores means each region's contenders collide more often per
     * access, so per-seed race density does not drop with system size.
     */
    static CampaignSpec smallSystem();

    /**
     * 64-core 8x8 variant: each job costs ~4x a 16-core one, so the
     * grid keeps the full profile x pattern matrix but trims the seed
     * list. Large meshes trade per-region collision density for
     * fan-out width — recalls and invalidation storms touch up to 64
     * sharers and the sharer masks exercise the full first word — so
     * this grid hunts a different class of bug (mask-boundary,
     * fan-out-collection) than the hostile small grid.
     */
    static CampaignSpec largeMesh();
};

/** One failing grid point, with everything needed to reproduce it. */
struct CampaignFailure
{
    RandomTester::Params params;
    const char *profile = "?";
    const char *knobs = "?";
    std::uint64_t valueViolations = 0;
    std::uint64_t invariantViolations = 0;
};

/** Aggregated campaign outcome. */
struct CampaignResult
{
    std::uint64_t jobs = 0;
    std::uint64_t accesses = 0;
    std::uint64_t valueViolations = 0;
    std::uint64_t invariantViolations = 0;
    /** Failing grid points, canonically sorted (shrinker input). */
    std::vector<CampaignFailure> failures;
    /** One merged coverage matrix per CampaignSpec protocol, in order. */
    std::vector<ConformanceCoverage> coverage;
    /** Copied from CampaignSpec::requireFullCoverage. */
    bool requireFullCoverage = true;

    /**
     * No value or SWMR violations, and — when the spec requires full
     * coverage — every documented transition of every protocol was
     * hit or carries an explanatory note.
     */
    bool passed() const;

    /** Campaign summary plus per-protocol coverage reports. */
    std::string report(bool verbose = false) const;
};

/**
 * Run the full grid. Jobs are independent Systems, so the fan-out uses
 * parallelFor(); results merge deterministically in job order.
 */
CampaignResult runCampaign(const CampaignSpec &spec);

} // namespace protozoa

#endif // PROTOZOA_SIM_STRESS_CAMPAIGN_HH
