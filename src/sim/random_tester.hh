/**
 * @file
 * Random protocol tester (Sec. 3.6: "we have tested protozoa
 * extensively with the random tester (1 million accesses)").
 *
 * Drives all cores with random reads/writes over a small, hot region
 * pool to maximize protocol race coverage, while
 *  - the golden-memory oracle checks every load value, and
 *  - the System invariant checker scans for SWMR violations
 *    periodically.
 */

#ifndef PROTOZOA_SIM_RANDOM_TESTER_HH
#define PROTOZOA_SIM_RANDOM_TESTER_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "protocol/conformance.hh"
#include "workload/trace.hh"

namespace protozoa {

class RandomTester
{
  public:
    /** Access-pattern archetypes targeting specific protocol races. */
    enum class Pattern : std::uint8_t
    {
        /** Uniform random over hot + cold pools (the classic tester). */
        Uniform,
        /**
         * Cores hammer the words straddling region boundaries from
         * opposite sides (even cores the top words, odd cores the
         * bottom), so partial-granularity protocols see non-overlapping
         * writer/reader ranges in the same region while MESI sees
         * maximal false sharing.
         */
        FalseShareBoundary,
        /**
         * Mostly cold-pool traffic through a tiny L1/L2, maximizing
         * evictions, writeback PUT/probe races and inclusive recalls.
         */
        EvictionPressure,
        /**
         * Load-then-store pairs to the same word, maximizing S->M
         * permission upgrades and the probe-breaks-upgrade retry path.
         */
        UpgradeHeavy,
    };

    static const char *patternName(Pattern p);

    struct Params
    {
        /**
         * The machine under test: the paper's 16-core 4x4 system with
         * its L1 cut to 4 sets (evictions and writeback races) and its
         * L2 tiles to 4 KB (inclusive recalls). cfg.seed seeds both
         * the traces and the System.
         */
        SystemConfig cfg = [] {
            SystemConfig c;
            c.l1Sets = 4;
            c.l2BytesPerTile = 4096;
            return c;
        }();
        Pattern pattern = Pattern::Uniform;
        /** Hot pool size, in regions. */
        unsigned regions = 16;
        /**
         * Fraction of accesses aimed at a large cold pool instead of
         * the hot pool, to force L1 evictions and inclusive-L2
         * recalls alongside the conflict races.
         */
        double coldFraction = 0.1;
        /** Cold pool size, in regions. */
        unsigned coldRegions = 4096;
        std::uint64_t accessesPerCore = 2000;
        double writeFraction = 0.4;
        /** Invariant-scan period in cycles (0 = only at the end). */
        Cycle checkPeriod = 64;
    };

    struct Result
    {
        std::uint64_t valueViolations = 0;
        std::uint64_t invariantViolations = 0;
        /** Total accesses driven (all cores). */
        std::uint64_t accesses = 0;
        RunStats stats;
        /** Transition coverage observed by the run. */
        ConformanceCoverage coverage{ProtocolKind::MESI};
    };

    static Result run(const Params &params);

    /**
     * The deterministic traces a run drives, exposed so the
     * campaign-failure shrinker (src/check) can rebuild, truncate, and
     * replay the exact workload of a failing parameter point.
     */
    static std::vector<std::vector<TraceRecord>>
    buildTraces(const Params &params);

    /** Run a (possibly edited) trace set on @p params' machine. */
    static Result
    runTraces(const Params &params,
              const std::vector<std::vector<TraceRecord>> &traces);
};

} // namespace protozoa

#endif // PROTOZOA_SIM_RANDOM_TESTER_HH
