/**
 * @file
 * Automatic shrinking of stress-campaign failures.
 *
 * A failing campaign grid point is a (protocol, knob, jitter, pattern,
 * seed) tuple whose RandomTester run reported value or invariant
 * violations. The shrinker rebuilds the exact workload from the
 * parameters (RandomTester::buildTraces is deterministic), then
 * reduces it while the failure persists:
 *
 *  1. halve every core's trace (prefix truncation) to a fixpoint,
 *  2. drop whole cores greedily,
 *  3. pop single accesses off each core's tail,
 *  4. if the survivor is small enough for the bounded explorer
 *     (<= 4 cores, <= 12 accesses, <= 2 regions), convert it to a
 *     protocheck Scenario and hand it to the minimizer for a
 *     schedule-exact counterexample.
 *
 * Truncation is not perfectly prefix-stable (removing accesses shifts
 * every later message's timing), so each step re-runs the tester and
 * only keeps reductions that still fail — the ddmin acceptance rule
 * tolerates the non-monotonicity.
 */

#ifndef PROTOZOA_CHECK_CAMPAIGN_SHRINK_HH
#define PROTOZOA_CHECK_CAMPAIGN_SHRINK_HH

#include <optional>
#include <string>
#include <vector>

#include "check/minimizer.hh"
#include "sim/stress_campaign.hh"

namespace protozoa::check {

struct CampaignShrinkResult
{
    /** The original failing record, kept verbatim for re-runs. */
    CampaignFailure failure;
    /** Shrunk per-core traces that still fail. */
    std::vector<std::vector<TraceRecord>> traces;
    std::uint64_t accessesBefore = 0;
    std::uint64_t accessesAfter = 0;
    /** Human-readable stage-by-stage log. */
    std::string summary;
    /**
     * The shrunk survivor fit the bounded explorer's limits and a
     * conversion was attempted. False means the survivor stayed too
     * large (the summary names the exceeded limits) — the failure
     * record above is the durable repro in that case.
     */
    bool explorerEligible = false;
    /** Explorer-minimized counterexample, when conversion succeeded. */
    std::optional<MinimizeResult> minimized;
};

/**
 * Shrink @p failure. @return nullopt when the failure does not
 * reproduce in a serial re-run (it then needs the original thread
 * interleaving, which only affects the progress output, so this
 * indicates a campaign bug rather than flaky shrinking).
 */
std::optional<CampaignShrinkResult>
shrinkCampaignFailure(const CampaignFailure &failure);

} // namespace protozoa::check

#endif // PROTOZOA_CHECK_CAMPAIGN_SHRINK_HH
