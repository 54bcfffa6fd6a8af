#include "check/campaign_shrink.hh"

#include <algorithm>
#include <sstream>

namespace protozoa::check {

namespace {

std::uint64_t
totalAccesses(const std::vector<std::vector<TraceRecord>> &traces)
{
    std::uint64_t n = 0;
    for (const auto &t : traces)
        n += t.size();
    return n;
}

} // namespace

std::optional<CampaignShrinkResult>
shrinkCampaignFailure(const CampaignFailure &failure)
{
    const RandomTester::Params &params = failure.params;
    const SystemConfig &cfg = params.cfg;
    auto fails = [&](const std::vector<std::vector<TraceRecord>> &t) {
        const RandomTester::Result r = RandomTester::runTraces(params, t);
        return r.valueViolations + r.invariantViolations > 0;
    };

    auto traces = RandomTester::buildTraces(params);
    const std::uint64_t before = totalAccesses(traces);
    if (!fails(traces))
        return std::nullopt;

    std::ostringstream log;
    log << "shrinking " << protocolName(cfg.protocol) << " "
        << RandomTester::patternName(params.pattern) << " seed="
        << cfg.seed << " (" << before << " accesses)\n";

    // 1. Halve every core's trace (prefix truncation) to a fixpoint.
    for (;;) {
        auto cand = traces;
        bool any = false;
        for (auto &t : cand) {
            if (t.size() > 1) {
                t.resize((t.size() + 1) / 2);
                any = true;
            }
        }
        if (!any || !fails(cand))
            break;
        traces = std::move(cand);
    }
    log << "  after prefix halving: " << totalAccesses(traces)
        << " accesses\n";

    // 2. Drop whole cores greedily.
    for (std::size_t c = 0; c < traces.size(); ++c) {
        if (traces[c].empty())
            continue;
        auto cand = traces;
        cand[c].clear();
        if (fails(cand))
            traces = std::move(cand);
    }

    // 3. Pop accesses off each core's tail while the failure persists.
    bool improved = true;
    while (improved) {
        improved = false;
        for (std::size_t c = 0; c < traces.size(); ++c) {
            while (!traces[c].empty()) {
                auto cand = traces;
                cand[c].pop_back();
                if (!fails(cand))
                    break;
                traces = std::move(cand);
                improved = true;
            }
        }
    }
    const std::uint64_t after = totalAccesses(traces);
    log << "  after core dropping and tail popping: " << after
        << " accesses\n";

    CampaignShrinkResult out;
    out.failure = failure;
    out.accessesBefore = before;
    out.accessesAfter = after;

    // 4. Small enough for the bounded explorer? Convert and let the
    // minimizer search for a schedule-exact counterexample. Bounded
    // best effort: the campaign failure may need occupancy or network
    // timing the explorer does not model, so nullopt here is fine.
    std::vector<int> coreMap(traces.size(), -1);
    unsigned active = 0;
    for (std::size_t c = 0; c < traces.size(); ++c) {
        if (!traces[c].empty())
            coreMap[c] = static_cast<int>(active++);
    }
    std::vector<Addr> regions;
    for (const auto &t : traces)
        for (const TraceRecord &rec : t)
            regions.push_back(regionBase(rec.addr, cfg.regionBytes));
    std::sort(regions.begin(), regions.end());
    regions.erase(std::unique(regions.begin(), regions.end()),
                  regions.end());

    out.explorerEligible = after > 0 && after <= 12 && active >= 1 &&
                           active <= 4 && regions.size() <= 2;
    if (out.explorerEligible) {
        Scenario sc;
        sc.name = "campaign-shrink";
        sc.note = "converted from a failing stress-campaign point";
        // The job's machine, its surviving cores renumbered onto an
        // N x 1 mesh.
        sc.cfg = cfg;
        sc.cfg.setMesh(std::max(active, 2u), 1);
        // Interleave cores round-robin; only per-core order matters to
        // the explorer (it enumerates the cross-core interleavings).
        std::uint64_t value = 1;
        std::vector<std::size_t> pos(traces.size(), 0);
        for (bool more = true; more;) {
            more = false;
            for (std::size_t c = 0; c < traces.size(); ++c) {
                if (pos[c] >= traces[c].size())
                    continue;
                const TraceRecord &rec = traces[c][pos[c]++];
                more = true;
                ScenarioAccess acc;
                acc.core = static_cast<CoreId>(coreMap[c]);
                acc.addr = rec.addr;
                acc.isWrite = rec.isWrite;
                acc.value = rec.isWrite ? value++ : 0;
                acc.pc = rec.pc;
                sc.accesses.push_back(acc);
            }
        }
        out.minimized = minimize(sc, cfg.protocol);
        log << "  explorer conversion: "
            << (out.minimized ? "violation reproduced and minimized"
                              : "violation not reproduced (timing-"
                                "dependent); trace-level shrink kept")
            << "\n";
    } else {
        // The survivor is still too large for the bounded explorer;
        // say which limit blocked it and keep the campaign-failure
        // record as the durable repro (params rebuild the workload).
        log << "  shrunk survivor still exceeds the explorer limits:";
        if (after > 12)
            log << " " << after << " accesses (max 12);";
        if (active > 4)
            log << " " << active << " cores (max 4);";
        if (regions.size() > 2)
            log << " " << regions.size() << " regions (max 2);";
        if (after == 0)
            log << " empty survivor;";
        log << " keeping the campaign failure record (seed="
            << cfg.seed << ")\n";
    }

    out.traces = std::move(traces);
    out.summary = log.str();
    return out;
}

} // namespace protozoa::check
