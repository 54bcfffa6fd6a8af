/**
 * @file
 * Protocheck scenarios: small, fully-specified concurrent access
 * programs for the bounded schedule explorer.
 *
 * A scenario fixes everything about a run except the cross-channel
 * message delivery order: the system geometry, the per-core access
 * sequences, and the protocol knobs. The explorer (explorer.hh) then
 * enumerates every reachable cross-(src,dst) delivery interleaving and
 * checks the protocol invariants at every quiescent point.
 *
 * Scenarios are deliberately tiny (2-4 cores, 1-2 regions, <= 8
 * accesses): state-space size is exponential in the number of
 * in-flight messages, and the races of interest (Sec. 3.3 of the
 * paper, the eviction/probe writeback races) all fit in this budget.
 */

#ifndef PROTOZOA_CHECK_SCENARIO_HH
#define PROTOZOA_CHECK_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"

namespace protozoa::check {

/** One access of a scenario program (per-core order is preserved). */
struct ScenarioAccess
{
    CoreId core = 0;
    Addr addr = 0;
    bool isWrite = false;
    std::uint64_t value = 0;
    Pc pc = 0x3000;
};

struct Scenario
{
    std::string name;
    /** What race the scenario targets (one line, for --list). */
    std::string note;
    /**
     * Invariants and mechanisms the scenario stresses, e.g. "swmr",
     * "mw-split", "mr-overlap", "bloom-nack", "recall", "pinning",
     * "writeback", "upgrade", "3hop" (shown by --list, greppable).
     */
    std::vector<std::string> stresses;
    /**
     * Deep-tier scenario: too wide for the PR-gating CI budget under
     * full enumeration; run by the scheduled deep tier (and by the
     * fast tier with POR where the reduced space fits).
     */
    bool deep = false;
    /**
     * Large-mesh tier: 64+ core geometries that stress the wide
     * sharer masks and boundary cores rather than schedule breadth.
     * Sleep-set POR stays active here — the channel bitmap is a
     * multi-word ChanMask (one bit per (src,dst) channel), widened
     * past 8 nodes the same way CoreSet widened sharer masks.
     */
    bool large = false;

    /**
     * The machine: 2 cores on a 2x1 mesh (geometry only affects hop
     * latency, not reachable protocol states; large-mesh scenarios
     * pick a real 2-D grid), WordOnly fetches, one 288-B L1 set per
     * core (four full 64-B region blocks) and 4 KB L2 tiles. toConfig
     * sets the protocol and the settings the explorer fixes.
     */
    SystemConfig cfg = [] {
        SystemConfig c;
        c.setMesh(2, 1);
        c.predictor = PredictorKind::WordOnly;
        c.l1Sets = 1;
        c.l2BytesPerTile = 4096;
        return c;
    }();

    std::vector<ScenarioAccess> accesses;

    /**
     * cfg under @p proto with the schedule oracle and the
     * golden-memory value oracle enabled, and every nondeterminism
     * source other than delivery order (network/occupancy fault
     * injection, the watchdog, the seed) fixed.
     */
    SystemConfig toConfig(ProtocolKind proto) const;

    /** Sorted, deduplicated region bases the accesses touch. */
    std::vector<Addr> regionFootprint() const;
};

/** The curated scenario library (bench/protocheck and CI). */
const std::vector<Scenario> &scenarioLibrary();

/** Library scenario by name, or nullptr. */
const Scenario *findScenario(const std::string &name);

} // namespace protozoa::check

#endif // PROTOZOA_CHECK_SCENARIO_HH
