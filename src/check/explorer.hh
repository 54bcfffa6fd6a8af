/**
 * @file
 * Bounded schedule explorer ("protocheck"): enumeration of
 * cross-channel message-delivery interleavings for one scenario, with
 * sleep-set partial-order reduction.
 *
 * The mesh's schedule oracle parks every sent message on its
 * per-(src,dst) FIFO channel. Between deliveries the event queue runs
 * dry — a *quiescent point* where the only pending work is the parked
 * message set. The explorer's choice point is which channel head to
 * deliver next; same-channel FIFO order is preserved by construction
 * (the one network ordering assumption the protocol makes), so the
 * explored space is exactly the set of legal network behaviours.
 *
 * Search is depth-first over one live System, built once per
 * explore() call. Descending extends it in place; backtracking
 * restores, into that same System, the in-memory snapshot taken when
 * the level was first expanded (the src/snapshot serialization of the
 * full quiescent state, plus the run's progress counters), so
 * revisiting a sibling costs one in-place restore instead of a new
 * System and a replay of the whole choice prefix from the root. The
 * DFS keeps one level per depth and reuses its buffers (frontier,
 * choice order, sleep masks, image) for the next state expanded at
 * that depth, and a step's human-readable description is built only
 * for a returned violation.
 * ExploreLimits::snapshotBacktrack = false turns the old
 * replay-from-root backtracking back on (a fresh System per
 * backtrack, independent of restore) — the simulator is deterministic
 * given a schedule, so both modes visit the same states and return
 * identical verdicts and step descriptions;
 * ExploreResult::deliveriesExecuted counts the work each actually
 * did. Visited states are memoized by canonical fingerprint
 * (state_fingerprint.hh), collapsing confluent interleavings.
 *
 * Partial-order reduction (ExploreLimits::por, on by default): two
 * pending deliveries *commute* when they target different controllers
 * (an L1 and its co-located directory tile count as different) and
 * their global-memory footprints are disjoint — golden-memory words a
 * DATA grant's completion chain can commit or validate on the L1
 * side, memory-image regions a directory delivery can fetch or flush
 * (the delivered region plus any scenario region that collides in the
 * same L2 set of that tile, the recall/deferral closure). Every other
 * effect of a delivery is local to the destination controller or
 * lands in the destination node's send channels; deliveries bound for
 * different nodes therefore never emit into the same per-(src,dst)
 * FIFO, while a co-located L1/dir pair additionally needs disjoint
 * emission *targets*, over-approximated from the message type plus
 * directory ownership (an L1 emits only toward footprint home tiles;
 * a directory reaches its request's sender, the readers/writers of
 * the addressed L2 set, active-transaction requesters and queued
 * senders — or any core under a Bloom directory, whose probe set is
 * bounded only by the filter).
 * Sleep sets carry the already-explored independent siblings down the
 * tree and prune the symmetric interleavings; because sleep sets
 * alone never skip a *state* (only redundant transitions into
 * already-covered subtrees), the reduced search still visits every
 * reachable quiescent state and reports identical verdicts — locked
 * by tests comparing fingerprint sets against full enumeration.
 * Memoization composes with POR by storing, per fingerprint, the
 * intersection of the sleep masks it was expanded under; a revisit
 * prunes only when its own sleep mask covers that stored mask.
 *
 * At every quiescent point the invariant oracles run:
 *  - word-level SWMR (System::checkCoherenceInvariant),
 *  - load values against golden memory,
 *  - L1/L2 inclusion (every cached region is directory-present or has
 *    an active transaction),
 *  - no-deadlock (an empty frontier with incomplete accesses or
 *    outstanding MSHR/writeback/transaction state).
 */

#ifndef PROTOZOA_CHECK_EXPLORER_HH
#define PROTOZOA_CHECK_EXPLORER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/scenario.hh"

namespace protozoa::check {

struct ExploreLimits
{
    /** Expanded-state budget; exceeding it aborts the search. */
    std::uint64_t maxStates = 200000;
    /** Schedule-depth bound (messages delivered along one path). */
    unsigned maxDepth = 512;
    /** Sleep-set partial-order reduction (off = full enumeration). */
    bool por = true;
    /**
     * Fingerprint memoization (state_fingerprint.hh lists what the
     * fingerprint covers). Off, every interleaving is walked to a
     * leaf, so schedulesCompleted counts the schedules the search
     * actually enumerated — the honest denominator when measuring
     * POR's reduction.
     */
    bool memo = true;
    /**
     * Collect every visited quiescent fingerprint in
     * ExploreResult::fingerprints (POR and memoization soundness
     * tests; costs a hash per state, leaves and memoization off
     * included: otherwise only states to expand are hashed, and only
     * under memoization).
     */
    bool collectFingerprints = false;
    /**
     * Backtrack by restoring per-level in-memory snapshots into the
     * one live System instead of replaying the choice prefix from the
     * root. Off = the legacy replay backtracker, which builds a fresh
     * System per backtrack (kept for comparison tests; verdicts,
     * schedules, step descriptions and fingerprint sets are identical
     * either way).
     */
    bool snapshotBacktrack = true;
};

/** One delivery decision, for human-readable counterexamples. */
struct ScheduleStep
{
    unsigned src = 0;
    unsigned dst = 0;
    std::string desc;
};

struct Violation
{
    /** "swmr", "value", "inclusion", or "deadlock". */
    std::string kind;
    std::string detail;
    /** Channel-choice index at each quiescent point from the root. */
    std::vector<unsigned> schedule;
    /** One description per schedule entry. */
    std::vector<ScheduleStep> steps;
};

struct ExploreResult
{
    std::uint64_t statesVisited = 0;
    std::uint64_t schedulesCompleted = 0;
    std::uint64_t memoHits = 0;
    /** Deliveries suppressed by sleep sets (pruned subtrees). */
    std::uint64_t porPruned = 0;
    /** Independent delivery pairs detected while building sleep sets. */
    std::uint64_t porCommutations = 0;
    /**
     * Message deliveries actually executed, fresh steps and replayed
     * ones alike — the search-cost denominator the snapshot
     * backtracker shrinks (replay-from-root re-executes the whole
     * prefix on every backtrack; a restore executes none).
     */
    std::uint64_t deliveriesExecuted = 0;
    bool budgetExhausted = false;
    std::optional<Violation> violation;
    /**
     * Sorted distinct quiescent-state fingerprints, filled only when
     * ExploreLimits::collectFingerprints is set.
     */
    std::vector<std::uint64_t> fingerprints;
};

/** Explore @p s under @p proto (up to the limits; POR per lim.por). */
ExploreResult explore(const Scenario &s, ProtocolKind proto,
                      const ExploreLimits &lim = {});

/**
 * Deterministically replay @p prefix (clamping stale indices), then
 * complete with first-channel choices; @return the violation hit, if
 * any. The returned schedule covers the full executed path. Replay
 * never reduces: a minimized schedule prefix replays identically
 * whether it was found with POR on or off.
 */
std::optional<Violation>
replaySchedule(const Scenario &s, ProtocolKind proto,
               const std::vector<unsigned> &prefix);

} // namespace protozoa::check

#endif // PROTOZOA_CHECK_EXPLORER_HH
