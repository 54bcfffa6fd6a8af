/**
 * @file
 * Transition-coverage tracking for the coherence protocol family.
 *
 * The L1 and directory controllers report every abstract
 * (state, event) -> next-state tuple they execute to a
 * ConformanceCoverage matrix. The matrix is checked against the
 * documented transition inventory below — the implementation-level
 * analogue of the paper's Table 2/3 protocol description, in the style
 * of BedRock's validation against its state/event tables:
 *
 *  - an *undocumented* tuple panics immediately (either the inventory
 *    is missing a legal race, or the protocol took an illegal step);
 *  - a *documented but unobserved* tuple is reported by report(), so a
 *    stress campaign can show which corners of the protocol its
 *    interleavings actually reached.
 *
 * Abstract L1 states collapse the per-block Amoeba states and the MSHR
 * transients into the classic MESI-style machine:
 *
 *   I, S, E, M   — per-block stable states,
 *   IS / IM      — read / write miss outstanding,
 *   SM           — permission-only upgrade of a resident S block,
 *   SM_B         — upgrade whose target block a probe invalidated
 *                  mid-flight (Sec. 3.3 race; retried as a full GETX).
 *
 * Abstract directory states collapse the region's reader/writer sets:
 *
 *   NP           — no L2 entry (or the fill is still in flight),
 *   I            — entry present, no tracked sharers,
 *   R            — readers only,
 *   W            — one writer, no readers,
 *   WR           — one writer plus readers (SW+MR / MW only),
 *   MW           — multiple concurrent writers (MW only).
 */

#ifndef PROTOZOA_PROTOCOL_CONFORMANCE_HH
#define PROTOZOA_PROTOCOL_CONFORMANCE_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>

#include "common/config.hh"
#include "common/serialize.hh"
#include "common/types.hh"

namespace protozoa {

enum class L1State : std::uint8_t { I, S, E, M, IS, IM, SM, SM_B };
constexpr unsigned kNumL1States = 8;

enum class L1Event : std::uint8_t
{
    Load,          ///< core load (hit or miss issue)
    Store,         ///< core store (hit or miss/upgrade issue)
    Data,          ///< DATA with payload fills the MSHR target
    DataUpgrade,   ///< payload-free DATA grants (or retries) an upgrade
    FwdGetS,       ///< forwarded read probe
    FwdGetX,       ///< forwarded write probe (invalidating)
    Inv,           ///< invalidation probe
    Revoke,        ///< write-permission revocation of surviving blocks
    Evict,         ///< capacity eviction selected this block
    FillReplace,   ///< an incoming fill overlapped this clean block
};
constexpr unsigned kNumL1Events = 10;

enum class DirState : std::uint8_t { NP, I, R, W, WR, MW };
constexpr unsigned kNumDirStates = 6;

enum class DirEvent : std::uint8_t
{
    GetS,          ///< read request transaction
    GetX,          ///< write request transaction (full fetch)
    Upgrade,       ///< write request flagged as permission-only upgrade
    Put,           ///< tracked writeback, core keeps write permission
    PutDemote,     ///< tracked writeback, owner demotes to reader
    PutLast,       ///< tracked writeback of the core's last block
    PutStale,      ///< writeback from an untracked core (dropped)
    Recall,        ///< inclusive-eviction recall transaction
};
constexpr unsigned kNumDirEvents = 8;

const char *l1StateName(L1State s);
const char *l1EventName(L1Event e);
const char *dirStateName(DirState s);
const char *dirEventName(DirEvent e);

/** Protocol bitmask values for the documented-transition inventory. */
constexpr unsigned P_MESI = 1, P_SW = 2, P_SWMR = 4, P_MW = 8;
constexpr unsigned P_ALL = P_MESI | P_SW | P_SWMR | P_MW;
/** Protocols with adaptive (request-range) coherence granularity. */
constexpr unsigned P_ADAPT = P_SWMR | P_MW;
/** Protocols where an L1 can hold several partial blocks of a region. */
constexpr unsigned P_PARTIAL = P_SW | P_SWMR | P_MW;

unsigned protocolBit(ProtocolKind kind);

/**
 * Configuration-knob profile a transition was observed under. The same
 * abstract protocol table must hold with 3-hop forwarding and/or the
 * Bloom-summarized directory enabled; tracking the profile per observed
 * tuple shows which table corners each knob combination actually
 * exercised (e.g. a NACK-retry row hit only under TaglessBloom).
 */
enum class KnobProfile : std::uint8_t
{
    Base,           ///< 4-hop, exact in-cache directory
    ThreeHop,       ///< cfg.threeHop
    BloomDir,       ///< cfg.directory == TaglessBloom
    ThreeHopBloom,  ///< both knobs
};
constexpr unsigned kNumKnobProfiles = 4;

const char *knobProfileName(KnobProfile p);

/** Profile of a system configuration's coherence knobs. */
KnobProfile knobProfileOf(const SystemConfig &cfg);

/** One documented row of the L1 transition table. */
struct L1TransitionDoc
{
    L1State from;
    L1Event ev;
    L1State to;
    /** Protocols under which the row is legal (P_* mask). */
    unsigned protocols;
    /**
     * For rows a typical run does not reach: why the row exists and
     * what interleaving produces it (empty for common rows).
     */
    const char *note;
};

/** One documented row of the directory transition table. */
struct DirTransitionDoc
{
    DirState from;
    DirEvent ev;
    DirState to;
    unsigned protocols;
    const char *note;
};

/**
 * Per-run transition-coverage matrix for one protocol.
 *
 * Not thread-safe: each System owns its own tracker; campaign workers
 * merge() their trackers after the runs complete.
 */
class ConformanceCoverage
{
  public:
    explicit ConformanceCoverage(ProtocolKind protocol,
                                 KnobProfile profile = KnobProfile::Base);

    ProtocolKind protocol() const { return proto; }

    /** Record one L1 transition; panics when undocumented. */
    void recordL1(L1State from, L1Event ev, L1State to);

    /** Record one directory transition; panics when undocumented. */
    void recordDir(DirState from, DirEvent ev, DirState to);

    /** Accumulate @p other (same protocol, any profile) into this. */
    void merge(const ConformanceCoverage &other);

    /** Observation count summed across every knob profile. */
    std::uint64_t
    l1Count(L1State from, L1Event ev, L1State to) const
    {
        std::uint64_t n = 0;
        for (unsigned p = 0; p < kNumKnobProfiles; ++p)
            n += l1.counts[l1Cell(p, from, ev, to)];
        return n;
    }

    std::uint64_t
    dirCount(DirState from, DirEvent ev, DirState to) const
    {
        std::uint64_t n = 0;
        for (unsigned p = 0; p < kNumKnobProfiles; ++p)
            n += dir.counts[dirCell(p, from, ev, to)];
        return n;
    }

    /** Observation count under one specific knob profile. */
    std::uint64_t
    l1CountAt(KnobProfile p, L1State from, L1Event ev, L1State to) const
    {
        return l1.counts[l1Cell(idx(p), from, ev, to)];
    }

    std::uint64_t
    dirCountAt(KnobProfile p, DirState from, DirEvent ev,
               DirState to) const
    {
        return dir.counts[dirCell(idx(p), from, ev, to)];
    }

    /** True when at least one transition ran under profile @p p. */
    bool profileSeen(KnobProfile p) const { return seen[idx(p)]; }

    /** Documented rows hit under one specific knob profile. */
    unsigned hitRowsAt(KnobProfile p) const;

    /** Documented rows for this protocol. */
    unsigned documentedRows() const;
    /** Documented rows observed at least once. */
    unsigned hitRows() const;
    /** Documented, unobserved rows with no explanatory note. */
    unsigned unexplainedMisses() const;

    /**
     * True when every documented row was hit or carries a note
     * explaining the interleaving it needs (the acceptance bar for the
     * stress campaign: hit or explained).
     */
    bool complete() const { return unexplainedMisses() == 0; }

    /**
     * Human-readable coverage report: hit counts per documented row,
     * then the unobserved rows (with their notes).
     * @param verbose when false, hit rows are summarized, not listed.
     */
    std::string report(bool verbose = false) const;

    /** Full documented inventories (all protocols). */
    static const L1TransitionDoc *l1Inventory(std::size_t &count);
    static const DirTransitionDoc *dirInventory(std::size_t &count);

    /**
     * Serialize the observation matrices (snapshot subsystem): the
     * seen byte of each knob profile, then the L1 and the directory
     * matrix, each as u32 cell count, u32 count of non-zero cells and
     * per non-zero cell in ascending order u32 cell, u64 count. The
     * documented-row cubes are derived from the protocol and rebuilt
     * by the constructor.
     */
    void saveState(Serializer &s) const;

    /**
     * Restore over the tracker's current counts (same protocol and
     * profile). Fails closed on a seen byte other than 0/1, a cell
     * count other than the matrix's, a cell out of range or not
     * strictly ascending, and a zero count.
     */
    bool restoreState(Deserializer &d);

  private:
    template <typename E>
    static constexpr unsigned
    idx(E e)
    {
        return static_cast<unsigned>(e);
    }

    static constexpr unsigned kL1Cells =
        kNumKnobProfiles * kNumL1States * kNumL1Events * kNumL1States;
    static constexpr unsigned kDirCells =
        kNumKnobProfiles * kNumDirStates * kNumDirEvents * kNumDirStates;

    /** Flat (profile, from, event, to) cell of each matrix. */
    static unsigned
    l1Cell(unsigned p, L1State from, L1Event ev, L1State to)
    {
        return ((p * kNumL1States + idx(from)) * kNumL1Events + idx(ev)) *
                   kNumL1States +
               idx(to);
    }

    static unsigned
    dirCell(unsigned p, DirState from, DirEvent ev, DirState to)
    {
        return ((p * kNumDirStates + idx(from)) * kNumDirEvents +
                idx(ev)) *
                   kNumDirStates +
               idx(to);
    }

    /**
     * One observation matrix: a count per cell plus a bitmap of the
     * non-zero cells, so saving and restoring cost what the run
     * observed, not the size of the matrix.
     */
    template <unsigned Cells>
    struct Matrix
    {
        std::uint64_t counts[Cells] = {};
        std::uint64_t nonZero[(Cells + 63) / 64] = {};

        /** Add @p n (> 0) to @p cell. */
        void
        add(unsigned cell, std::uint64_t n)
        {
            if (counts[cell] == 0)
                nonZero[cell / 64] |= std::uint64_t(1) << (cell % 64);
            counts[cell] += n;
        }

        /** Call @p fn with each non-zero cell, ascending. */
        template <typename F>
        void
        forEachNonZero(F &&fn) const
        {
            forEachSetBit(nonZero, std::size(nonZero), fn);
        }

        void save(Serializer &s) const;
        bool restore(Deserializer &d);
    };

    ProtocolKind proto;
    /** Profile this tracker records under (merge mixes profiles). */
    KnobProfile profile;
    bool seen[kNumKnobProfiles] = {};
    Matrix<kL1Cells> l1;
    Matrix<kDirCells> dir;
    /** Documented-row lookup cubes for this protocol. */
    bool l1Doc[kNumL1States][kNumL1Events][kNumL1States] = {};
    bool dirDoc[kNumDirStates][kNumDirEvents][kNumDirStates] = {};
};

} // namespace protozoa

#endif // PROTOZOA_PROTOCOL_CONFORMANCE_HH
