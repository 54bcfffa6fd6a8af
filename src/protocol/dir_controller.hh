/**
 * @file
 * Shared-L2 tile with in-cache directory: the home node of the
 * Protozoa protocol family.
 *
 * Each tile owns an address-interleaved slice of an inclusive shared
 * L2. The directory entry is collocated with the L2 block and tracks
 * sharers at REGION granularity only (Table 2): a reader set and a
 * writer set of cores, with no per-word information — exactly the
 * paper's "same in-cache fixed-granularity directory structure as
 * MESI", where Protozoa-MW doubles the entry to separate readers from
 * writers and Protozoa-SW+MR adds only the single-writer identity.
 *
 * One coherence transaction is active per region at a time; later
 * requests queue (the paper's per-REGION serialization). The protocol
 * variant decides only (a) the probe range (full region for MESI/SW,
 * the request range for SW+MR/MW), (b) the keepNonOverlap and
 * revokeWritePerm probe flags, and (c) how many concurrent writers the
 * writer set may hold.
 *
 * The legal (state, event) -> next-state tuples of this controller —
 * abstract states NP/I/R/W/WR/MW over the region's reader/writer sets,
 * transaction-granular events — are enumerated in the documented
 * transition inventory of protocol/conformance.hh (the
 * implementation-level Table 3) and checked at run time: an
 * undocumented tuple panics.
 */

#ifndef PROTOZOA_PROTOCOL_DIR_CONTROLLER_HH
#define PROTOZOA_PROTOCOL_DIR_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/core_mask.hh"
#include "common/fixed_array.hh"
#include "common/keyed_fifo.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "mem/golden_memory.hh"
#include "protocol/bloom_directory.hh"
#include "protocol/coherence_msg.hh"
#include "protocol/conformance.hh"
#include "protocol/event.hh"

namespace protozoa {

class DirController
{
  public:
    DirController(TileId id, const SystemConfig &cfg, EventQueue &eq,
                  WordStore &mem_image, ConformanceCoverage &coverage);

    /** Deliver a coherence message from the interconnect. */
    void receive(CoherenceMsg msg);

    /** A memory fill of @p region completes (DirFill): copy the words
     *  in and run the probe phase. */
    void finishFill(Addr region);

    TileId id() const { return tileId; }

    DirStats stats;

    /** Directory view of a region, for invariant checkers and tests. */
    struct DirView
    {
        bool present = false;
        CoreSet readers;
        CoreSet writers;
        bool dirty = false;
    };
    DirView view(Addr region) const;

    /** Diagnostic description of a region's directory-side state. */
    std::string describeRegion(Addr region) const;

    /** True when a coherence transaction is active on @p region. */
    bool hasActiveTxn(Addr region) const { return active.contains(region); }

    // ---- canonical state snapshots (protocheck fingerprinting) ------

    /** Snapshot of one valid L2 entry. */
    struct EntrySnap
    {
        Addr region = 0;
        bool filling = false;
        bool dirty = false;
        CoreSet readers;
        CoreSet writers;
        std::uint64_t lruStamp = 0;
        unsigned setIndex = 0;
        const std::uint64_t *words = nullptr;
        unsigned wordCount = 0;
    };

    /** Visit every valid L2 entry, set by set. */
    template <typename F>
    void
    forEachEntry(F &&fn) const
    {
        for (Slot s = 0; s < tags.size(); ++s) {
            const std::uint64_t tag = tags[s];
            if (!(tag & kValid))
                continue;
            const EntryData &e = dataAt(s);
            fn(EntrySnap{tag & ~kFlagBits, (tag & kFilling) != 0,
                         (tag & kDirty) != 0, e.readers, e.writers,
                         lru[s], s / cfg.l2Assoc, e.words.data(),
                         e.wordCount});
        }
    }

    /** Number of valid L2 entries (each owns exactly one sidecar). */
    std::size_t occupancy() const { return sidecarCount; }

    /**
     * Visit every active transaction as (region, txn) in ascending
     * region order: the watchdog scan, the explorer's deadlock check,
     * the state fingerprint and the POR emit targets all read them
     * here.
     */
    template <typename F>
    void
    forEachTxn(F &&fn) const
    {
        for (const auto &[region, t] : active)
            fn(region, t);
    }

    /** Requests queued behind the transaction on @p region. */
    std::size_t
    queuedOn(Addr region) const
    {
        return waiting.run(region).size();
    }

    /**
     * Visit queued requests as (region, msg) in ascending region
     * order, FIFO within a region.
     */
    template <typename F>
    void
    forEachWaitingMsg(F &&fn) const
    {
        for (const auto &[region, m] : waiting)
            fn(region, m);
    }

    /**
     * An in-flight transaction (request or inclusive-eviction recall).
     * saveState writes it raw; restoreState checks every field before
     * the tile uses it.
     */
    struct Txn
    {
        enum class Kind { Request, Recall };
        Kind kind = Kind::Request;
        MsgType reqType = MsgType::GETS;
        CoreId requester = 0;
        WordRange reqRange;
        bool upgrade = false;
        unsigned pending = 0;
        bool waitingUnblock = false;
        /** A probed owner sent DATA directly to the requester. */
        bool directSupplied = false;
        /** The requester's UNBLOCK arrived before respond() ran. */
        bool unblocked = false;
        /** Recall only: the region whose miss triggered the recall. */
        Addr parentRegion = 0;

        /** Cycle the transaction began (deadlock-watchdog bound). */
        Cycle start = 0;
        /** Abstract state when the transaction began (coverage). */
        DirState covBefore = DirState::NP;
        /** Abstract event of this transaction (coverage). */
        DirEvent covEvent = DirEvent::GetS;
    };

    /** L2 set of @p region within its home tile. The explorer's POR
     *  footprints read the same mapping. */
    unsigned setIndexOf(Addr region) const;

    /** Serialize / restore all mutable tile state (L2 sets, active
     *  transactions, wait queues, Bloom counters, occupancy, stats).
     *  Restore overwrites whatever the tile holds, in time
     *  proportional to its valid entries. */
    void saveState(Serializer &s) const;
    bool restoreState(Deserializer &d);

  private:
    /** Slot index within the tile: set * l2Assoc + way. */
    using Slot = L2SlotIndex;
    static constexpr Slot kNoSlot = ~Slot(0);

    /**
     * Flags folded into the low bits of a slot's tag word. Regions are
     * regionBytes-aligned and regionBytes is a multiple of the 8-byte
     * word (SystemConfig::validate), so those three bits are always
     * zero in the region itself. A slot never loses kValid once set:
     * a recall hands the slot straight to the parent region.
     */
    static constexpr std::uint64_t kValid = 1;
    /** Data words are being fetched from memory. */
    static constexpr std::uint64_t kFilling = 2;
    static constexpr std::uint64_t kDirty = 4;
    static constexpr std::uint64_t kFlagBits = kValid | kFilling | kDirty;

    /**
     * The bulky half of one valid L2 entry, kept out of the tag scan:
     * sharer sets and data words. Claimed (densely, in first-fill
     * order) the first time a slot becomes valid and owned by that
     * slot from then on. finishFill copies the words in from the
     * memory image with one bulk memcpy and never allocates.
     * wordCount is 0 until the first fill and regionWords() afterwards
     * (it survives slot reuse, exactly like the size of the heap
     * vector the inline array replaced, so protocheck fingerprints
     * are unchanged). `slot` names the owner, so a restore can
     * invalidate the valid slots by walking the claimed sidecars.
     */
    struct EntryData
    {
        CoreSet readers;
        CoreSet writers;
        std::array<std::uint64_t, kMaxRegionWords> words;
        unsigned wordCount = 0;
        Slot slot = 0;
    };

    Cycle occupy(Cycle latency);
    void sendMsg(CoherenceMsg msg, Cycle when);

    /** The valid slot holding @p region, or kNoSlot. */
    Slot lookup(Addr region) const;
    Addr regionAt(Slot s) const { return tags[s] & ~kFlagBits; }
    bool fillingAt(Slot s) const { return (tags[s] & kFilling) != 0; }
    EntryData &dataAt(Slot s) { return sidecars[sidecarOf[s]]; }
    const EntryData &dataAt(Slot s) const
    {
        return sidecars[sidecarOf[s]];
    }
    /** Make never-filled slot @p s valid for @p region: claim its
     *  sidecar and stamp it. */
    void claimSlot(Slot s, Addr region);
    /** Invalidate the valid slots, then read the sparse entry list
     *  written by saveState. */
    bool restoreEntries(Deserializer &d);
    /** True when a region has an active txn or queued messages. */
    bool busy(Addr region) const;

    void dispatch(const CoherenceMsg &msg);
    void startRequest(const CoherenceMsg &msg);
    void beginRecall(Addr victim, Addr parent);
    void finishRecall(Addr victim);
    void fetchFromMemory(Addr region);
    void probePhase(Addr region);
    void handleProbeResponse(const CoherenceMsg &msg);
    void respond(Addr region);
    void handlePut(const CoherenceMsg &msg);
    void finishTxn(Addr region);
    void drainQueue(Addr region);

    /** Abstract coverage state of a slot's sharer sets (kNoSlot:
     *  not present). */
    DirState absState(Slot s) const;
    /** Record into the coverage matrix. */
    void cov(DirState from, DirEvent ev, DirState to);

    void patchPayload(Slot s, const MsgData &data);
    void updateSetsFromResponse(Slot s, const CoherenceMsg &msg);
    void recordOwnedCensus(Slot s);

    // Sharer-set transitions: every mutation goes through these so an
    // imprecise (Bloom) summary stays a superset of the exact sets.
    void setReader(Slot s, CoreId core);
    void clearReader(Slot s, CoreId core);
    void setWriter(Slot s, CoreId core);
    void clearWriter(Slot s, CoreId core);
    /** Drop every tracked sharer of slot @p s (slot reuse). */
    void clearAllSharers(Slot s);
    /** Probe-target sets: exact, or the Bloom superset. */
    CoreSet probeWriters(Slot s) const;
    CoreSet probeReaders(Slot s) const;

    const SystemConfig &cfg;
    TileId tileId;
    EventQueue &eventq;
    WordStore &memImage;
    ConformanceCoverage &coverage;

    unsigned setsPerTile;
    /** setIndexOf's geometry: regionBytes is a power of two
     *  (validate()); l2Tiles and setsPerTile need not be. */
    unsigned regionShift;
    FixedDivisor tilesDiv;
    FixedDivisor setsDiv;
    // The L2 slice as parallel per-slot arrays, scanned tag-first: an
    // 8-way set's tags are 64 contiguous bytes. A zero tag is an
    // invalid slot; lru and sidecarOf are meaningful on valid slots
    // alone, and sidecars is reserved for every slot up front but
    // claimed one entry at a time (the first sidecarCount are in use).
    // All four are FixedArrays, so the kernel backs only the pages
    // written and resident memory follows the entries filled rather
    // than the L2 capacity.
    FixedArray<std::uint64_t> tags;
    FixedArray<std::uint64_t> lru;
    FixedArray<Slot> sidecarOf;
    FixedArray<EntryData> sidecars;
    Slot sidecarCount = 0;

    // Per-region bookkeeping: one transaction per active region, and
    // the requests queued behind a region (FIFO within it). A Txn
    // pointer is invalidated by any push or pop on `active`: re-find
    // after every dispatch.
    KeyedFifo<Addr, Txn> active;
    KeyedFifo<Addr, CoherenceMsg> waiting;

    /** TaglessBloom mode: Bloom-summarized sharer tracking. */
    std::unique_ptr<CountingBloomSharers> bloomReaders;
    std::unique_ptr<CountingBloomSharers> bloomWriters;

    std::uint64_t lruClock = 0;
    Cycle busyUntil = 0;
    /** Occupancy fault injection (cfg.occupancyJitter). */
    Rng occRng;
};

} // namespace protozoa

#endif // PROTOZOA_PROTOCOL_DIR_CONTROLLER_HH
