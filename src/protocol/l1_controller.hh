/**
 * @file
 * Private L1 cache controller for the Protozoa protocol family.
 *
 * Implements the L1 side of Fig. 8: stable states I/S/E/M per Amoeba
 * block, transient IS/IM (tracked in the MSHR), and the multi-block
 * CHECK / GATHER / WRITEBACK snoop sequence of Fig. 3 (modelled as
 * extra occupancy per gathered block, the CPU_B/COH_B blocking states).
 *
 * Protocol-variant behaviour is *not* encoded here: the directory
 * expresses it entirely through the probe range and the
 * keepNonOverlap / revokeWritePerm flags, so one L1 implementation
 * serves MESI, Protozoa-SW, Protozoa-SW+MR and Protozoa-MW.
 *
 * The legal (state, event) -> next-state tuples of this controller —
 * stable I/S/E/M per block plus the IS/IM/SM/SM_B transients of the
 * single MSHR — are enumerated in the documented transition inventory
 * of protocol/conformance.hh (the implementation-level Table 2).
 * Every transition taken at the record sites below is checked against
 * that inventory at run time: an undocumented tuple panics.
 */

#ifndef PROTOZOA_PROTOCOL_L1_CONTROLLER_HH
#define PROTOZOA_PROTOCOL_L1_CONTROLLER_HH

#include "cache/amoeba_cache.hh"
#include "cache/fetch_predictor.hh"
#include "cache/mshr.hh"
#include "common/config.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "mem/golden_memory.hh"
#include "protocol/coherence_msg.hh"
#include "protocol/conformance.hh"
#include "protocol/event.hh"

namespace protozoa {

class L1Controller
{
  public:
    L1Controller(CoreId id, const SystemConfig &cfg, EventQueue &eq,
                 GoldenMemory &golden, ConformanceCoverage &coverage);

    /**
     * Issue a memory access. The in-order core model guarantees at
     * most one outstanding access per L1. Its completion is an
     * L1Complete event carrying the loaded value (0 for stores),
     * which System hands to its access sink.
     */
    void requestAccess(const MemAccess &acc);

    /** The outstanding access completes (its L1Complete event runs). */
    void
    completeAccess()
    {
        PROTO_ASSERT(accessPending,
                     "completion fired with no access outstanding");
        accessPending = false;
    }

    /** Deliver a coherence message from the interconnect. */
    void receive(CoherenceMsg msg);

    /** Classify still-resident blocks into the used/unused totals. */
    void finalizeStats();

    CoreId id() const { return coreId; }

    L1Stats stats;

    // --- white-box access for tests and the deadlock watchdog ---
    AmoebaCache &cacheStorage() { return cache; }
    FetchPredictor &predictorPolicy() { return predictor; }
    const WbBuffer &writebackBuffer() const { return wbBuffer; }
    const MshrFile &mshrFile() const { return mshrs; }

    /** Serialize / restore all mutable controller state (cache,
     *  predictor, MSHRs, writeback buffer, occupancy, stats, and
     *  whether a core access is outstanding). */
    void saveState(Serializer &s) const;
    bool restoreState(Deserializer &d);

  private:
    /** Reserve the controller for @p latency cycles; returns finish. */
    Cycle occupy(Cycle latency);

    /**
     * Fill in source fields and transmit at @p when.
     * @param count_stats when false the sender does not account the
     *        message (peer-to-peer DATA is accounted at the receiver
     *        only, keeping L1 totals equal to mesh totals).
     */
    void sendMsg(CoherenceMsg msg, Cycle when, bool count_stats = true);

    /**
     * 3-hop attempt: gather the words of @p range from the resident
     * blocks of @p region (before any invalidation).
     * @return true and fills @p out when fully covered.
     */
    bool tryCollectDirect(Addr region, const WordRange &range,
                          MsgData &out);

    /** Send a peer-to-peer DATA for a successful 3-hop forward. */
    void sendDirectData(const CoherenceMsg &probe, GrantState grant,
                        const MsgData &words, Cycle when);

    /** Count the control/header bytes of a message (both directions). */
    void countCtrl(const CoherenceMsg &msg);

    /** Count outgoing data words as used/unused by their touched bits. */
    void countOutgoingData(const WordRange &range, WordMask touched);

    /**
     * Account a dying block (incoming-direction used/unused bytes) and
     * train the predictor from its touched bitmap.
     */
    void classifyDeath(const AmoebaBlock &blk);

    /** Home directory tile of @p region. */
    unsigned homeTile(Addr region) const;

    void handleHit(AmoebaBlock *blk, const MemAccess &acc, unsigned word);
    void handleMiss(const MemAccess &acc, Addr region, unsigned word);
    void handleData(const CoherenceMsg &msg);
    void handleFwdGetS(const CoherenceMsg &msg);
    void handleInvProbe(const CoherenceMsg &msg);

    /**
     * The fetch range for a miss on @p word: the predictor's range,
     * clipped so that it overlaps no resident block of @p region and
     * still covers @p need.
     */
    WordRange predictFetch(Pc pc, Addr region, unsigned word,
                           const WordRange &need);

    /**
     * Finish a probe once its blocks are handled: add the overlapping
     * buffered writebacks to @p payload, answer the directory with
     * WB_RESP, ACK_S, ACK (only when @p removed_any) or NACK, and send
     * the 3-hop DATA when @p direct_words is set (S for FWD_GETS, M
     * otherwise).
     * @param processed blocks handled so far (gather occupancy).
     */
    void answerProbe(const CoherenceMsg &probe, MsgData &payload,
                     unsigned processed, bool removed_any,
                     const MsgData *direct_words);

    /** Evicted-block disposal: silent drop or PUT via the WB buffer. */
    void disposeEvicted(AmoebaCache::Evicted &evicted, Cycle when);

    /** Abstract stable state of a block, for coverage recording. */
    static L1State abstractOf(BlockState s);
    /** Record into the coverage matrix. */
    void cov(L1State from, L1Event ev, L1State to);

    const SystemConfig &cfg;
    CoreId coreId;
    EventQueue &eventq;
    GoldenMemory &golden;
    ConformanceCoverage &coverage;

    AmoebaCache cache;
    FetchPredictor predictor;
    MshrFile mshrs;
    WbBuffer wbBuffer;

    /** A core access was requested and its L1Complete has not run. */
    bool accessPending = false;

    Cycle busyUntil = 0;
    /** Occupancy fault injection (cfg.occupancyJitter). */
    Rng occRng;
};

} // namespace protozoa

#endif // PROTOZOA_PROTOCOL_L1_CONTROLLER_HH
