/**
 * @file
 * Miss-status holding registers and the eviction writeback buffer.
 *
 * Both structures are indexed at REGION granularity, like the paper's
 * ("our MSHR and cache controller entries are similar to MESI since we
 * index them using the fixed REGION granularity"). The L1 serializes
 * misses per region; the in-order core model makes that one outstanding
 * miss per core.
 *
 * The writeback buffer holds evicted dirty blocks between PUT and
 * WB_ACK so that a racing forwarded probe can still be answered with
 * the freshest data (the probe consults the buffer; the directory later
 * discards the superseded PUT).
 *
 * Storage: the MSHR file is one entry and a used flag; the writeback
 * buffer is a KeyedFifo of pending writebacks by region. Neither
 * allocates in steady state.
 */

#ifndef PROTOZOA_CACHE_MSHR_HH
#define PROTOZOA_CACHE_MSHR_HH

#include <cstddef>

#include "common/keyed_fifo.hh"
#include "common/log.hh"
#include "common/serialize.hh"
#include "common/types.hh"
#include "common/word_range.hh"
#include "protocol/coherence_msg.hh"

namespace protozoa {

/** One outstanding L1 miss. */
struct MshrEntry
{
    Addr region = 0;
    /** Words the core access needs. */
    WordRange need;
    /** Words requested from the directory (predicted). */
    WordRange pred;
    bool isWrite = false;
    Pc pc = 0;
    /** Core access being satisfied. */
    Addr accessAddr = 0;
    std::uint64_t storeValue = 0;
    Cycle issued = 0;

    /** True when this is a permission-only upgrade of a resident block. */
    bool upgrade = false;
    /**
     * Set when a probe removed the to-be-upgraded block while the
     * upgrade was in flight; a payload-free DATA must then be retried
     * as a full GETX.
     */
    bool upgradeBroken = false;
};

/**
 * The L1's one outstanding miss: the in-order core stalls on a miss,
 * so a single entry is the whole file.
 */
class MshrFile
{
  public:
    bool full() const { return used; }

    MshrEntry *
    alloc(const MshrEntry &entry)
    {
        PROTO_ASSERT(find(entry.region) == nullptr,
                     "second miss on region with outstanding MSHR");
        PROTO_ASSERT(!used, "MSHR file full");
        slot = entry;
        used = true;
        return &slot;
    }

    MshrEntry *
    find(Addr region)
    {
        return used && slot.region == region ? &slot : nullptr;
    }

    const MshrEntry *
    find(Addr region) const
    {
        return const_cast<MshrFile *>(this)->find(region);
    }

    void
    free(Addr region)
    {
        PROTO_ASSERT(find(region) != nullptr, "freeing absent MSHR");
        used = false;
    }

    std::size_t size() const { return used ? 1 : 0; }

    /** Visit the outstanding entry, if any (deadlock-watchdog scan). */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        if (used)
            fn(slot);
    }

    /**
     * Serialize as a one-slot file: u32 capacity 1, u8 used, then the
     * entry when used.
     */
    void
    saveState(Serializer &s) const
    {
        static_assert(std::is_trivially_copyable_v<MshrEntry>);
        s.writeU32(1);
        s.writeU8(used ? 1 : 0);
        if (used)
            s.writeRaw(slot);
    }

    /**
     * Restore; fails closed on another capacity, a flag byte other
     * than 0/1 and a need or predicted range outside a region of
     * @p region_words words.
     */
    bool
    restoreState(Deserializer &d, unsigned region_words)
    {
        used = false;
        const std::uint32_t capacity = d.readU32();
        const std::uint8_t saved_used = d.readU8();
        if (d.failed() || capacity != 1 || saved_used > 1)
            return false;
        if (!saved_used)
            return true;
        MshrEntry e;
        if (!d.readRawChecked(e, {offsetof(MshrEntry, isWrite),
                                  offsetof(MshrEntry, upgrade),
                                  offsetof(MshrEntry, upgradeBroken)}) ||
            !e.need.within(region_words) || !e.pred.within(region_words))
            return false;
        slot = e;
        used = true;
        return true;
    }

  private:
    /** The outstanding miss, while used. */
    MshrEntry slot;
    bool used = false;
};

/** A dirty block in flight between eviction PUT and WB_ACK. */
struct PendingWb
{
    DataSegment seg;
    /** Touched bitmap of the evicted block (for traffic accounting). */
    WordMask touched = 0;
    bool last = false;
    bool demoteOwner = false;
};

class WbBuffer
{
  public:
    void
    push(Addr region, PendingWb wb)
    {
        pending.push(region, std::move(wb));
    }

    /** Complete the oldest PUT of @p region (its WB_ACK arrived). */
    void
    popFront(Addr region)
    {
        PROTO_ASSERT(pending.contains(region), "WB_ACK without pending PUT");
        pending.popFront(region);
    }

    /**
     * Visit the buffered writebacks of @p region overlapping @p r,
     * oldest first. Used to answer forwarded probes racing with an
     * eviction.
     */
    template <typename F>
    void
    forEachOverlapping(Addr region, const WordRange &r, F &&fn) const
    {
        for (const auto &item : pending.run(region)) {
            if (item.value.seg.range.overlaps(r))
                fn(item.value);
        }
    }

    bool hasPending(Addr region) const { return pending.contains(region); }

    /**
     * Visit every buffered writeback as (region, wb) in ascending
     * region order, oldest first within a region.
     */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        for (const auto &[region, wb] : pending)
            fn(region, wb);
    }

    /**
     * True if a buffered writeback of @p region was NOT collected by a
     * probe for range @p r (i.e. lies entirely outside it). The probe
     * response must then keep this core tracked at the directory, or
     * the in-flight PUT would be classified stale and its dirty data
     * dropped. Only full-region probes collect every segment.
     */
    bool
    hasUncollected(Addr region, const WordRange &r) const
    {
        for (const auto &item : pending.run(region)) {
            if (!item.value.seg.range.overlaps(r))
                return true;
        }
        return false;
    }

    std::size_t pendingCount() const { return pending.size(); }

    /**
     * Serialize every buffered writeback as (region, wb) in ascending
     * region order, oldest first within a region. Restoring by
     * replaying push() reproduces each region's FIFO exactly.
     */
    void
    saveState(Serializer &s) const
    {
        s.writeU32(static_cast<std::uint32_t>(pendingCount()));
        forEach([&](Addr region, const PendingWb &wb) {
            s.writeU64(region);
            s.writeRaw(wb.seg.range);
            s.writeU32(static_cast<std::uint32_t>(wb.seg.words.size()));
            for (std::uint32_t w = 0; w < wb.seg.words.size(); ++w)
                s.writeU64(wb.seg.words[w]);
            s.writeU64(wb.touched);
            s.writeU8(wb.last ? 1 : 0);
            s.writeU8(wb.demoteOwner ? 1 : 0);
        });
    }

    /**
     * Restore over whatever the buffer holds. Fails closed on a
     * segment range outside a region of @p region_words words, a word
     * count other than the range's and a flag byte other than 0/1.
     */
    bool
    restoreState(Deserializer &d, unsigned region_words)
    {
        pending.clear();
        const std::uint32_t n = d.readU32();
        if (d.failed())
            return false;
        for (std::uint32_t i = 0; i < n; ++i) {
            const Addr region = d.readU64();
            PendingWb wb;
            d.readRaw(wb.seg.range);
            const std::uint32_t nw = d.readU32();
            if (d.failed() || !wb.seg.range.within(region_words) ||
                nw != wb.seg.range.words())
                return false;
            wb.seg.words.assign(nw, 0);
            for (std::uint32_t w = 0; w < nw; ++w)
                wb.seg.words[w] = d.readU64();
            wb.touched = d.readU64();
            const std::uint8_t last = d.readU8();
            const std::uint8_t demote = d.readU8();
            if (d.failed() || last > 1 || demote > 1)
                return false;
            wb.last = last != 0;
            wb.demoteOwner = demote != 0;
            push(region, std::move(wb));
        }
        return true;
    }

  private:
    KeyedFifo<Addr, PendingWb> pending;
};

} // namespace protozoa

#endif // PROTOZOA_CACHE_MSHR_HH
