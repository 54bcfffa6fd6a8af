/**
 * @file
 * Discrete-event simulation kernel.
 *
 * Events are (cycle, sequence, record) triples; ties at the same cycle
 * execute in scheduling order, which keeps the simulation
 * deterministic. The queue stores a trivially copyable Record (the
 * simulator's is protocol/event.hh's Event: a kind, a core or tile id
 * and a plain payload) and hands each one back to its owner to run,
 * so a pending event is data: the snapshot writes it as is and the
 * watchdog reads it in place.
 *
 * A two-level calendar scheduler keeps the hot path O(1) and
 * allocation-free. Near-future events — almost all of them: cache
 * latencies, mesh hops, directory occupancy, the 300-cycle memory
 * round trip — land in a power-of-two ring of per-cycle FIFO buckets
 * (O(1) schedule, O(1) amortized dispatch via an occupancy bitmap).
 * Far-future events spill to a small binary heap of plain (cycle, seq,
 * node) references and migrate into the ring when their cycle comes
 * due. Event nodes live in a pooled free-list, so steady-state
 * scheduling performs zero allocations.
 *
 * Ordering guarantee: events run in strictly ascending (cycle, seq)
 * order regardless of which level they were scheduled into. A spilled
 * event is always scheduled from a strictly earlier cycle than any
 * ring event for the same target cycle (otherwise it would have been
 * within the ring horizon), so prepending migrated spill events ahead
 * of the resident bucket FIFO preserves global seq order exactly.
 */

#ifndef PROTOZOA_COMMON_EVENT_QUEUE_HH
#define PROTOZOA_COMMON_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/log.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace protozoa {

template <typename Record>
class CalendarQueue
{
    static_assert(std::is_trivially_copyable_v<Record>,
                  "an event record is plain data");

  public:
    CalendarQueue()
    {
        bucketHead.fill(kNil);
        bucketTail.fill(kNil);
    }

    /** Current simulated time. */
    Cycle now() const { return curCycle; }

    /** Schedule @p rec to run @p delay cycles from now. */
    void
    schedule(Cycle delay, const Record &rec)
    {
        insert(curCycle + delay, rec);
    }

    /** Schedule @p rec at absolute cycle @p when (>= now). */
    void
    scheduleAt(Cycle when, const Record &rec)
    {
        PROTO_ASSERT(when >= curCycle, "scheduling into the past");
        insert(when, rec);
    }

    bool empty() const { return pending == 0; }

    /** Events currently queued. */
    std::uint64_t size() const { return pending; }

    /**
     * Earliest pending cycle across both scheduler levels.
     * @return false when the queue is dry.
     */
    bool
    nextEventCycle(Cycle &out) const
    {
        if (pending == 0)
            return false;
        Cycle c;
        if (!nextRingCycle(c) ||
            (!spill.empty() && spill.front().when <= c))
            c = spill.front().when;
        out = c;
        return true;
    }

    /**
     * Take the earliest event due strictly before @p limit: copy its
     * record to @p out, free its node and advance the clock to it.
     * The record is copied out because running it may schedule new
     * events, which can grow the pool. @return false when no event is
     * due before the limit.
     */
    bool
    pop(Record &out, Cycle limit = ~Cycle(0))
    {
        Cycle c;
        if (!nextEventCycle(c) || c >= limit)
            return false;
        if (!spill.empty() && spill.front().when == c)
            migrateSpill(c);

        const unsigned b = static_cast<unsigned>(c) & kBucketMask;
        const std::uint32_t n = bucketHead[b];
        bucketHead[b] = pool[n].next;
        if (bucketHead[b] == kNil) {
            bucketTail[b] = kNil;
            occupancy[b >> 6] &= ~(std::uint64_t(1) << (b & 63));
        }
        out = pool[n].rec;
        pool[n].next = freeHead;
        freeHead = n;
        --pending;
        ++kstats.eventsExecuted;
        curCycle = c;
        return true;
    }

    /**
     * Run queued events with cycle strictly below @p limit through
     * @p handle, advancing local time as they execute. Events
     * scheduled at or past the limit stay queued, so System::runTo()
     * stops at a quiescent point that a snapshot can serialize.
     * @return number of events executed.
     */
    template <typename F>
    std::uint64_t
    runUntil(Cycle limit, F &&handle)
    {
        std::uint64_t n = 0;
        Record rec;
        while (pop(rec, limit)) {
            handle(rec);
            ++n;
        }
        return n;
    }

    /** Pop and run the next event. @return false when the queue is dry. */
    template <typename F>
    bool
    step(F &&handle)
    {
        Record rec;
        if (!pop(rec))
            return false;
        handle(rec);
        return true;
    }

    /**
     * Run until the queue is empty.
     * @param max_cycles safety net against protocol deadlock/livelock;
     *        panics when exceeded.
     */
    template <typename F>
    void
    run(F &&handle, Cycle max_cycles = ~Cycle(0))
    {
        Record rec;
        while (pop(rec)) {
            handle(rec);
            if (curCycle > max_cycles)
                panic("event queue still busy at cycle %llu "
                      "(deadlock or livelock?)",
                      static_cast<unsigned long long>(curCycle));
        }
    }

    /** Scheduler observability counters. */
    const KernelStats &kernelStats() const { return kstats; }

    // ---- Snapshot hooks (src/snapshot) --------------------------------
    //
    // A checkpoint serializes the queue as (clock, nextSeq, kstats) plus
    // every pending (when, seq, record) triple; restore rebuilds the
    // exact scheduler state so the continued run is bit-identical —
    // including the kernel counters, which the stats digest covers.

    /**
     * Visit every pending event as (when, seq, const Record &), in no
     * particular order; only the occupied ring buckets are walked. The
     * snapshot writer sorts by (when, seq) before serializing.
     */
    template <typename F>
    void
    forEachPending(F &&fn) const
    {
        forEachSetBit(occupancy.data(), occupancy.size(), [&](unsigned b) {
            for (std::uint32_t n = bucketHead[b]; n != kNil;
                 n = pool[n].next)
                fn(pool[n].when, pool[n].seq, pool[n].rec);
        });
        for (const SpillRef &r : spill)
            fn(r.when, r.seq, pool[r.node].rec);
    }

    /**
     * Drop every pending event (restore-only), in time proportional to
     * the occupied buckets. The node pool keeps its capacity and hands
     * out nodes in the order a new queue does. The clock, sequence
     * counter and kernel counters are left for the restore to set.
     */
    void
    clear()
    {
        forEachSetBit(occupancy.data(), occupancy.size(), [&](unsigned b) {
            bucketHead[b] = bucketTail[b] = kNil;
        });
        occupancy.fill(0);
        spill.clear();
        pool.clear();
        freeHead = kNil;
        pending = 0;
    }

    /**
     * Re-insert a saved event with its original sequence number.
     * Restore-only: does not advance nextSeq and does not touch the
     * kernel counters (those are restored wholesale via setKernelStats,
     * so re-counting here would double them). Events MUST be restored
     * in ascending (when, seq) order onto an empty queue whose clock
     * has already been set — bucket FIFOs are append-only, so that
     * order is what keeps same-cycle chains sorted by seq.
     */
    void
    restoreEvent(Cycle when, std::uint64_t seq, const Record &rec)
    {
        PROTO_ASSERT(when >= curCycle, "restoring event into the past");
        place(when, seq, rec);
    }

    /** Set the clock (restore-only; queue must be empty: clear()). */
    void
    setClock(Cycle c)
    {
        PROTO_ASSERT(pending == 0, "clock set on a non-empty queue");
        curCycle = c;
    }

    std::uint64_t nextSeqValue() const { return nextSeq; }
    void setNextSeq(std::uint64_t s) { nextSeq = s; }
    void setKernelStats(const KernelStats &k) { kstats = k; }

    /**
     * Calendar-ring horizon in cycles: events at least this far in the
     * future spill to the far-future heap. Exposed for the boundary
     * property tests and the kernel micro-benchmark.
     */
    static constexpr unsigned kRingHorizon = 1u << 10;

  private:
    /** One bucket per cycle within the horizon (power of two). */
    static constexpr unsigned kNumBuckets = kRingHorizon;
    static constexpr unsigned kBucketMask = kNumBuckets - 1;
    static constexpr std::uint32_t kNil = ~std::uint32_t(0);

    struct Node
    {
        Cycle when = 0;
        std::uint64_t seq = 0;
        std::uint32_t next = kNil;
        Record rec;
    };

    /** Far-future reference; the payload stays in the node pool. */
    struct SpillRef
    {
        Cycle when;
        std::uint64_t seq;
        std::uint32_t node;

        bool
        operator>(const SpillRef &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    void
    insert(Cycle when, const Record &rec)
    {
        if (place(when, nextSeq++, rec))
            ++kstats.bucketScheduled;
        else
            ++kstats.heapScheduled;
        ++kstats.eventsScheduled;
        if (pending > kstats.maxQueueDepth)
            kstats.maxQueueDepth = pending;
    }

    /**
     * Queue one event: append it to its ring bucket's FIFO when @p when
     * lies within the ring horizon, else push it onto the spill heap.
     * @return true for a ring bucket.
     */
    bool
    place(Cycle when, std::uint64_t seq, const Record &rec)
    {
        const std::uint32_t n = acquireNode();
        Node &node = pool[n];
        node.when = when;
        node.seq = seq;
        node.next = kNil;
        node.rec = rec;
        ++pending;

        if (when - curCycle >= kNumBuckets) {
            spill.push_back(SpillRef{when, seq, n});
            std::push_heap(spill.begin(), spill.end(), std::greater<>());
            return false;
        }
        const unsigned b = static_cast<unsigned>(when) & kBucketMask;
        if (bucketHead[b] == kNil) {
            bucketHead[b] = bucketTail[b] = n;
            occupancy[b >> 6] |= std::uint64_t(1) << (b & 63);
        } else {
            pool[bucketTail[b]].next = n;
            bucketTail[b] = n;
        }
        return true;
    }

    /**
     * Earliest cycle with a non-empty ring bucket. All ring events lie
     * within [curCycle, curCycle + kNumBuckets), so an occupancy-bitmap
     * scan of one ring lap starting at curCycle's bucket finds it.
     */
    bool
    nextRingCycle(Cycle &out) const
    {
        const unsigned base = static_cast<unsigned>(curCycle) & kBucketMask;
        unsigned off = 0;
        while (off < kNumBuckets) {
            const unsigned idx = (base + off) & kBucketMask;
            const unsigned bit = idx & 63;
            const std::uint64_t word = occupancy[idx >> 6] >> bit;
            if (word != 0) {
                out = curCycle + off +
                      static_cast<unsigned>(std::countr_zero(word));
                return true;
            }
            off += 64 - bit;
        }
        return false;
    }

    /**
     * Pull every spilled event due at cycle @p c into its bucket,
     * *ahead* of resident ring events (spilled events always carry
     * smaller seq numbers — see the file comment).
     */
    void
    migrateSpill(Cycle c)
    {
        std::uint32_t head = kNil, tail = kNil;
        while (!spill.empty() && spill.front().when == c) {
            const std::uint32_t n = spill.front().node;
            std::pop_heap(spill.begin(), spill.end(), std::greater<>());
            spill.pop_back();
            pool[n].next = kNil;
            if (head == kNil)
                head = n;
            else
                pool[tail].next = n;
            tail = n;
        }
        if (head == kNil)
            return;

        const unsigned b = static_cast<unsigned>(c) & kBucketMask;
        if (bucketHead[b] == kNil) {
            bucketHead[b] = head;
            bucketTail[b] = tail;
            occupancy[b >> 6] |= std::uint64_t(1) << (b & 63);
        } else {
            pool[tail].next = bucketHead[b];
            bucketHead[b] = head;
        }
    }

    std::uint32_t
    acquireNode()
    {
        if (freeHead != kNil) {
            const std::uint32_t n = freeHead;
            freeHead = pool[n].next;
            return n;
        }
        pool.emplace_back();
        return static_cast<std::uint32_t>(pool.size() - 1);
    }

    std::vector<Node> pool;
    std::uint32_t freeHead = kNil;
    /** Per-bucket FIFO ends, kNil when empty. Filled by the
     *  constructor: built by a lambda in a default member initializer
     *  they took minutes to compile per translation unit under
     *  -O2 -g -fsanitize=address,undefined (variable tracking). */
    std::array<std::uint32_t, kNumBuckets> bucketHead;
    std::array<std::uint32_t, kNumBuckets> bucketTail;
    std::array<std::uint64_t, kNumBuckets / 64> occupancy{};
    /** Min-heap over (when, seq) kept with std::push_heap/pop_heap so
     *  the snapshot writer can iterate it (a priority_queue hides its
     *  container). front() is the earliest spilled event. */
    std::vector<SpillRef> spill;

    std::uint64_t pending = 0;
    Cycle curCycle = 0;
    std::uint64_t nextSeq = 0;
    KernelStats kstats;
};

} // namespace protozoa

#endif // PROTOZOA_COMMON_EVENT_QUEUE_HH
