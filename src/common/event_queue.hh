/**
 * @file
 * Discrete-event simulation kernel.
 *
 * Events are (cycle, sequence, callback) triples; ties at the same
 * cycle execute in scheduling order, which keeps the simulation
 * deterministic. Two pieces make the hot path allocation-free:
 *
 *  - EventCallback, a move-only callable with a large inline buffer.
 *    Every callback the simulator schedules (mesh deliveries carrying a
 *    CoherenceMsg, core steps, controller pipeline stages) fits inline;
 *    oversized captures fall back to the heap transparently.
 *
 *  - A two-level calendar scheduler. Near-future events — almost all of
 *    them: cache latencies, mesh hops, directory occupancy, the
 *    300-cycle memory round trip — land in a power-of-two ring of
 *    per-cycle FIFO buckets (O(1) schedule, O(1) amortized dispatch via
 *    an occupancy bitmap). Far-future events spill to a small binary
 *    heap of plain (cycle, seq, node) references and migrate into the
 *    ring when their cycle comes due. Event nodes live in a pooled
 *    free-list, so steady-state scheduling performs zero allocations.
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
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace protozoa {

class Serializer;

/**
 * Detects `void T::saveEvent(Serializer&) const` — the opt-in hook a
 * scheduled callable implements to make itself checkpointable. The
 * hook writes an EventKind tag plus a POD payload; the snapshot layer
 * rebuilds the callable from that record (snapshot_tags.hh).
 */
template <typename T, typename = void>
struct HasSaveEvent : std::false_type
{
};

template <typename T>
struct HasSaveEvent<T, std::void_t<decltype(std::declval<const T &>()
                                                .saveEvent(
                                                    std::declval<Serializer &>()))>>
    : std::true_type
{
};

/**
 * Move-only type-erased void() callable with inline small-buffer
 * storage sized for the simulator's largest common capture (a mesh
 * delivery closure holding a whole CoherenceMsg).
 */
class EventCallback
{
  public:
    /** Inline capture budget; larger callables are heap-boxed. */
    static constexpr std::size_t kInlineBytes = 256;

    EventCallback() noexcept = default;

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, EventCallback> &&
                  std::is_invocable_r_v<void, D &>>>
    EventCallback(F &&f)
    {
        if constexpr (sizeof(D) <= kInlineBytes &&
                      alignof(D) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<D>) {
            ::new (static_cast<void *>(buf)) D(std::forward<F>(f));
            vt = &kInlineVtable<D>;
        } else {
            ::new (static_cast<void *>(buf)) D *(new D(std::forward<F>(f)));
            vt = &kHeapVtable<D>;
        }
    }

    EventCallback(EventCallback &&o) noexcept : vt(o.vt)
    {
        if (vt) {
            vt->relocate(buf, o.buf);
            o.vt = nullptr;
        }
    }

    EventCallback &
    operator=(EventCallback &&o) noexcept
    {
        if (this != &o) {
            reset();
            vt = o.vt;
            if (vt) {
                vt->relocate(buf, o.buf);
                o.vt = nullptr;
            }
        }
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    explicit operator bool() const { return vt != nullptr; }

    void operator()() { vt->invoke(buf); }

    /** True when the callable lives in the inline buffer (no heap). */
    bool inlined() const { return vt != nullptr && vt->inlineStored; }

    /** True when the stored callable implements saveEvent(). */
    bool saveable() const { return vt != nullptr && vt->save != nullptr; }

    /** Serialize the stored callable (must be saveable()). */
    void save(Serializer &s) const { vt->save(buf, s); }

  private:
    struct VTable
    {
        void (*invoke)(void *);
        /** Move storage from @p src to raw @p dst; leaves src dead. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
        /** Serialize; nullptr for non-checkpointable callables. */
        void (*save)(const void *, Serializer &);
        bool inlineStored;
    };

    template <typename D, bool Inline>
    static constexpr auto
    saveFn()
    {
        using Fn = void (*)(const void *, Serializer &);
        if constexpr (HasSaveEvent<D>::value) {
            if constexpr (Inline)
                return Fn([](const void *p, Serializer &s) {
                    std::launder(reinterpret_cast<const D *>(p))
                        ->saveEvent(s);
                });
            else
                return Fn([](const void *p, Serializer &s) {
                    (*std::launder(
                        reinterpret_cast<D *const *>(p)))->saveEvent(s);
                });
        } else {
            return Fn(nullptr);
        }
    }

    template <typename T>
    static T *
    as(void *p)
    {
        return std::launder(reinterpret_cast<T *>(p));
    }

    template <typename D>
    static constexpr VTable kInlineVtable = {
        [](void *p) { (*as<D>(p))(); },
        [](void *dst, void *src) {
            ::new (dst) D(std::move(*as<D>(src)));
            as<D>(src)->~D();
        },
        [](void *p) { as<D>(p)->~D(); },
        saveFn<D, true>(),
        true,
    };

    template <typename D>
    static constexpr VTable kHeapVtable = {
        [](void *p) { (**as<D *>(p))(); },
        [](void *dst, void *src) {
            ::new (dst) D *(*as<D *>(src));
        },
        [](void *p) { delete *as<D *>(p); },
        saveFn<D, false>(),
        false,
    };

    void
    reset()
    {
        if (vt) {
            vt->destroy(buf);
            vt = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf[kInlineBytes];
    const VTable *vt = nullptr;
};

class EventQueue
{
  public:
    using Callback = EventCallback;

    /** Current simulated time. */
    Cycle now() const { return curCycle; }

    /** Schedule @p cb to run @p delay cycles from now. */
    void
    schedule(Cycle delay, Callback cb)
    {
        insert(curCycle + delay, std::move(cb));
    }

    /** Schedule @p cb at absolute cycle @p when (>= now). */
    void
    scheduleAt(Cycle when, Callback cb)
    {
        PROTO_ASSERT(when >= curCycle, "scheduling into the past");
        insert(when, std::move(cb));
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
     * Run queued events with cycle strictly below @p limit, advancing
     * local time as they execute. Events scheduled at or past the limit
     * stay queued, so System::runTo() stops at a quiescent point that a
     * snapshot can serialize.
     * @return number of events executed.
     */
    std::uint64_t
    runUntil(Cycle limit)
    {
        std::uint64_t n = 0;
        Cycle c;
        while (nextEventCycle(c) && c < limit) {
            dispatch(c);
            ++n;
        }
        return n;
    }

    /** Pop and run the next event. @return false when the queue is dry. */
    bool
    step()
    {
        Cycle c;
        if (!nextEventCycle(c))
            return false;
        dispatch(c);
        return true;
    }

    /**
     * Run until the queue is empty.
     * @param max_cycles safety net against protocol deadlock/livelock;
     *        panics when exceeded.
     */
    void
    run(Cycle max_cycles = ~Cycle(0))
    {
        while (step()) {
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
    // every pending (when, seq, callback) triple; restore rebuilds the
    // exact scheduler state so the continued run is bit-identical —
    // including the kernel counters, which the stats digest covers.

    /**
     * Visit every pending event as (when, seq, const Callback&), in no
     * particular order. The snapshot writer sorts by (when, seq) before
     * serializing.
     */
    template <typename F>
    void
    forEachPending(F &&fn) const
    {
        for (unsigned b = 0; b < kNumBuckets; ++b)
            for (std::uint32_t n = bucketHead[b]; n != kNil;
                 n = pool[n].next)
                fn(pool[n].when, pool[n].seq, pool[n].cb);
        for (const SpillRef &r : spill)
            fn(r.when, r.seq, pool[r.node].cb);
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
    restoreEvent(Cycle when, std::uint64_t seq, Callback cb)
    {
        PROTO_ASSERT(when >= curCycle, "restoring event into the past");
        const std::uint32_t n = acquireNode();
        Node &node = pool[n];
        node.when = when;
        node.seq = seq;
        node.next = kNil;
        node.cb = std::move(cb);

        if (when - curCycle < kNumBuckets) {
            const unsigned b = static_cast<unsigned>(when) & kBucketMask;
            if (bucketHead[b] == kNil) {
                bucketHead[b] = bucketTail[b] = n;
                occupancy[b >> 6] |= std::uint64_t(1) << (b & 63);
            } else {
                pool[bucketTail[b]].next = n;
                bucketTail[b] = n;
            }
        } else {
            spill.push_back(SpillRef{when, seq, n});
            std::push_heap(spill.begin(), spill.end(), std::greater<>());
        }
        ++pending;
    }

    /** Set the clock (restore-only; queue must be empty). */
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
        Callback cb;
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

    /** Pop and run the already-located earliest event at cycle @p c. */
    void
    dispatch(Cycle c)
    {
        if (!spill.empty() && spill.front().when == c)
            migrateSpill(c);

        const unsigned b = static_cast<unsigned>(c) & kBucketMask;
        const std::uint32_t n = bucketHead[b];
        bucketHead[b] = pool[n].next;
        if (bucketHead[b] == kNil) {
            bucketTail[b] = kNil;
            occupancy[b >> 6] &= ~(std::uint64_t(1) << (b & 63));
        }

        // Move the callback out before running it: the callback may
        // schedule new events, which can grow the pool and invalidate
        // references into it.
        Callback cb = std::move(pool[n].cb);
        releaseNode(n);
        --pending;
        ++kstats.eventsExecuted;
        curCycle = c;
        cb();
    }

    void
    insert(Cycle when, Callback cb)
    {
        const std::uint32_t n = acquireNode();
        Node &node = pool[n];
        node.when = when;
        node.seq = nextSeq++;
        node.next = kNil;
        node.cb = std::move(cb);

        if (when - curCycle < kNumBuckets) {
            const unsigned b = static_cast<unsigned>(when) & kBucketMask;
            if (bucketHead[b] == kNil) {
                bucketHead[b] = bucketTail[b] = n;
                occupancy[b >> 6] |= std::uint64_t(1) << (b & 63);
            } else {
                pool[bucketTail[b]].next = n;
                bucketTail[b] = n;
            }
            ++kstats.bucketScheduled;
        } else {
            spill.push_back(SpillRef{when, node.seq, n});
            std::push_heap(spill.begin(), spill.end(), std::greater<>());
            ++kstats.heapScheduled;
        }

        ++pending;
        ++kstats.eventsScheduled;
        if (pending > kstats.maxQueueDepth)
            kstats.maxQueueDepth = pending;
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

    void
    releaseNode(std::uint32_t n)
    {
        pool[n].cb = Callback();
        pool[n].next = freeHead;
        freeHead = n;
    }

    std::vector<Node> pool;
    std::uint32_t freeHead = kNil;
    std::array<std::uint32_t, kNumBuckets> bucketHead = [] {
        std::array<std::uint32_t, kNumBuckets> a{};
        a.fill(kNil);
        return a;
    }();
    std::array<std::uint32_t, kNumBuckets> bucketTail = bucketHead;
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
