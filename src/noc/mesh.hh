/**
 * @file
 * Analytic 2-D mesh interconnect (Table 4: 4x4 mesh, 16-byte flits,
 * 2-network-cycle links at half the core clock).
 *
 * Every L1 and its co-located L2 tile share a mesh node. The model is
 * XY-routed and contention-free except for per-(src,dst) FIFO ordering,
 * which the coherence protocol relies on for correctness (e.g. an
 * eviction PUT never overtakes the WB_RESP that superseded it).
 *
 * The mesh owns the Fig. 15 statistics: flit-hops are the paper's
 * dynamic-energy proxy for the interconnect.
 *
 * When `cfg.faultInjection` is set the mesh adds seeded random delay to
 * every message ("jitter"), and occasionally a long hold that all but
 * guarantees messages on *other* (src,dst) pairs overtake it. The
 * per-pair FIFO clamp is applied after the perturbation, so the ordering
 * invariant the protocol relies on is never violated — only cross-pair
 * interleavings change. Jitter draws are counter-based: sample k on
 * channel (src,dst) is a pure hash of (seed, channel, k), never a pull
 * from a shared sequential stream, so the fault schedule each channel
 * sees depends only on the seed and that channel's traffic — not on how
 * sends interleave across channels, and not on which engine (sequential
 * or sharded parallel) is driving the mesh. Runs are deterministic for
 * a given seed.
 */

#ifndef PROTOZOA_NOC_MESH_HH
#define PROTOZOA_NOC_MESH_HH

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <functional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/event_queue.hh"
#include "common/fixed_array.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "common/word_range.hh"
#include "protocol/coherence_msg.hh"

namespace protozoa {

class Mesh
{
  public:
    Mesh(EventQueue &eq, const SystemConfig &cfg)
        : eventq(eq), cols(cfg.meshCols), rows(cfg.meshRows),
          flitBytes(cfg.flitBytes), hopLatency(cfg.hopLatency),
          flitSerialization(cfg.flitSerialization),
          faultInjection(cfg.faultInjection),
          jitterMax(cfg.faultJitterMax),
          reorderProb(cfg.faultReorderProb),
          faultSeed(cfg.seed ^ 0x6d657368ULL),  // "mesh"
          lastArrival(channelCount()),
          pairSeq(faultInjection ? channelCount() : 0)
    {
        if (cfg.scheduleOracle)
            enableScheduleOracle();
    }

    /** Manhattan distance between two mesh nodes under XY routing. */
    unsigned
    hops(unsigned src, unsigned dst) const
    {
        const int sx = static_cast<int>(src % cols);
        const int sy = static_cast<int>(src / cols);
        const int dx = static_cast<int>(dst % cols);
        const int dy = static_cast<int>(dst / cols);
        return static_cast<unsigned>(std::abs(sx - dx) + std::abs(sy - dy));
    }

    /** Number of flits needed to carry @p bytes. */
    unsigned
    flitsFor(unsigned bytes) const
    {
        return (bytes + flitBytes - 1) / flitBytes;
    }

    /**
     * Send @p bytes from node @p src to node @p dst; runs @p deliver at
     * the arrival cycle. Same-(src,dst) messages never reorder.
     * Non-oracle only: under the schedule oracle System::send parks the
     * message itself via park().
     *
     * @return the delivery delay in core cycles.
     */
    Cycle
    send(unsigned src, unsigned dst, unsigned bytes,
         EventQueue::Callback deliver)
    {
        PROTO_ASSERT(!oracleOn, "send() bypasses the schedule oracle");
        const Cycle arrival =
            routeMessage(src, dst, bytes, eventq.now(), stats);
        eventq.scheduleAt(arrival, std::move(deliver));
        return arrival - eventq.now();
    }

    /**
     * Schedule-oracle send: account the message and park it on its
     * (src,dst) channel instead of scheduling a delivery; the external
     * chooser (src/check explorer) fires channels one head at a time
     * via deliverParked(), so per-pair FIFO order holds by
     * construction. Identifying metadata (fingerprint, type, region)
     * is derived from the message here.
     *
     * @return the nominal delivery delay in core cycles.
     */
    Cycle
    park(unsigned src, unsigned dst, unsigned bytes, CoherenceMsg msg)
    {
        PROTO_ASSERT(oracleOn, "park() requires the schedule oracle");
        const unsigned nodes = cols * rows;
        PROTO_ASSERT(src < nodes && dst < nodes,
                     "mesh node out of range: src=%u dst=%u nodes=%u",
                     src, dst, nodes);
        const unsigned h = hops(src, dst);
        const unsigned flits = flitsFor(bytes);
        stats.messages += 1;
        stats.bytes += bytes;
        stats.flits += flits;
        stats.flitHops += static_cast<std::uint64_t>(flits) * h;
        const Cycle latency = 1 + hopLatency * h +
            flitSerialization * (flits > 0 ? flits - 1 : 0);

        Parked p;
        p.channel = src * nodes + dst;
        p.hash = msg.fingerprint();
        p.type = msgTypeName(msg.type);
        p.region = msg.region;
        p.range = msg.range;
        p.dstIsDir = msg.dstIsDir;
        p.isData = msg.type == MsgType::DATA;
        p.msg = std::move(msg);
        // Behind the channel's last message: FIFO within the channel.
        const auto at = std::upper_bound(
            parked.begin(), parked.end(), p.channel,
            [](std::uint32_t c, const Parked &q) { return c < q.channel; });
        parked.insert(at, std::move(p));
        return latency;
    }

    /**
     * Engine-neutral half of send(): account the message in @p slab,
     * apply fault jitter and the per-pair FIFO clamp, and return the
     * absolute delivery cycle for a message leaving @p src at @p now.
     * The sharded engine calls this from shard threads — every mutable
     * cell it touches (the pair's jitter counter and FIFO clamp, the
     * caller-supplied stats slab) is indexed by (src,dst) and owned by
     * src's shard, so concurrent sends from distinct sources never
     * share state.
     */
    Cycle
    routeMessage(unsigned src, unsigned dst, unsigned bytes, Cycle now,
                 NetStats &slab)
    {
        const unsigned nodes = cols * rows;
        PROTO_ASSERT(src < nodes && dst < nodes,
                     "mesh node out of range: src=%u dst=%u nodes=%u",
                     src, dst, nodes);
        PROTO_ASSERT(!oracleOn, "schedule oracle is sequential-only");

        const unsigned h = hops(src, dst);
        const unsigned flits = flitsFor(bytes);

        slab.messages += 1;
        slab.bytes += bytes;
        slab.flits += flits;
        slab.flitHops += static_cast<std::uint64_t>(flits) * h;

        Cycle latency = 1 + hopLatency * h +
            flitSerialization * (flits > 0 ? flits - 1 : 0);

        const std::size_t pair =
            static_cast<std::size_t>(src) * nodes + dst;
        if (faultInjection)
            latency += faultDelay(pair);

        Cycle arrival = now + latency;

        // Per-pair FIFO: never deliver before the previous message on
        // this (src,dst) channel. Applied after fault injection so the
        // ordering invariant survives any perturbation.
        Cycle &last = lastArrival[pair];
        if (arrival <= last)
            arrival = last + 1;
        last = arrival;

        return arrival;
    }

    /**
     * Smallest possible delivery delay between two *distinct* tiles:
     * one base cycle plus at least one hop. The sharded engine's
     * conservative lookahead window — events inside a window cannot be
     * affected by cross-shard messages sent in the same window —
     * equals exactly this bound (jitter and the FIFO clamp only ever
     * increase a delay).
     */
    Cycle minCrossTileLatency() const { return 1 + hopLatency; }

    /**
     * Smallest possible delivery delay from @p src to @p dst
     * specifically: one base cycle plus the XY-routed hop count at
     * hopLatency per hop (jitter, serialization and the FIFO clamp only
     * ever increase a delay). The sharded engine's per-(src,dst)
     * lookahead matrix is built from this — distant shard pairs earn a
     * wider window than the flat minCrossTileLatency() bound.
     */
    Cycle
    pairLatencyBound(unsigned src, unsigned dst) const
    {
        return 1 + hopLatency * hops(src, dst);
    }

    const NetStats &netStats() const { return stats; }

    /** The mesh-owned stats slab (sequential engine's routeMessage). */
    NetStats &statsSlab() { return stats; }

    /** One tracked in-flight message (deadlock-watchdog diagnostics). */
    struct QueuedMsg
    {
        unsigned src = 0;
        unsigned dst = 0;
        Cycle arrival = 0;
        /** Static message-type name (from msgTypeName). */
        const char *type = "?";
        Addr region = 0;
        WordRange range;
        bool dstIsDir = false;
    };

    /**
     * Start recording every sent message until its arrival cycle, so a
     * deadlock dump can enumerate the in-flight set per channel. Off by
     * default: tracking touches a deque per message and is meant for
     * watchdog-enabled debug runs, not the measurement path.
     */
    void
    enableTracking()
    {
        tracking = true;
        if (inFlight.empty())
            inFlight.resize(static_cast<std::size_t>(cols) * rows);
    }
    bool trackingEnabled() const { return tracking; }

    /**
     * Record one sent message (caller supplies the arrival cycle and
     * its local notion of now). Tracked messages live in per-source
     * deques so concurrent shards never share one; @p now prunes only
     * the source's own deque.
     */
    void
    noteQueued(QueuedMsg msg, Cycle now)
    {
        if (!tracking)
            return;
        auto &q = inFlight[msg.src];
        prune(q, now);
        q.push_back(msg);
    }

    void noteQueued(QueuedMsg msg) { noteQueued(msg, eventq.now()); }

    /**
     * Visit every message still in flight (arrival >= @p now), source
     * by source in send order. Not safe concurrently with senders —
     * call it from the sequential engine or at a barrier.
     */
    template <typename F>
    void
    forEachQueued(Cycle now, F &&fn)
    {
        for (auto &q : inFlight) {
            prune(q, now);
            for (const QueuedMsg &m : q) {
                if (m.arrival >= now)
                    fn(m);
            }
        }
    }

    template <typename F>
    void
    forEachQueued(F &&fn)
    {
        forEachQueued(eventq.now(), std::forward<F>(fn));
    }

    // ---- schedule oracle (protocheck) -------------------------------

    /** One message parked under the schedule oracle. */
    struct Parked
    {
        /** Channel id, src * nodes + dst. */
        std::uint32_t channel = 0;
        /** The parked message itself — delivered via the deliver
         *  hook when the explorer fires this channel head. Holding
         *  the message (not a type-erased closure) is what lets the
         *  explorer snapshot and restore parked channels byte-wise. */
        CoherenceMsg msg;
        /** Canonical content hash (state fingerprinting). */
        std::uint64_t hash = 0;
        /** Static message-type name (repro / diagnostics). */
        const char *type = "?";
        Addr region = 0;
        WordRange range;
        bool dstIsDir = false;
        /**
         * DATA grant: delivering it can complete the destination
         * core's access and chain into its next ones. The explorer's
         * partial-order reduction keys its independence rule on this.
         */
        bool isData = false;
    };

    /**
     * Divert every subsequent send() into per-(src,dst) parking
     * channels; deliveries then happen only via deliverParked(). The
     * oracle costs one branch when disabled, and an empty channel
     * costs nothing: only parked messages are stored, so the
     * measurement path stays untouched.
     */
    void enableScheduleOracle() { oracleOn = true; }

    bool scheduleOracleEnabled() const { return oracleOn; }

    /** Messages currently parked across all channels. */
    std::size_t parkedMessages() const { return parked.size(); }

    /**
     * Install the delivery sink for parked messages: deliverParked()
     * hands the popped message to this hook (System::deliver). Must be
     * set before the first deliverParked() under the oracle.
     */
    void
    setDeliverHook(std::function<void(CoherenceMsg &&)> hook)
    {
        deliverHook = std::move(hook);
    }

    /**
     * Visit every non-empty channel in ascending (src,dst) order, as
     * its messages in FIFO order — the canonical enumeration the
     * explorer's choice indices and the state fingerprint both rely
     * on.
     */
    template <typename F>
    void
    forEachParkedChannel(F &&fn) const
    {
        const unsigned nodes = cols * rows;
        for (auto it = parked.begin(); it != parked.end();) {
            const auto end =
                std::find_if(it, parked.end(), [&](const Parked &p) {
                    return p.channel != it->channel;
                });
            fn(it->channel / nodes, it->channel % nodes,
               std::span<const Parked>(
                   &*it, static_cast<std::size_t>(end - it)));
            it = end;
        }
    }

    /** Deliver the FIFO head of channel (src,dst) now. */
    void
    deliverParked(unsigned src, unsigned dst)
    {
        const unsigned nodes = cols * rows;
        PROTO_ASSERT(oracleOn, "schedule oracle is not enabled");
        PROTO_ASSERT(src < nodes && dst < nodes, "channel out of range");
        const std::uint32_t id = src * nodes + dst;
        const auto head = std::lower_bound(
            parked.begin(), parked.end(), id,
            [](const Parked &p, std::uint32_t c) { return p.channel < c; });
        PROTO_ASSERT(head != parked.end() && head->channel == id,
                     "delivering from an empty channel");
        PROTO_ASSERT(deliverHook, "deliverParked without a deliver hook");
        CoherenceMsg msg = std::move(head->msg);
        parked.erase(head);
        eventq.schedule(0, [this, m = std::move(msg)]() mutable {
            deliverHook(std::move(m));
        });
    }

    /**
     * Reset the measurement counters *and* the per-pair FIFO history, so
     * a measurement interval starting here sees no warmup ordering state.
     */
    void
    clearStats()
    {
        stats = NetStats();
        std::fill(lastArrival.data(),
                  lastArrival.data() + lastArrival.size(), 0);
    }

    /**
     * Serialize all mutable mesh state: counters, the non-zero entries
     * of the per-pair FIFO clamp and jitter-draw matrices, and (under
     * the oracle) every non-empty parked channel. In-flight *tracking*
     * deques are diagnostics only and are not saved.
     *
     * Each matrix is u32 size, u32 count of non-zero entries, then per
     * entry in ascending index order u32 index, u64 value. The parked
     * section is u32 count of non-empty channels, then per channel in
     * ascending id order u32 id (src * nodes + dst), u32 message count
     * (at least 1), and the messages in FIFO order.
     */
    void
    saveState(Serializer &s) const
    {
        static_assert(std::is_trivially_copyable<NetStats>::value,
                      "NetStats must stay raw-serializable");
        s.writeRaw(stats);
        saveSparse(s, lastArrival);
        saveSparse(s, pairSeq);
        s.writeU8(oracleOn ? 1 : 0);
        if (!oracleOn)
            return;
        std::uint32_t chans = 0;
        forEachParkedChannel(
            [&](unsigned, unsigned, std::span<const Parked>) { ++chans; });
        s.writeU32(chans);
        forEachParkedChannel(
            [&](unsigned, unsigned, std::span<const Parked> chan) {
                s.writeU32(chan.front().channel);
                s.writeU32(static_cast<std::uint32_t>(chan.size()));
                for (const Parked &p : chan) {
                    p.msg.save(s);
                    s.writeU64(p.hash);
                }
            });
    }

    /**
     * Restore into a freshly constructed mesh of the same geometry and
     * fault configuration (matrix entries the image does not list keep
     * their zero). Fails closed on a size mismatch, an index or channel
     * id out of range or not strictly ascending, a zero matrix value
     * and an empty channel. Parked-message metadata (type name, region,
     * range, data flag) is recomputed from the message content.
     */
    bool
    restoreState(Deserializer &d)
    {
        if (!d.readRaw(stats) || !restoreSparse(d, lastArrival) ||
            !restoreSparse(d, pairSeq))
            return false;
        std::uint8_t oracle = 0;
        if (!d.readRaw(oracle) || (oracle != 0) != oracleOn)
            return false;
        if (!oracleOn)
            return true;
        parked.clear();
        const std::uint32_t chans = d.readU32();
        std::uint64_t next = 0;
        for (std::uint32_t c = 0; c < chans; ++c) {
            const std::uint32_t id = d.readU32();
            const std::uint32_t n = d.readU32();
            if (d.failed() || id < next || id >= channelCount() || n == 0)
                return false;
            next = std::uint64_t(id) + 1;
            for (std::uint32_t i = 0; i < n; ++i) {
                Parked p;
                p.channel = id;
                if (!d.readRaw(p.msg) || !d.readRaw(p.hash))
                    return false;
                p.type = msgTypeName(p.msg.type);
                p.region = p.msg.region;
                p.range = p.msg.range;
                p.dstIsDir = p.msg.dstIsDir;
                p.isData = p.msg.type == MsgType::DATA;
                parked.push_back(std::move(p));
            }
        }
        return !d.failed();
    }

  private:
    /** (src,dst) pairs: nodes squared. */
    std::size_t
    channelCount() const
    {
        return static_cast<std::size_t>(cols) * rows * cols * rows;
    }

    template <typename T>
    static void
    saveSparse(Serializer &s, const FixedArray<T> &a)
    {
        std::uint32_t nonzero = 0;
        for (std::size_t i = 0; i < a.size(); ++i)
            nonzero += a[i] != 0 ? 1 : 0;
        s.writeU32(static_cast<std::uint32_t>(a.size()));
        s.writeU32(nonzero);
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (a[i] == 0)
                continue;
            s.writeU32(static_cast<std::uint32_t>(i));
            s.writeU64(a[i]);
        }
    }

    template <typename T>
    static bool
    restoreSparse(Deserializer &d, FixedArray<T> &a)
    {
        const std::uint32_t size = d.readU32();
        const std::uint32_t count = d.readU32();
        if (d.failed() || size != a.size() || count > size)
            return false;
        std::uint64_t next = 0;
        for (std::uint32_t i = 0; i < count; ++i) {
            const std::uint32_t index = d.readU32();
            const std::uint64_t value = d.readU64();
            if (d.failed() || index < next || index >= size || value == 0)
                return false;
            next = std::uint64_t(index) + 1;
            a[index] = static_cast<T>(value);
        }
        return true;
    }

    /** Drop tracked messages that were delivered before @p now. */
    static void
    prune(std::deque<QueuedMsg> &q, Cycle now)
    {
        while (!q.empty() && q.front().arrival < now)
            q.pop_front();
    }

    /**
     * Counter-based fault perturbation for the next message on
     * @p pair: extra delay uniform in [0, jitterMax], plus the long
     * reorder hold with probability reorderProb. Each draw hashes
     * (seed, pair, per-pair message index) — no shared stream, so the
     * schedule is independent of cross-pair send interleaving.
     */
    Cycle
    faultDelay(std::size_t pair)
    {
        const std::uint64_t seq = pairSeq[pair]++;
        Cycle extra = counterHash64(faultSeed, pair, 2 * seq) %
                      (jitterMax + 1);
        const double hold =
            static_cast<double>(
                counterHash64(faultSeed, pair, 2 * seq + 1) >> 11) *
            0x1.0p-53;
        if (hold < reorderProb)
            extra += 4 * jitterMax + 16;
        return extra;
    }

    EventQueue &eventq;
    unsigned cols;
    unsigned rows;
    unsigned flitBytes;
    Cycle hopLatency;
    Cycle flitSerialization;

    bool faultInjection;
    Cycle jitterMax;
    double reorderProb;
    /** Base seed of the counter-based jitter hash. */
    std::uint64_t faultSeed;

    NetStats stats;
    /** Flat nodes*nodes matrix of last delivery cycle per (src,dst). */
    FixedArray<Cycle> lastArrival;
    /** Flat nodes*nodes matrix of jitter draws made per (src,dst);
     *  empty without fault injection. */
    FixedArray<std::uint64_t> pairSeq;

    bool tracking = false;
    /** Per-source sent-but-undelivered messages, in send order
     *  (tracking only; indexed by src so shards never share a deque). */
    std::vector<std::deque<QueuedMsg>> inFlight;

    bool oracleOn = false;
    /** Parked messages (oracle), sorted by channel id and FIFO within
     *  a channel; an empty channel holds nothing. */
    std::vector<Parked> parked;
    /** Delivery sink for parked messages (set by System). */
    std::function<void(CoherenceMsg &&)> deliverHook;
};

} // namespace protozoa

#endif // PROTOZOA_NOC_MESH_HH
