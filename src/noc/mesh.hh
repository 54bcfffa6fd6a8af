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
 * The mesh keeps no copy of what is in flight. System::send is its one
 * entry point: in timed mode routeMessage() returns the arrival cycle
 * and the pending Deliver event is the message's only record;
 * under the schedule oracle park() holds the message itself on its
 * (src,dst) channel until the explorer takes it with takeParked().
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
 * sends interleave across channels. Runs are deterministic for a given
 * seed.
 */

#ifndef PROTOZOA_NOC_MESH_HH
#define PROTOZOA_NOC_MESH_HH

#include <algorithm>
#include <cstdlib>
#include <span>
#include <type_traits>
#include <utility>

#include "common/config.hh"
#include "common/fixed_array.hh"
#include "common/keyed_fifo.hh"
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
    explicit Mesh(const SystemConfig &cfg)
        : cols(cfg.meshCols), rows(cfg.meshRows),
          flitBytes(cfg.flitBytes), hopLatency(cfg.hopLatency),
          flitSerialization(cfg.flitSerialization),
          faultInjection(cfg.faultInjection),
          jitterMax(cfg.faultJitterMax),
          reorderProb(cfg.faultReorderProb),
          faultSeed(cfg.seed ^ 0x6d657368ULL),  // "mesh"
          regionWords(cfg.regionWords()),
          lastArrival(channelCount()),
          pairSeq(faultInjection ? channelCount() : 0),
          oracleOn(cfg.scheduleOracle), parked(oracleOn ? 16 : 0)
    {
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
     * Timed send: account the message in the mesh's stats, apply fault
     * jitter and the per-pair FIFO clamp, and return the absolute
     * delivery cycle for a message leaving @p src at @p now. The caller
     * (System::send) schedules the delivery at that cycle; same-(src,dst)
     * arrivals never reorder.
     */
    Cycle
    routeMessage(unsigned src, unsigned dst, unsigned bytes, Cycle now)
    {
        PROTO_ASSERT(!oracleOn, "routeMessage() bypasses the schedule oracle");
        Cycle latency = account(src, dst, bytes);
        const std::size_t pair =
            static_cast<std::size_t>(src) * cols * rows + dst;
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

    const NetStats &netStats() const { return stats; }

    // ---- schedule oracle (protocheck) -------------------------------

    /**
     * One message parked under the schedule oracle: its channel id
     * (src * nodes + dst) as the key and the message itself as the
     * value. Everything the explorer, the state fingerprint and the
     * snapshot read comes from the message.
     */
    using Parked = KeyedFifo<std::uint32_t, CoherenceMsg>::Item;

    bool scheduleOracleEnabled() const { return oracleOn; }

    /**
     * Schedule-oracle send: account the message and park it behind
     * the last message of its (src,dst) channel instead of scheduling
     * a delivery. The explorer fires channels one head at a time
     * (System::deliverParked), so per-pair FIFO order holds by
     * construction. An empty channel costs nothing: only parked
     * messages are stored.
     */
    void
    park(unsigned src, unsigned dst, unsigned bytes, CoherenceMsg msg)
    {
        PROTO_ASSERT(oracleOn, "park() requires the schedule oracle");
        account(src, dst, bytes);
        parked.push(src * cols * rows + dst, std::move(msg));
    }

    /** Messages currently parked across all channels. */
    std::size_t parkedMessages() const { return parked.size(); }

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
        parked.forEachRun(
            [&](std::uint32_t id, std::span<const Parked> chan) {
                fn(id / nodes, id % nodes, chan);
            });
    }

    /** Pop and return the FIFO head of channel (src,dst). */
    CoherenceMsg
    takeParked(unsigned src, unsigned dst)
    {
        const unsigned nodes = cols * rows;
        PROTO_ASSERT(oracleOn, "schedule oracle is not enabled");
        PROTO_ASSERT(src < nodes && dst < nodes, "channel out of range");
        return parked.popFront(src * nodes + dst);
    }

    /**
     * Serialize all mutable mesh state: counters, the non-zero entries
     * of the per-pair FIFO clamp and jitter-draw matrices, and (under
     * the oracle) every non-empty parked channel.
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
                s.writeU32(chan.front().key);
                s.writeU32(static_cast<std::uint32_t>(chan.size()));
                for (const Parked &p : chan)
                    p.value.save(s);
            });
    }

    /**
     * Restore over whatever a mesh of the same geometry and fault
     * configuration holds (matrix entries the image does not list are
     * zeroed, parked channels it does not list are emptied). Fails
     * closed on a size mismatch, an index or channel id out of range
     * or not strictly ascending, a zero matrix value, an empty
     * channel, a message the loader refuses and a message whose
     * (srcNode, dstNode) is not its channel.
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
            const unsigned nodes = cols * rows;
            for (std::uint32_t i = 0; i < n; ++i) {
                CoherenceMsg m;
                if (!m.load(d, nodes, regionWords) ||
                    m.srcNode * nodes + m.dstNode != id)
                    return false;
                parked.push(id, std::move(m));
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
        std::size_t next = 0;
        for (std::uint32_t i = 0; i < count; ++i) {
            const std::uint32_t index = d.readU32();
            const std::uint64_t value = d.readU64();
            if (d.failed() || index < next || index >= size || value == 0)
                return false;
            std::fill(a.data() + next, a.data() + index, T(0));
            a[index] = static_cast<T>(value);
            next = std::size_t(index) + 1;
        }
        std::fill(a.data() + next, a.data() + a.size(), T(0));
        return true;
    }

    /**
     * The send half that both modes share: range-check the nodes,
     * count the message in the stats and return its contention-free
     * latency.
     */
    Cycle
    account(unsigned src, unsigned dst, unsigned bytes)
    {
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
        return 1 + hopLatency * h +
            flitSerialization * (flits > 0 ? flits - 1 : 0);
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
    /** Words per region: the bound on a restored message's ranges. */
    unsigned regionWords;

    NetStats stats;
    /** Flat nodes*nodes matrix of last delivery cycle per (src,dst). */
    FixedArray<Cycle> lastArrival;
    /** Flat nodes*nodes matrix of jitter draws made per (src,dst);
     *  empty without fault injection. */
    FixedArray<std::uint64_t> pairSeq;

    bool oracleOn;
    /** Parked messages (oracle) by channel id, FIFO within a channel;
     *  an empty channel holds nothing. */
    KeyedFifo<std::uint32_t, CoherenceMsg> parked;
};

} // namespace protozoa

#endif // PROTOZOA_NOC_MESH_HH
