/**
 * @file
 * System checkpoint/restore implementation: the byte layout lives
 * here and nowhere else (see snapshot.hh for the contract).
 *
 * Layout (version 8, all little-endian; raw structs are written with
 * their padding zeroed, so identical runs save identical bytes):
 *
 *   u32 magic "PZSN"        u32 version        u64 configFingerprint
 *   -- system misc: started, finalized, coresRunning, invariant and
 *      watchdog records, dropped-message count, runtime-enable knobs
 *      (checkPeriod, watchdogBound)
 *   -- golden memory, backing memory image
 *   -- conformance coverage: the per-knob-profile seen bytes, then the
 *      L1 and the directory matrices, each as u32 cell count, u32
 *      count of non-zero cells, and per non-zero cell in ascending
 *      order u32 cell, u64 count
 *   -- cores, L1s (outstanding-access flag inside), each L1 holding
 *      its cache's resident blocks per set in insertion order, then a
 *      sparse predictor table: u32 table size, u32 count of trained
 *      entries, and per trained entry in ascending index order
 *      u32 index, u8 left extent, u8 right extent (PcSpatial only)
 *   -- directory tiles, each: stats, LRU clock, occupancy horizon,
 *      jitter RNG, (setsPerTile, l2Assoc), then a sparse entry list:
 *      u32 count of valid slots, and per valid slot in ascending slot
 *      order u32 slot, u64 region, u8 filling, u8 dirty, u64 LRU
 *      stamp, readers, writers, u8 wordCount, wordCount data words;
 *      then active transactions, queued requests, Bloom counters
 *   -- mesh: NetStats, then the per-(src,dst) lastArrival and pairSeq
 *      matrices, each as u32 size, u32 count of non-zero entries, and
 *      per non-zero entry in ascending index order u32 index, u64
 *      value; u8 schedule-oracle flag, and under the oracle u32 count
 *      of non-empty parked channels, then per channel in ascending id
 *      order (src * nodes + dst) u32 id, u32 message count (at least
 *      1) and the messages in FIFO order
 *   -- calendar queue: clock, nextSeq, kernel stats, then every
 *      pending event record sorted by (when, seq) as u64 when, u64
 *      seq, u8 EventKind, then u16 core or tile id (all kinds but
 *      Deliver and the ticks) and the payload: the MemAccess
 *      (CoreIssue), a u64 value or region (L1Complete, DirFill) or
 *      the CoherenceMsg (L1Send, DirSend, Deliver)
 *
 * Any layout change here or in a component's saveState must bump
 * kSnapshotVersion (snapshot_tags.hh).
 */

#include "snapshot/snapshot.hh"

#include <algorithm>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/snapshot_tags.hh"
#include "protocol/event.hh"
#include "sim/system.hh"

namespace protozoa {

namespace {

std::uint64_t
bitsOf(double v)
{
    std::uint64_t b = 0;
    static_assert(sizeof(b) == sizeof(v), "double must be 64-bit");
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

/** Minimum serialized size of one event record (when + seq + kind):
 *  used as a sanity bound on the event count of a corrupt image. */
constexpr std::uint64_t kMinEventBytes = 8 + 8 + 1;

bool
setError(std::string *error, std::string msg)
{
    if (error)
        *error = std::move(msg);
    return false;
}

/** Which ids a saved event record's u16 may name; None: no id. */
enum class IdSpace { None, Cores, Tiles };

IdSpace
idSpaceOf(EventKind kind)
{
    switch (kind) {
      case EventKind::CoreStep:
      case EventKind::CoreIssue:
      case EventKind::L1Complete:
      case EventKind::L1Send:
        return IdSpace::Cores;
      case EventKind::DirSend:
      case EventKind::DirFill:
        return IdSpace::Tiles;
      default:
        return IdSpace::None;
    }
}

/**
 * Serialize one calendar queue: scheduler registers plus every pending
 * event record in deterministic (when, seq) order, each as (when, seq,
 * kind, id, payload). Fails, naming the cycle in *error, on a pending
 * test hook: it points into the running process.
 */
bool
saveQueue(const EventQueue &q, Serializer &s, std::string *error)
{
    s.writeU64(q.now());
    s.writeU64(q.nextSeqValue());
    s.writeRaw(q.kernelStats());

    struct Ref
    {
        Cycle when;
        std::uint64_t seq;
        const Event *ev;
    };
    std::vector<Ref> refs;
    refs.reserve(static_cast<std::size_t>(q.size()));
    q.forEachPending([&](Cycle when, std::uint64_t seq, const Event &ev) {
        refs.push_back(Ref{when, seq, &ev});
    });
    std::sort(refs.begin(), refs.end(), [](const Ref &a, const Ref &b) {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    });

    s.writeU64(refs.size());
    for (const Ref &r : refs) {
        const Event &ev = *r.ev;
        if (ev.kind == EventKind::TestHook) {
            return setError(error,
                            "pending event at cycle " +
                                std::to_string(r.when) +
                                " is not checkpointable (test hook in "
                                "the queue)");
        }
        s.writeU64(r.when);
        s.writeU64(r.seq);
        s.writeU8(static_cast<std::uint8_t>(ev.kind));
        if (idSpaceOf(ev.kind) != IdSpace::None)
            s.writeU16(ev.id);
        switch (ev.kind) {
          case EventKind::CoreIssue:
            s.writeRaw(ev.acc);
            break;
          case EventKind::L1Complete:
          case EventKind::DirFill:
            s.writeU64(ev.value);
            break;
          case EventKind::L1Send:
          case EventKind::DirSend:
          case EventKind::Deliver:
            ev.msg.save(s);
            break;
          default: // CoreStep and the ticks carry no payload
            break;
        }
    }
    return true;
}

/**
 * Rebuild one calendar queue from its serialized image, record by
 * record, mirroring saveQueue, after dropping whatever it held. Fails
 * closed on a kind no saver writes, a core or tile id out of range, a
 * payload the message or access loader refuses, and records out of
 * (when, seq) order.
 */
bool
restoreQueue(const SystemConfig &cfg, EventQueue &q, Deserializer &d,
             std::string *error)
{
    const Cycle clock = d.readU64();
    const std::uint64_t next_seq = d.readU64();
    KernelStats kstats;
    d.readRaw(kstats);
    const std::uint64_t count = d.readU64();
    if (d.failed())
        return setError(error, "snapshot truncated in queue header");
    if (count * kMinEventBytes > d.remaining())
        return setError(error,
                        "corrupt snapshot: queue claims more events "
                        "than the image can hold");

    q.clear();
    q.setClock(clock);

    Cycle prev_when = 0;
    std::uint64_t prev_seq = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        const Cycle when = d.readU64();
        const std::uint64_t seq = d.readU64();
        const std::uint8_t kind = d.readU8();
        if (d.failed())
            return setError(error, "snapshot truncated in event list");
        if (when < clock ||
            (i > 0 && (when < prev_when ||
                       (when == prev_when && seq <= prev_seq)))) {
            return setError(error,
                            "corrupt snapshot: event order violated");
        }
        prev_when = when;
        prev_seq = seq;

        // Every kind but TestHook is saved; 7 and 11 belonged to
        // removed kinds.
        if (kind == 0 || kind == 7 || kind == 11 ||
            kind >= static_cast<std::uint8_t>(EventKind::TestHook))
            return setError(error,
                            "corrupt snapshot: unknown event kind " +
                                std::to_string(kind));
        Event ev = Event::of(static_cast<EventKind>(kind));
        bool ok = true;
        if (const IdSpace ids = idSpaceOf(ev.kind); ids != IdSpace::None) {
            ev.id = d.readU16();
            ok = ev.id < (ids == IdSpace::Cores ? cfg.numCores
                                                : cfg.l2Tiles);
        }
        switch (ev.kind) {
          case EventKind::CoreIssue:
            ok = ev.acc.load(d) && ok;
            break;
          case EventKind::L1Complete:
          case EventKind::DirFill:
            ev.value = d.readU64();
            break;
          case EventKind::L1Send:
          case EventKind::DirSend:
          case EventKind::Deliver:
            ok = ev.msg.load(d, cfg.numCores, cfg.regionWords()) && ok;
            break;
          default:
            break;
        }
        if (!ok || d.failed())
            return setError(error, "corrupt event record (kind " +
                                       std::to_string(kind) +
                                       ") at cycle " +
                                       std::to_string(when));
        q.restoreEvent(when, seq, ev);
    }

    q.setNextSeq(next_seq);
    q.setKernelStats(kstats);
    return true;
}

} // namespace

std::uint64_t
configFingerprint(const SystemConfig &cfg)
{
    std::uint64_t h = 0x70726f746f7a6f61ULL; // "protozoa"
    hashFold(h, static_cast<std::uint64_t>(cfg.protocol));
    hashFold(h, static_cast<std::uint64_t>(cfg.predictor));
    hashFold(h, static_cast<std::uint64_t>(cfg.directory));
    hashFold(h, static_cast<std::uint64_t>(cfg.sliceHash));
    hashFold(h, cfg.bloomBuckets);
    hashFold(h, cfg.bloomHashes);
    hashFold(h, cfg.threeHop);
    hashFold(h, cfg.numCores);
    hashFold(h, cfg.regionBytes);
    hashFold(h, cfg.l1Sets);
    hashFold(h, cfg.l1BytesPerSet);
    hashFold(h, cfg.l1Latency);
    hashFold(h, cfg.l1GatherPerBlock);
    hashFold(h, cfg.fixedFetchWords);
    hashFold(h, cfg.l2Tiles);
    hashFold(h, cfg.l2BytesPerTile);
    hashFold(h, cfg.l2Assoc);
    hashFold(h, cfg.l2Latency);
    hashFold(h, cfg.meshCols);
    hashFold(h, cfg.meshRows);
    hashFold(h, cfg.flitBytes);
    hashFold(h, cfg.hopLatency);
    hashFold(h, cfg.flitSerialization);
    hashFold(h, cfg.memLatency);
    hashFold(h, cfg.controlBytes);
    hashFold(h, cfg.checkValues);
    hashFold(h, cfg.faultInjection);
    hashFold(h, cfg.faultJitterMax);
    hashFold(h, bitsOf(cfg.faultReorderProb));
    hashFold(h, cfg.occupancyJitter);
    hashFold(h, cfg.occupancyJitterMax);
    hashFold(h, cfg.scheduleOracle);
    hashFold(h, cfg.debugLostStoreBug);
    hashFold(h, cfg.watchdogCycles);
    hashFold(h, cfg.seed);
    return h;
}

std::uint64_t
System::configHash() const
{
    if (cfgHash == 0)
        cfgHash = configFingerprint(cfg);
    return cfgHash;
}

bool
System::saveSnapshot(Serializer &s, std::string *error) const
{
    s.writeU32(kSnapshotMagic);
    s.writeU32(kSnapshotVersion);
    s.writeU64(configHash());

    s.writeU8(started ? 1 : 0);
    s.writeU8(finalized ? 1 : 0);
    s.writeU32(coresRunning);
    s.writeU64(invariantErrors);
    s.writeString(firstInvariantError);
    s.writeU8(watchdogArmed ? 1 : 0);
    s.writeU8(watchdogTripped ? 1 : 0);
    s.writeU64(watchdogFired);
    s.writeU64(dropped);
    s.writeU64(checkPeriod);
    s.writeU64(watchdogBound);

    golden.saveState(s);
    memImage.saveState(s);
    coverage->saveState(s);

    for (const auto &core : cores)
        core->saveState(s);
    for (const auto &l1c : l1s)
        l1c->saveState(s);
    for (const auto &dc : dirs)
        dc->saveState(s);

    net->saveState(s);

    return saveQueue(eventq, s, error);
}

bool
System::restoreSnapshot(Deserializer &d, std::string *error)
{
    if (d.readU32() != kSnapshotMagic)
        return setError(error, "not a snapshot (bad magic)");
    const std::uint32_t ver = d.readU32();
    if (ver != kSnapshotVersion) {
        return setError(error,
                        "snapshot format v" + std::to_string(ver) +
                            " does not match this build (v" +
                            std::to_string(kSnapshotVersion) +
                            "); re-checkpoint from the source run");
    }
    if (d.readU64() != configHash())
        return setError(error,
                        "snapshot was taken under a different system "
                        "configuration");
    if (d.failed())
        return setError(error, "snapshot truncated in header");

    // Every section overwrites its component in place, so the target
    // may be fresh or already run. The host-time counter is the one
    // field outside the image.
    runWallSeconds = 0.0;
    started = d.readU8() != 0;
    finalized = d.readU8() != 0;
    coresRunning = d.readU32();
    invariantErrors = d.readU64();
    if (!d.readString(firstInvariantError))
        return setError(error, "snapshot truncated in system section");
    watchdogArmed = d.readU8() != 0;
    watchdogTripped = d.readU8() != 0;
    watchdogFired = d.readU64();
    dropped = d.readU64();
    checkPeriod = d.readU64();
    watchdogBound = d.readU64();
    if (d.failed())
        return setError(error, "snapshot truncated in system section");
    // The watchdog handler is not serializable: the restoring process
    // keeps its own (default: panic), installable via enableWatchdog
    // before restoring.

    if (!golden.restoreState(d))
        return setError(error, "corrupt golden-memory section");
    if (!memImage.restoreState(d))
        return setError(error, "corrupt memory-image section");

    if (!coverage->restoreState(d))
        return setError(error, "corrupt coverage section");

    for (auto &core : cores) {
        if (!core->restoreState(d))
            return setError(error, "corrupt core section");
    }
    for (auto &l1c : l1s) {
        if (!l1c->restoreState(d))
            return setError(error, "corrupt L1 section");
    }
    for (auto &dc : dirs) {
        if (!dc->restoreState(d))
            return setError(error, "corrupt directory section");
    }

    if (!net->restoreState(d))
        return setError(error, "corrupt mesh section");

    if (!restoreQueue(cfg, eventq, d, error))
        return false;

    if (d.failed())
        return setError(error, "snapshot truncated");
    if (!d.atEnd())
        return setError(error,
                        "trailing bytes after the snapshot payload "
                        "(corrupt or mismatched image)");
    return true;
}

bool
System::saveSnapshotFile(const std::string &path, std::string *error) const
{
    Serializer s;
    if (!saveSnapshot(s, error))
        return false;
    return s.writeFile(path, error);
}

bool
System::restoreSnapshotFile(const std::string &path, std::string *error)
{
    std::vector<std::uint8_t> bytes;
    if (!Deserializer::readFileInto(path, bytes, error))
        return false;
    Deserializer d(bytes);
    return restoreSnapshot(d, error);
}

} // namespace protozoa
