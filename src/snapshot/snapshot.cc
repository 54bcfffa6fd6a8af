/**
 * @file
 * System checkpoint/restore implementation: the byte layout lives
 * here and nowhere else (see snapshot.hh for the contract).
 *
 * Layout (version 6, all little-endian; raw structs are written with
 * their padding zeroed, so identical runs save identical bytes):
 *
 *   u32 magic "PZSN"        u32 version        u64 configFingerprint
 *   -- system misc: started, finalized, coresRunning, invariant and
 *      watchdog records, dropped-message count, runtime-enable knobs
 *      (checkPeriod, watchdogBound)
 *   -- golden memory, backing memory image
 *   -- conformance coverage
 *   -- cores, L1s (pending-completion flag inside), each L1 holding
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
 *   -- windowed-stats state (period, delta base, recorded samples)
 *   -- calendar queue: clock, nextSeq, kernel stats, then every
 *      pending event as (when, seq, EventKind, payload) sorted by
 *      (when, seq)
 *
 * Any layout change here or in a component's saveState/saveEvent must
 * bump kSnapshotVersion (snapshot_tags.hh).
 */

#include "snapshot/snapshot.hh"

#include <algorithm>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/snapshot_tags.hh"
#include "sim/core_model.hh"
#include "sim/system.hh"

namespace protozoa {

namespace {

void
fold(std::uint64_t &h, std::uint64_t v)
{
    h = mix64(h ^ v);
}

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

/**
 * Serialize one calendar queue: scheduler registers plus every pending
 * event in deterministic (when, seq) order. Fails (with the offending
 * cycle in *error) if any pending callback is not a saveable named
 * event — e.g. an ad-hoc test lambda.
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
        const EventCallback *cb;
    };
    std::vector<Ref> refs;
    refs.reserve(static_cast<std::size_t>(q.size()));
    q.forEachPending([&](Cycle when, std::uint64_t seq,
                         const EventCallback &cb) {
        refs.push_back(Ref{when, seq, &cb});
    });
    std::sort(refs.begin(), refs.end(), [](const Ref &a, const Ref &b) {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    });

    s.writeU64(refs.size());
    for (const Ref &r : refs) {
        if (!r.cb->saveable()) {
            return setError(error,
                            "pending event at cycle " +
                                std::to_string(r.when) +
                                " is not checkpointable (ad-hoc "
                                "callback in the queue)");
        }
        s.writeU64(r.when);
        s.writeU64(r.seq);
        r.cb->save(s);
    }
    return true;
}

/**
 * Rebuild one calendar queue from its serialized image, rebinding each
 * event record to @p sys's freshly-constructed components.
 */
bool
restoreQueue(System &sys, EventQueue &q, Deserializer &d,
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

    const SystemConfig &cfg = sys.config();
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

        switch (static_cast<EventKind>(kind)) {
        case EventKind::CoreStep: {
            const std::uint16_t c = d.readU16();
            if (d.failed() || c >= cfg.numCores)
                return setError(error, "corrupt CoreStep event");
            q.restoreEvent(when, seq, CoreModel::StepEvent{&sys.core(c)});
            break;
        }
        case EventKind::CoreIssue: {
            const std::uint16_t c = d.readU16();
            MemAccess acc;
            if (!d.readRaw(acc) || c >= cfg.numCores)
                return setError(error, "corrupt CoreIssue event");
            q.restoreEvent(when, seq,
                           CoreModel::IssueEvent{&sys.core(c), acc});
            break;
        }
        case EventKind::L1Complete: {
            const std::uint16_t c = d.readU16();
            const std::uint64_t value = d.readU64();
            if (d.failed() || c >= cfg.numCores)
                return setError(error, "corrupt L1Complete event");
            q.restoreEvent(when, seq,
                           L1Controller::CompleteEvent{&sys.l1(c), value});
            break;
        }
        case EventKind::L1Send: {
            const std::uint16_t c = d.readU16();
            CoherenceMsg msg;
            if (!d.readRaw(msg) || c >= cfg.numCores)
                return setError(error, "corrupt L1Send event");
            q.restoreEvent(when, seq,
                           L1Controller::SendEvent{&sys.l1(c),
                                                   std::move(msg)});
            break;
        }
        case EventKind::DirSend: {
            const std::uint16_t t = d.readU16();
            CoherenceMsg msg;
            if (!d.readRaw(msg) || t >= cfg.l2Tiles)
                return setError(error, "corrupt DirSend event");
            q.restoreEvent(when, seq,
                           DirController::SendEvent{&sys.dir(t),
                                                    std::move(msg)});
            break;
        }
        case EventKind::DirFill: {
            const std::uint16_t t = d.readU16();
            const Addr region = d.readU64();
            if (d.failed() || t >= cfg.l2Tiles)
                return setError(error, "corrupt DirFill event");
            q.restoreEvent(when, seq,
                           DirController::FillEvent{&sys.dir(t), region});
            break;
        }
        case EventKind::Deliver: {
            CoherenceMsg msg;
            if (!d.readRaw(msg))
                return setError(error, "corrupt delivery event");
            q.restoreEvent(when, seq,
                           System::DeliverEvent{&sys, std::move(msg)});
            break;
        }
        case EventKind::InvariantTick:
            q.restoreEvent(when, seq, System::InvariantTickEvent{&sys});
            break;
        case EventKind::WatchdogTick:
            q.restoreEvent(when, seq, System::WatchdogTickEvent{&sys});
            break;
        case EventKind::WindowTick:
            q.restoreEvent(when, seq, System::WindowTickEvent{&sys});
            break;
        default:
            return setError(error,
                            "corrupt snapshot: unknown event kind " +
                                std::to_string(kind));
        }
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
    fold(h, static_cast<std::uint64_t>(cfg.protocol));
    fold(h, static_cast<std::uint64_t>(cfg.predictor));
    fold(h, static_cast<std::uint64_t>(cfg.directory));
    fold(h, static_cast<std::uint64_t>(cfg.sliceHash));
    fold(h, cfg.bloomBuckets);
    fold(h, cfg.bloomHashes);
    fold(h, cfg.threeHop);
    fold(h, cfg.numCores);
    fold(h, cfg.regionBytes);
    fold(h, cfg.l1Sets);
    fold(h, cfg.l1BytesPerSet);
    fold(h, cfg.l1Latency);
    fold(h, cfg.l1GatherPerBlock);
    fold(h, cfg.fixedFetchWords);
    fold(h, cfg.l2Tiles);
    fold(h, cfg.l2BytesPerTile);
    fold(h, cfg.l2Assoc);
    fold(h, cfg.l2Latency);
    fold(h, cfg.meshCols);
    fold(h, cfg.meshRows);
    fold(h, cfg.flitBytes);
    fold(h, cfg.hopLatency);
    fold(h, cfg.flitSerialization);
    fold(h, cfg.memLatency);
    fold(h, cfg.controlBytes);
    fold(h, cfg.checkValues);
    fold(h, cfg.faultInjection);
    fold(h, cfg.faultJitterMax);
    fold(h, bitsOf(cfg.faultReorderProb));
    fold(h, cfg.occupancyJitter);
    fold(h, cfg.occupancyJitterMax);
    fold(h, cfg.scheduleOracle);
    fold(h, cfg.debugLostStoreBug);
    fold(h, cfg.watchdogCycles);
    fold(h, cfg.seed);
    return h;
}

bool
System::saveSnapshot(Serializer &s, std::string *error) const
{
    s.writeU32(kSnapshotMagic);
    s.writeU32(kSnapshotVersion);
    s.writeU64(configFingerprint(cfg));

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

    static_assert(std::is_trivially_copyable_v<WindowSample>,
                  "WindowSample must stay raw-serializable");
    s.writeU64(windowPeriod);
    s.writeRaw(winPrev);
    s.writeVecRaw(windows);

    return saveQueue(eventq, s, error);
}

bool
System::restoreSnapshot(Deserializer &d, std::string *error)
{
    if (started)
        return setError(error,
                        "restore target must be a freshly constructed "
                        "System (nothing run yet)");

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
    if (d.readU64() != configFingerprint(cfg))
        return setError(error,
                        "snapshot was taken under a different system "
                        "configuration");
    if (d.failed())
        return setError(error, "snapshot truncated in header");

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
    for (CoreId c = 0; c < cfg.numCores; ++c) {
        bool had_pending = false;
        if (!l1s[c]->restoreState(d, had_pending))
            return setError(error, "corrupt L1 section");
        if (had_pending)
            l1s[c]->restorePendingDone(cores[c]->completionCallback());
    }
    for (auto &dc : dirs) {
        if (!dc->restoreState(d))
            return setError(error, "corrupt directory section");
    }

    if (!net->restoreState(d))
        return setError(error, "corrupt mesh section");

    windowPeriod = d.readU64();
    if (!d.readRaw(winPrev) || !d.readVecRaw(windows))
        return setError(error, "corrupt window-stats section");

    if (!restoreQueue(*this, eventq, d, error))
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
