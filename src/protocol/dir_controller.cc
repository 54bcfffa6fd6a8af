#include "protocol/dir_controller.hh"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <sstream>

#include "common/log.hh"

namespace protozoa {

DirController::DirController(TileId id, const SystemConfig &config,
                             EventQueue &eq, WordStore &mem,
                             ConformanceCoverage &cov_tracker)
    : cfg(config), tileId(id), eventq(eq), memImage(mem),
      coverage(cov_tracker),
      setsPerTile(static_cast<unsigned>(
          cfg.l2BytesPerTile / cfg.regionBytes / cfg.l2Assoc)),
      regionShift(static_cast<unsigned>(std::countr_zero(cfg.regionBytes))),
      tilesDiv(cfg.l2Tiles), setsDiv(setsPerTile),
      occRng(config.seed ^ 0x646972ULL ^ (std::uint64_t(id) << 40))
{
    PROTO_ASSERT(setsPerTile > 0, "L2 tile too small");
    const std::size_t slots = std::size_t(setsPerTile) * cfg.l2Assoc;
    tags = FixedArray<std::uint64_t>(slots);
    lru = FixedArray<std::uint64_t>(slots);
    sidecarOf = FixedArray<Slot>(slots);
    sidecars = FixedArray<EntryData>(slots);

    if (cfg.directory == DirectoryKind::TaglessBloom) {
        bloomReaders = std::make_unique<CountingBloomSharers>(
            cfg.bloomBuckets, cfg.bloomHashes, cfg.numCores);
        bloomWriters = std::make_unique<CountingBloomSharers>(
            cfg.bloomBuckets, cfg.bloomHashes, cfg.numCores);
    }
}

void
DirController::setReader(Slot s, CoreId core)
{
    CoreSet &readers = dataAt(s).readers;
    if (!readers.test(core)) {
        readers.set(core);
        if (bloomReaders)
            bloomReaders->add(regionAt(s), core);
    }
}

void
DirController::clearReader(Slot s, CoreId core)
{
    CoreSet &readers = dataAt(s).readers;
    if (readers.test(core)) {
        readers.reset(core);
        if (bloomReaders)
            bloomReaders->remove(regionAt(s), core);
    }
}

void
DirController::setWriter(Slot s, CoreId core)
{
    CoreSet &writers = dataAt(s).writers;
    if (!writers.test(core)) {
        writers.set(core);
        if (bloomWriters)
            bloomWriters->add(regionAt(s), core);
    }
}

void
DirController::clearWriter(Slot s, CoreId core)
{
    CoreSet &writers = dataAt(s).writers;
    if (writers.test(core)) {
        writers.reset(core);
        if (bloomWriters)
            bloomWriters->remove(regionAt(s), core);
    }
}

void
DirController::clearAllSharers(Slot s)
{
    dataAt(s).readers.forEach([&](CoreId c) { clearReader(s, c); });
    dataAt(s).writers.forEach([&](CoreId c) { clearWriter(s, c); });
}

CoreSet
DirController::probeWriters(Slot s) const
{
    if (!bloomWriters)
        return dataAt(s).writers;
    return bloomWriters->query(regionAt(s));
}

CoreSet
DirController::probeReaders(Slot s) const
{
    if (!bloomReaders)
        return dataAt(s).readers;
    // A Bloom-writer core receives FWD_GETX already; do not also INV.
    return bloomReaders->query(regionAt(s)).minus(probeWriters(s));
}

DirState
DirController::absState(Slot s) const
{
    if (s == kNoSlot || fillingAt(s))
        return DirState::NP;
    const EntryData &e = dataAt(s);
    const unsigned writers = e.writers.count();
    if (writers > 1)
        return DirState::MW;
    if (writers == 1)
        return e.readers.any() ? DirState::WR : DirState::W;
    return e.readers.any() ? DirState::R : DirState::I;
}

void
DirController::cov(DirState from, DirEvent ev, DirState to)
{
    coverage.recordDir(from, ev, to);
}

Cycle
DirController::occupy(Cycle latency)
{
    if (cfg.occupancyJitter)
        latency += occRng.below(cfg.occupancyJitterMax + 1);
    const Cycle start = std::max(eventq.now(), busyUntil);
    busyUntil = start + latency;
    return busyUntil;
}

void
DirController::sendMsg(CoherenceMsg msg, Cycle when)
{
    msg.srcNode = tileId;
    msg.dstIsDir = false;
    eventq.scheduleAt(when, Event::of(EventKind::DirSend, tileId, msg));
}

unsigned
DirController::setIndexOf(Addr region) const
{
    return static_cast<unsigned>(
        setsDiv.mod(tilesDiv.div(region >> regionShift)));
}

DirController::Slot
DirController::lookup(Addr region) const
{
    // One compare per way: the tag must read region | kValid once the
    // filling and dirty bits are masked off.
    const std::uint64_t want = region | kValid;
    const Slot base = setIndexOf(region) * cfg.l2Assoc;
    for (Slot s = base; s < base + cfg.l2Assoc; ++s) {
        if ((tags[s] & ~(kFilling | kDirty)) == want)
            return s;
    }
    return kNoSlot;
}

void
DirController::claimSlot(Slot s, Addr region)
{
    PROTO_ASSERT((region & kFlagBits) == 0,
                 "region %llx not word aligned",
                 static_cast<unsigned long long>(region));
    // Capacity covers every slot, and each slot claims once.
    sidecarOf[s] = sidecarCount;
    EntryData &e = sidecars[sidecarCount++];
    e = EntryData{};
    e.slot = s;
    tags[s] = region | kValid | kFilling;
    lru[s] = ++lruClock;
}

bool
DirController::busy(Addr region) const
{
    if (active.contains(region))
        return true;
    // A region with no active transaction is still pinned by queued
    // requests *for that region* (they reactivate it when drained).
    // Requests for other regions deferred behind it must not count:
    // during drainQueue each re-dispatched waiter would see its
    // sibling waiter in the queue, conclude the region is pinned, and
    // re-defer behind it — two cross-region waiters then block each
    // other forever (reachable with 3+ cores storming one L2 set).
    for (const auto &item : waiting.run(region)) {
        if (item.value.region == region)
            return true;
    }
    return false;
}

DirController::DirView
DirController::view(Addr region) const
{
    DirView v;
    if (const Slot s = lookup(region); s != kNoSlot) {
        v.present = true;
        v.readers = dataAt(s).readers;
        v.writers = dataAt(s).writers;
        v.dirty = (tags[s] & kDirty) != 0;
    }
    return v;
}

void
DirController::receive(CoherenceMsg msg)
{
    PROTO_DTRACE("dir%u <- %s", tileId, msg.toString().c_str());
    switch (msg.type) {
      case MsgType::GETS:
      case MsgType::GETX:
      case MsgType::PUT:
        if (active.contains(msg.region)) {
            waiting.push(msg.region, std::move(msg));
            return;
        }
        dispatch(msg);
        break;
      case MsgType::UNBLOCK:
        finishTxn(msg.region);
        break;
      case MsgType::WB_RESP:
      case MsgType::ACK:
      case MsgType::ACK_S:
      case MsgType::NACK:
        handleProbeResponse(msg);
        break;
      default:
        panic("dir %u: unexpected message %s", tileId,
              msg.toString().c_str());
    }
}

void
DirController::dispatch(const CoherenceMsg &msg)
{
    switch (msg.type) {
      case MsgType::GETS:
      case MsgType::GETX:
        startRequest(msg);
        break;
      case MsgType::PUT:
        handlePut(msg);
        break;
      default:
        panic("dir %u: cannot dispatch %s", tileId,
              msg.toString().c_str());
    }
}

void
DirController::startRequest(const CoherenceMsg &msg)
{
    ++stats.requests;

    Txn txn;
    txn.kind = Txn::Kind::Request;
    txn.reqType = msg.type;
    txn.requester = msg.sender;
    txn.reqRange = msg.range;
    txn.upgrade = msg.upgrade;
    txn.start = eventq.now();
    txn.covBefore = absState(lookup(msg.region));
    txn.covEvent = msg.type == MsgType::GETS
        ? DirEvent::GetS
        : (msg.upgrade ? DirEvent::Upgrade : DirEvent::GetX);
    active.pushUnique(msg.region, txn);

    occupy(cfg.l2Latency);

    if (lookup(msg.region) != kNoSlot) {
        probePhase(msg.region);
        return;
    }

    // L2 miss: reserve a slot, possibly recalling an inclusive victim.
    ++stats.l2Misses;
    const Slot base = setIndexOf(msg.region) * cfg.l2Assoc;
    const Slot end = base + cfg.l2Assoc;
    Slot slot = kNoSlot;
    for (Slot s = base; s < end; ++s) {
        if (!(tags[s] & kValid)) {
            slot = s;
            break;
        }
    }

    if (slot == kNoSlot) {
        // Evict the LRU entry that is not mid-transaction.
        for (Slot s = base; s < end; ++s) {
            if (fillingAt(s) || busy(regionAt(s)))
                continue;
            if (slot == kNoSlot || lru[s] < lru[slot])
                slot = s;
        }
        if (slot == kNoSlot) {
            // Every entry is mid-fill or mid-transaction: the set is
            // transiently pinned (reachable with a one-entry set when
            // two regions' requests interleave; protocheck's
            // recall-inclusive scenario drives this). Defer behind the
            // first pinning region; its completion drains us a retry.
            Addr blocker = 0;
            bool pinned = false;
            for (Slot s = base; s < end; ++s) {
                if (busy(regionAt(s))) {
                    blocker = regionAt(s);
                    pinned = true;
                    break;
                }
            }
            if (!pinned)
                panic("dir %u: no evictable L2 entry in set %u",
                      tileId, setIndexOf(msg.region));
            active.popFront(msg.region);
            --stats.requests;
            --stats.l2Misses;
            waiting.push(blocker, msg);
            return;
        }
        beginRecall(regionAt(slot), msg.region);
        return;
    }

    claimSlot(slot, msg.region);
    fetchFromMemory(msg.region);
}

void
DirController::beginRecall(Addr victim, Addr parent)
{
    ++stats.recalls;
    const Slot slot = lookup(victim);
    PROTO_ASSERT(slot != kNoSlot, "recall of absent region");

    Txn txn;
    txn.kind = Txn::Kind::Recall;
    txn.parentRegion = parent;
    txn.reqRange = WordRange::full(cfg.regionWords());
    txn.start = eventq.now();
    txn.covBefore = absState(slot);
    txn.covEvent = DirEvent::Recall;

    unsigned probes = 0;
    const Cycle when = occupy(cfg.l2Latency);
    CoreSet holders = dataAt(slot).readers;
    holders |= dataAt(slot).writers;
    holders.forEach([&](CoreId c) {
        CoherenceMsg inv;
        inv.type = MsgType::INV;
        inv.dstNode = c;
        inv.region = victim;
        inv.range = WordRange::full(cfg.regionWords());
        inv.keepNonOverlap = false;
        sendMsg(std::move(inv), when);
        ++probes;
    });

    txn.pending = probes;
    active.pushUnique(victim, txn);
    if (probes == 0)
        finishRecall(victim);
}

void
DirController::finishRecall(Addr victim)
{
    const Txn *txn = active.front(victim);
    PROTO_ASSERT(txn && txn->kind == Txn::Kind::Recall,
                 "finishRecall without recall txn");
    const Addr parent = txn->parentRegion;
    cov(txn->covBefore, DirEvent::Recall, DirState::NP);

    const Slot slot = lookup(victim);
    PROTO_ASSERT(slot != kNoSlot, "recall victim vanished");
    if (tags[slot] & kDirty) {
        memImage.writeRange(victim, dataAt(slot).words.data(),
                            cfg.regionWords());
        stats.memWriteBytes += cfg.regionBytes;
    }

    // Hand the slot (and its sidecar) to the parent region.
    clearAllSharers(slot);
    tags[slot] = parent | kValid | kFilling;
    lru[slot] = ++lruClock;

    active.popFront(victim);
    fetchFromMemory(parent);
    drainQueue(victim);
}

void
DirController::fetchFromMemory(Addr region)
{
    stats.memReadBytes += cfg.regionBytes;
    const Cycle when = occupy(cfg.l2Latency) + cfg.memLatency;
    eventq.scheduleAt(when,
                      Event::of(EventKind::DirFill, tileId, region));
}

void
DirController::finishFill(Addr region)
{
    const Slot slot = lookup(region);
    PROTO_ASSERT(slot != kNoSlot && fillingAt(slot),
                 "fill target vanished");
    EntryData &e = dataAt(slot);
    e.wordCount = cfg.regionWords();
    memImage.readRange(region, e.words.data(), cfg.regionWords());
    tags[slot] &= ~kFilling;
    probePhase(region);
}

void
DirController::recordOwnedCensus(Slot s)
{
    const EntryData &entry = dataAt(s);
    if (entry.writers.none())
        return;
    if (entry.writers.count() > 1)
        ++stats.ownedMultiOwner;
    else if (entry.readers.any())
        ++stats.ownedOneOwnerPlusSharers;
    else
        ++stats.ownedOneOwnerOnly;
}

void
DirController::probePhase(Addr region)
{
    Txn *txn_p = active.front(region);
    PROTO_ASSERT(txn_p, "probePhase without txn");
    Txn &txn = *txn_p;
    const Slot slot = lookup(region);
    PROTO_ASSERT(slot != kNoSlot && !fillingAt(slot),
                 "probePhase without entry");
    const EntryData &entry = dataAt(slot);

    recordOwnedCensus(slot);

    const bool adaptive_coherence =
        cfg.protocol == ProtocolKind::ProtozoaSWMR ||
        cfg.protocol == ProtocolKind::ProtozoaMW;
    const WordRange probe_range =
        adaptive_coherence ? txn.reqRange
                           : WordRange::full(cfg.regionWords());

    const Cycle when = occupy(cfg.l2Latency);

    const CoreSet probe_writers = probeWriters(slot);
    const CoreSet probe_readers = probeReaders(slot);
    auto count_false = [&](CoreId c) {
        if (!entry.writers.test(c) && !entry.readers.test(c))
            ++stats.bloomFalseProbes;
    };

    SmallVec<CoherenceMsg, 18> probes;
    if (txn.reqType == MsgType::GETX) {
        probe_writers.forEach([&](CoreId c) {
            if (c == txn.requester)
                return;
            CoherenceMsg fwd;
            fwd.type = MsgType::FWD_GETX;
            fwd.dstNode = c;
            fwd.region = region;
            fwd.range = probe_range;
            fwd.requester = txn.requester;
            fwd.keepNonOverlap = adaptive_coherence;
            fwd.revokeWritePerm =
                cfg.protocol == ProtocolKind::ProtozoaSWMR;
            count_false(c);
            probes.push_back(std::move(fwd));
        });
        probe_readers.forEach([&](CoreId c) {
            if (c == txn.requester)
                return;
            CoherenceMsg inv;
            inv.type = MsgType::INV;
            inv.dstNode = c;
            inv.region = region;
            inv.range = probe_range;
            inv.requester = txn.requester;
            inv.keepNonOverlap = adaptive_coherence;
            count_false(c);
            probes.push_back(std::move(inv));
        });
    } else {
        probe_writers.forEach([&](CoreId c) {
            if (c == txn.requester)
                return;
            CoherenceMsg fwd;
            fwd.type = MsgType::FWD_GETS;
            fwd.dstNode = c;
            fwd.region = region;
            fwd.range = probe_range;
            fwd.requester = txn.requester;
            count_false(c);
            probes.push_back(std::move(fwd));
        });
    }

    // Sec. 6 3-hop: with a single probe target the owner may forward
    // the data straight to the requester (4-hop is the fallback).
    if (cfg.threeHop && probes.size() == 1 && !txn.upgrade) {
        probes.front().tryDirect = true;
        probes.front().reqFetchRange = txn.reqRange;
    }

    txn.pending = static_cast<unsigned>(probes.size());
    for (auto &probe : probes)
        sendMsg(std::move(probe), when);
    if (txn.pending == 0)
        respond(region);
}

void
DirController::patchPayload(Slot s, const MsgData &data)
{
    if (data.empty())
        return;
    PROTO_ASSERT(!fillingAt(s), "patch into filling entry");
    std::uint64_t *words = dataAt(s).words.data();
    data.forEachRun([&](const WordRange &run, const std::uint64_t *src) {
        std::memcpy(words + run.start, src,
                    std::size_t(run.words()) * sizeof(std::uint64_t));
    });
    tags[s] |= kDirty;
}

void
DirController::updateSetsFromResponse(Slot s, const CoherenceMsg &msg)
{
    PROTO_DTRACE("dir%u sets: region=%llx sender=%u stillO=%d stillS=%d "
                 "(was w=%s r=%s)",
                 tileId, static_cast<unsigned long long>(regionAt(s)),
                 msg.sender, msg.stillOwner, msg.stillSharer,
                 dataAt(s).writers.toHex().c_str(),
                 dataAt(s).readers.toHex().c_str());
    if (msg.stillOwner) {
        setWriter(s, msg.sender);
        clearReader(s, msg.sender);
    } else if (msg.stillSharer) {
        clearWriter(s, msg.sender);
        setReader(s, msg.sender);
    } else {
        clearWriter(s, msg.sender);
        clearReader(s, msg.sender);
    }
}

void
DirController::handleProbeResponse(const CoherenceMsg &msg)
{
    Txn *txn_p = active.front(msg.region);
    PROTO_ASSERT(txn_p, "probe response without txn");
    Txn &txn = *txn_p;
    PROTO_ASSERT(txn.pending > 0, "unexpected probe response");

    const Slot slot = lookup(msg.region);
    PROTO_ASSERT(slot != kNoSlot, "probe response without entry");
    patchPayload(slot, msg.data);
    updateSetsFromResponse(slot, msg);
    if (msg.suppliedDirect) {
        txn.directSupplied = true;
        ++stats.threeHopDirect;
    }

    occupy(cfg.l2Latency);

    if (--txn.pending > 0)
        return;
    if (txn.kind == Txn::Kind::Recall)
        finishRecall(msg.region);
    else
        respond(msg.region);
}

void
DirController::respond(Addr region)
{
    Txn *txn_p = active.front(region);
    PROTO_ASSERT(txn_p, "respond without txn");
    Txn &txn = *txn_p;
    const Slot slot = lookup(region);
    PROTO_ASSERT(slot != kNoSlot && !fillingAt(slot),
                 "respond without entry");
    const EntryData &entry = dataAt(slot);

    const CoreId req = txn.requester;

    CoherenceMsg data;
    data.type = MsgType::DATA;
    data.dstNode = req;
    data.region = region;
    data.range = txn.reqRange;
    data.requester = req;

    if (txn.reqType == MsgType::GETX) {
        // Payload-free upgrade: legal only while the requester stayed a
        // tracked reader, which guarantees its S copy is still fresh.
        const bool dataless = txn.upgrade && entry.readers.test(req);
        data.grant = GrantState::M;
        if (!dataless) {
            data.data.setRange(txn.reqRange,
                               &entry.words[txn.reqRange.start]);
        }
        setWriter(slot, req);
        clearReader(slot, req);
        if (cfg.protocol != ProtocolKind::ProtozoaMW) {
            PROTO_ASSERT(entry.writers.only(req),
                         "single-writer protocol with multiple owners: "
                         "region=%llx writers=%s readers=%s req=%u "
                         "upgrade=%d range=%s",
                         static_cast<unsigned long long>(region),
                         entry.writers.toHex().c_str(),
                         entry.readers.toHex().c_str(),
                         req, txn.upgrade, txn.reqRange.toString().c_str());
        }
    } else {
        const bool exclusive =
            entry.writers.none() && entry.readers.none();
        data.grant = exclusive ? GrantState::E : GrantState::S;
        if (exclusive || entry.writers.test(req)) {
            // E grant, or a secondary GETS from an existing owner:
            // either way the core keeps (or gains) writer tracking.
            setWriter(slot, req);
        } else {
            setReader(slot, req);
        }
        data.data.setRange(txn.reqRange,
                           &entry.words[txn.reqRange.start]);
    }

    lru[slot] = ++lruClock;
    cov(txn.covBefore, txn.covEvent, absState(slot));
    if (txn.directSupplied) {
        // 3-hop: the probed owner already sent DATA to the requester;
        // only the bookkeeping above was still needed.
        occupy(cfg.l2Latency);
    } else {
        sendMsg(std::move(data), occupy(cfg.l2Latency));
    }
    if (txn.unblocked) {
        // The requester's UNBLOCK beat the final probe response
        // (possible in 3-hop mode: the requester is served directly).
        active.popFront(region);
        drainQueue(region);
        return;
    }
    txn.waitingUnblock = true;
}

void
DirController::handlePut(const CoherenceMsg &msg)
{
    occupy(cfg.l2Latency);
    const Slot slot = lookup(msg.region);
    const bool tracked =
        slot != kNoSlot && (dataAt(slot).readers.test(msg.sender) ||
                            dataAt(slot).writers.test(msg.sender));
    const DirState before = absState(slot);

    if (tracked) {
        patchPayload(slot, msg.data);
        if (msg.last) {
            clearReader(slot, msg.sender);
            clearWriter(slot, msg.sender);
        } else if (msg.demoteOwner) {
            clearWriter(slot, msg.sender);
            setReader(slot, msg.sender);
        }
        lru[slot] = ++lruClock;
        const DirEvent ev = msg.last
            ? DirEvent::PutLast
            : (msg.demoteOwner ? DirEvent::PutDemote : DirEvent::Put);
        cov(before, ev, absState(slot));
    } else {
        cov(before, DirEvent::PutStale, before);
    }
    // Untracked PUTs are stale (their data was already collected by a
    // forwarded probe answered from the writeback buffer): drop data.

    CoherenceMsg ack;
    ack.type = MsgType::WB_ACK;
    ack.dstNode = msg.sender;
    ack.region = msg.region;
    sendMsg(std::move(ack), occupy(0));
}

void
DirController::finishTxn(Addr region)
{
    Txn *txn = active.front(region);
    PROTO_ASSERT(txn, "UNBLOCK without txn");
    occupy(cfg.l2Latency);
    if (!txn->waitingUnblock) {
        // 3-hop: the directly-served requester can UNBLOCK before the
        // directory has collected the final probe response; remember
        // it and finish in respond().
        PROTO_ASSERT(cfg.threeHop, "early UNBLOCK without 3-hop mode");
        txn->unblocked = true;
        return;
    }
    active.popFront(region);
    drainQueue(region);
}

std::string
DirController::describeRegion(Addr region) const
{
    std::ostringstream os;
    os << "dir" << tileId << " region 0x" << std::hex << region
       << std::dec << ": ";
    if (const Slot s = lookup(region); s != kNoSlot) {
        os << "entry " << dirStateName(absState(s))
           << (fillingAt(s) ? " (filling)" : "")
           << ((tags[s] & kDirty) ? " dirty" : " clean")
           << " readers=0x" << dataAt(s).readers.toHex()
           << " writers=0x" << dataAt(s).writers.toHex();
    } else {
        os << "no entry";
    }
    if (const Txn *t = active.front(region)) {
        os << "; txn " << (t->kind == Txn::Kind::Recall ? "recall"
                                                        : "request")
           << " (" << dirEventName(t->covEvent) << ") from core "
           << t->requester << " started @" << t->start
           << ", pending probes=" << t->pending
           << (t->waitingUnblock ? ", waiting UNBLOCK" : "");
    } else {
        os << "; no active txn";
    }
    if (const auto queued = waiting.run(region); !queued.empty()) {
        os << "; queued:";
        for (const auto &item : queued)
            os << " " << item.value.toString();
    }
    return os.str();
}

void
DirController::drainQueue(Addr region)
{
    while (!active.contains(region) && waiting.contains(region)) {
        CoherenceMsg msg = waiting.popFront(region);
        // A request deferred by a pinned L2 set waits in *another*
        // region's queue; requeue it if its own region became active
        // while it waited.
        if (msg.region != region && active.contains(msg.region))
            waiting.push(msg.region, std::move(msg));
        else
            dispatch(msg);
    }
}

void
DirController::saveState(Serializer &s) const
{
    static_assert(std::is_trivially_copyable_v<DirStats>);
    static_assert(std::is_trivially_copyable_v<CoreSet>);
    static_assert(std::is_trivially_copyable_v<Txn>);
    s.writeRaw(stats);
    s.writeU64(lruClock);
    s.writeU64(busyUntil);
    std::uint64_t rng[4];
    occRng.stateWords(rng);
    for (const std::uint64_t w : rng)
        s.writeU64(w);

    // Valid L2 entries only, in ascending slot order. The slot index
    // preserves slot positions (and hence the lookup / victim scan
    // order) exactly; never-filled slots stay invalid on restore. A
    // claimed sidecar's words are undefined before its first fill, so
    // only the first wordCount of them are written.
    s.writeU32(setsPerTile);
    s.writeU32(cfg.l2Assoc);
    s.writeU32(sidecarCount);
    for (Slot slot = 0; slot < tags.size(); ++slot) {
        const std::uint64_t tag = tags[slot];
        if (!(tag & kValid))
            continue;
        const EntryData &e = dataAt(slot);
        s.writeU32(slot);
        s.writeU64(tag & ~kFlagBits);
        s.writeU8((tag & kFilling) ? 1 : 0);
        s.writeU8((tag & kDirty) ? 1 : 0);
        s.writeU64(lru[slot]);
        s.writeRaw(e.readers);
        s.writeRaw(e.writers);
        s.writeU8(static_cast<std::uint8_t>(e.wordCount));
        s.writeBytes(e.words.data(),
                     std::size_t(e.wordCount) * sizeof(std::uint64_t));
    }

    // Active transactions and wait queues in ascending region order,
    // FIFO within a region; restore pushes them back one by one.
    s.writeU32(static_cast<std::uint32_t>(active.size()));
    for (const auto &[region, t] : active) {
        s.writeU64(region);
        s.writeRaw(t);
    }
    s.writeU32(static_cast<std::uint32_t>(waiting.size()));
    for (const auto &[region, m] : waiting) {
        s.writeU64(region);
        m.save(s);
    }

    s.writeU8(bloomReaders ? 1 : 0);
    if (bloomReaders) {
        bloomReaders->saveState(s);
        bloomWriters->saveState(s);
    }
}

bool
DirController::restoreEntries(Deserializer &d)
{
    // Fail closed on anything saveState cannot have written: more
    // entries than slots, slot indices out of range or not strictly
    // ascending, flag bytes other than 0/1, a region that is unaligned
    // or outside its slot's set, a sharer at or above numCores, or a
    // word count other than regionWords() (0 only while the slot's
    // first fill is still in flight).
    for (Slot i = 0; i < sidecarCount; ++i)
        tags[sidecars[i].slot] = 0;
    sidecarCount = 0;
    const std::uint32_t count = d.readU32();
    if (d.failed() || count > tags.size())
        return false;
    const CoreSet cores = CoreSet::firstN(cfg.numCores);
    std::uint64_t next_slot = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
        const Slot slot = d.readU32();
        const Addr region = d.readU64();
        const std::uint8_t filling = d.readU8();
        const std::uint8_t dirty = d.readU8();
        const std::uint64_t stamp = d.readU64();
        if (d.failed() || slot < next_slot || slot >= tags.size() ||
            filling > 1 || dirty > 1 || region % cfg.regionBytes != 0 ||
            setIndexOf(region) != slot / cfg.l2Assoc)
            return false;
        next_slot = std::uint64_t(slot) + 1;

        sidecarOf[slot] = sidecarCount;
        EntryData &e = sidecars[sidecarCount++];
        e.slot = slot;
        d.readRaw(e.readers);
        d.readRaw(e.writers);
        e.wordCount = d.readU8();
        const bool words_ok = e.wordCount == cfg.regionWords() ||
                              (e.wordCount == 0 && filling);
        if (d.failed() || !words_ok || e.readers.minus(cores).any() ||
            e.writers.minus(cores).any() ||
            !d.readBytes(e.words.data(), std::size_t(e.wordCount) *
                                             sizeof(std::uint64_t)))
            return false;
        tags[slot] = region | kValid | (filling ? kFilling : 0) |
                     (dirty ? kDirty : 0);
        lru[slot] = stamp;
    }
    return true;
}

bool
DirController::restoreState(Deserializer &d)
{
    d.readRaw(stats);
    lruClock = d.readU64();
    busyUntil = d.readU64();
    std::uint64_t rng[4];
    for (std::uint64_t &w : rng)
        w = d.readU64();
    occRng.setStateWords(rng);

    if (d.readU32() != setsPerTile || d.readU32() != cfg.l2Assoc)
        return false;
    if (!restoreEntries(d))
        return false;

    // Transactions fail closed on a flag byte other than 0/1, an
    // enum out of range, a requester outside the machine, a request
    // range outside the region and a second transaction on a region.
    active.clear();
    waiting.clear();
    const std::uint32_t txns = d.readU32();
    if (d.failed())
        return false;
    for (std::uint32_t i = 0; i < txns; ++i) {
        const Addr region = d.readU64();
        Txn t;
        if (!d.readRawChecked(t, {offsetof(Txn, upgrade),
                                  offsetof(Txn, waitingUnblock),
                                  offsetof(Txn, directSupplied),
                                  offsetof(Txn, unblocked)}))
            return false;
        const bool ok =
            (t.kind == Txn::Kind::Request ||
             t.kind == Txn::Kind::Recall) &&
            (t.reqType == MsgType::GETS || t.reqType == MsgType::GETX) &&
            t.requester < cfg.numCores &&
            t.reqRange.within(cfg.regionWords()) &&
            static_cast<unsigned>(t.covBefore) < kNumDirStates &&
            static_cast<unsigned>(t.covEvent) < kNumDirEvents &&
            !active.contains(region);
        if (!ok)
            return false;
        active.pushUnique(region, t);
    }
    const std::uint32_t queued = d.readU32();
    if (d.failed())
        return false;
    for (std::uint32_t i = 0; i < queued; ++i) {
        const Addr region = d.readU64();
        CoherenceMsg m;
        if (!m.load(d, cfg.numCores, cfg.regionWords()))
            return false;
        waiting.push(region, std::move(m));
    }

    const bool has_bloom = d.readU8() != 0;
    if (has_bloom != (bloomReaders != nullptr))
        return false;
    if (bloomReaders &&
        (!bloomReaders->restoreState(d) ||
         !bloomWriters->restoreState(d)))
        return false;
    return !d.failed();
}

} // namespace protozoa
