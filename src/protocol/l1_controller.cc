#include "protocol/l1_controller.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace protozoa {

L1Controller::L1Controller(CoreId id, const SystemConfig &config,
                           EventQueue &eq, GoldenMemory &gm,
                           ConformanceCoverage &cov_tracker)
    : cfg(config), coreId(id), eventq(eq), golden(gm),
      coverage(cov_tracker), cache(config), predictor(config),
      occRng(config.seed ^ 0x6c31ULL ^ (std::uint64_t(id) << 40))
{
}

L1State
L1Controller::abstractOf(BlockState s)
{
    switch (s) {
      case BlockState::S: return L1State::S;
      case BlockState::E: return L1State::E;
      case BlockState::M: return L1State::M;
    }
    panic("unknown block state");
}

void
L1Controller::cov(L1State from, L1Event ev, L1State to)
{
    coverage.recordL1(from, ev, to);
}

Cycle
L1Controller::occupy(Cycle latency)
{
    if (cfg.occupancyJitter)
        latency += occRng.below(cfg.occupancyJitterMax + 1);
    const Cycle start = std::max(eventq.now(), busyUntil);
    busyUntil = start + latency;
    return busyUntil;
}

unsigned
L1Controller::homeTile(Addr region) const
{
    return cfg.homeTileOf(region);
}

void
L1Controller::countCtrl(const CoherenceMsg &msg)
{
    stats.ctrlBytes[static_cast<unsigned>(msg.ctrlClass())] +=
        cfg.controlBytes;
}

void
L1Controller::countOutgoingData(const WordRange &range, WordMask touched)
{
    const unsigned used = static_cast<unsigned>(
        std::popcount(touched & range.mask()));
    stats.usedDataBytes +=
        static_cast<std::uint64_t>(used) * kWordBytes;
    stats.unusedDataBytes +=
        static_cast<std::uint64_t>(range.words() - used) * kWordBytes;
}

void
L1Controller::classifyDeath(const AmoebaBlock &blk)
{
    const unsigned used = blk.touchedWords();
    stats.usedDataBytes += static_cast<std::uint64_t>(used) * kWordBytes;
    stats.unusedDataBytes +=
        static_cast<std::uint64_t>(blk.untouchedWords()) * kWordBytes;
    predictor.learn(blk.fetchPc, blk.missWord, blk.touched, blk.range);
}

void
L1Controller::sendMsg(CoherenceMsg msg, Cycle when, bool count_stats)
{
    msg.srcNode = coreId;
    msg.sender = coreId;
    PROTO_DTRACE("l1.%u -> %s stillO=%d stillS=%d last=%d demote=%d",
                 coreId, msg.toString().c_str(), msg.stillOwner,
                 msg.stillSharer, msg.last, msg.demoteOwner);
    if (count_stats)
        countCtrl(msg);
    eventq.scheduleAt(when, Event::of(EventKind::L1Send, coreId, msg));
}

bool
L1Controller::tryCollectDirect(Addr region, const WordRange &range,
                               MsgData &out)
{
    if (range.empty())
        return false;
    out.clear();
    AmoebaCache::BlockPtrs blocks;
    cache.overlapping(region, range, blocks);
    WordMask covered = 0;
    for (AmoebaBlock *b : blocks) {
        const WordRange part = b->range.intersect(range);
        out.setRange(part, &b->words[part.start - b->range.start]);
        covered |= part.mask();
    }
    return covered == range.mask();
}

void
L1Controller::sendDirectData(const CoherenceMsg &probe, GrantState grant,
                             const MsgData &words, Cycle when)
{
    CoherenceMsg data;
    data.type = MsgType::DATA;
    data.dstNode = probe.requester;
    data.dstIsDir = false;
    data.region = probe.region;
    data.range = probe.reqFetchRange;
    data.requester = probe.requester;
    data.grant = grant;
    data.data = words;
    // Peer DATA is accounted at the receiving L1 only, like
    // directory-sourced DATA.
    sendMsg(std::move(data), when, /*count_stats=*/false);
}

WordRange
L1Controller::predictFetch(Pc pc, Addr region, unsigned word,
                           const WordRange &need)
{
    WordRange pred = predictor.predict(pc, word, need);
    // Clip the predicted range so it cannot overlap any resident block
    // of the region (dirty data must never be refetched, and insertion
    // requires non-overlap).
    AmoebaCache::BlockPtrs resident_blocks;
    cache.blocksOfRegion(region, resident_blocks);
    for (AmoebaBlock *b : resident_blocks)
        pred = clipAgainst(pred, need, b->range);
    return pred;
}

void
L1Controller::requestAccess(const MemAccess &acc)
{
    const Addr region = regionBase(acc.addr, cfg.regionBytes);
    const unsigned word = wordIndexIn(acc.addr, cfg.regionBytes);

    if (acc.isWrite)
        ++stats.stores;
    else
        ++stats.loads;

    AmoebaBlock *blk = cache.findCovering(region, word);
    const bool hit =
        blk && (!acc.isWrite || blk->state != BlockState::S);

    accessPending = true;
    if (hit) {
        ++stats.hits;
        handleHit(blk, acc, word);
    } else {
        ++stats.misses;
        handleMiss(acc, region, word);
    }
}

void
L1Controller::handleHit(AmoebaBlock *blk, const MemAccess &acc,
                        unsigned word)
{
    cache.touchLru(blk);
    blk->touched |= WordMask(1) << word;

    const L1State before = abstractOf(blk->state);
    std::uint64_t value = 0;
    if (acc.isWrite) {
        blk->state = BlockState::M;   // silent E->M upgrade included
        blk->wordAt(word) = acc.storeValue;
        golden.commitStore(acc.addr, acc.storeValue);
    } else {
        value = blk->wordAt(word);
        if (cfg.checkValues && !golden.checkLoad(acc.addr, value)) {
            warn("core %u cycle %llu: load hit %llx observed %llx, "
                 "oracle %llx",
                 coreId,
                 static_cast<unsigned long long>(eventq.now()),
                 static_cast<unsigned long long>(acc.addr),
                 static_cast<unsigned long long>(value),
                 static_cast<unsigned long long>(
                     golden.lastExpectedValue()));
        }
    }
    cov(before, acc.isWrite ? L1Event::Store : L1Event::Load,
        abstractOf(blk->state));

    const Cycle done_at = occupy(cfg.l1Latency);
    eventq.scheduleAt(done_at,
                      Event::of(EventKind::L1Complete, coreId, value));
}

void
L1Controller::handleMiss(const MemAccess &acc, Addr region, unsigned word)
{
    PROTO_ASSERT(!mshrs.full(), "core issued access with MSHR busy");

    const WordRange need(word, word);

    // Upgrade path: a resident S block already holds the word; ask for
    // permission over exactly that block's range.
    AmoebaBlock *resident = cache.findCovering(region, word);
    bool upgrade = false;
    WordRange pred;
    if (resident) {
        PROTO_ASSERT(acc.isWrite && resident->state == BlockState::S,
                     "miss with covering block that is not an S-write");
        upgrade = true;
        pred = resident->range;
    } else {
        pred = predictFetch(acc.pc, region, word, need);
    }

    MshrEntry entry;
    entry.region = region;
    entry.need = need;
    entry.pred = pred;
    entry.isWrite = acc.isWrite;
    entry.pc = acc.pc;
    entry.accessAddr = acc.addr;
    entry.storeValue = acc.storeValue;
    entry.issued = eventq.now();
    entry.upgrade = upgrade;
    mshrs.alloc(entry);

    if (upgrade)
        cov(L1State::S, L1Event::Store, L1State::SM);
    else
        cov(L1State::I, acc.isWrite ? L1Event::Store : L1Event::Load,
            acc.isWrite ? L1State::IM : L1State::IS);

    CoherenceMsg msg;
    msg.type = acc.isWrite ? MsgType::GETX : MsgType::GETS;
    msg.dstNode = homeTile(region);
    msg.dstIsDir = true;
    msg.region = region;
    msg.range = pred;
    msg.requester = coreId;
    msg.upgrade = upgrade;
    sendMsg(std::move(msg), occupy(cfg.l1Latency));
}

void
L1Controller::receive(CoherenceMsg msg)
{
    PROTO_DTRACE("l1.%u <- %s", coreId, msg.toString().c_str());
    countCtrl(msg);
    switch (msg.type) {
      case MsgType::DATA:
        handleData(msg);
        break;
      case MsgType::FWD_GETS:
        handleFwdGetS(msg);
        break;
      case MsgType::FWD_GETX:
      case MsgType::INV:
        ++stats.invMsgsReceived;
        handleInvProbe(msg);
        break;
      case MsgType::WB_ACK:
        wbBuffer.popFront(msg.region);
        break;
      default:
        panic("L1 %u: unexpected message %s", coreId,
              msg.toString().c_str());
    }
}

void
L1Controller::disposeEvicted(AmoebaCache::Evicted &evicted, Cycle when)
{
    // Group per region so that only the final PUT of a region carries
    // the `last` flag (the directory must not drop the sharer early).
    for (std::size_t i = 0; i < evicted.size(); ++i) {
        AmoebaBlock &blk = evicted[i];
        cov(abstractOf(blk.state), L1Event::Evict, L1State::I);
        classifyDeath(blk);
        if (!blk.dirty())
            continue;    // clean blocks retire silently

        bool later_same_region = false;
        for (std::size_t j = i + 1; j < evicted.size(); ++j) {
            if (evicted[j].region == blk.region) {
                later_same_region = true;
                break;
            }
        }

        PendingWb wb;
        wb.seg = DataSegment(blk.range, std::move(blk.words));
        wb.touched = blk.touched;
        wb.last = !later_same_region && !cache.hasRegion(blk.region);
        // Only demote when no block confers write permission any more
        // (an E block could still silently upgrade to M).
        wb.demoteOwner =
            !wb.last && !later_same_region &&
            !cache.hasWritableRegion(blk.region);

        countOutgoingData(blk.range, blk.touched);

        CoherenceMsg put;
        put.type = MsgType::PUT;
        put.dstNode = homeTile(blk.region);
        put.dstIsDir = true;
        put.region = blk.region;
        put.range = blk.range;
        put.data.setRange(wb.seg.range, wb.seg.words.data());
        put.last = wb.last;
        put.demoteOwner = wb.demoteOwner;

        wbBuffer.push(blk.region, std::move(wb));
        sendMsg(std::move(put), when);
    }
}

void
L1Controller::handleData(const CoherenceMsg &msg)
{
    MshrEntry *mshr = mshrs.find(msg.region);
    PROTO_ASSERT(mshr, "DATA without MSHR");

    const Addr region = msg.region;
    const unsigned word = wordIndexIn(mshr->accessAddr, cfg.regionBytes);
    const Cycle done_at = occupy(cfg.l1Latency);

    auto unblock = [&] {
        CoherenceMsg ub;
        ub.type = MsgType::UNBLOCK;
        ub.dstNode = homeTile(region);
        ub.dstIsDir = true;
        ub.region = region;
        sendMsg(std::move(ub), done_at);
    };

    auto complete = [&](std::uint64_t value) {
        mshrs.free(region);
        eventq.scheduleAt(done_at,
                          Event::of(EventKind::L1Complete, coreId, value));
    };

    if (msg.data.empty()) {
        // Payload-free upgrade grant.
        PROTO_ASSERT(mshr->upgrade && msg.grant == GrantState::M,
                     "empty DATA outside the upgrade path");
        AmoebaBlock *blk = cache.findCovering(region, word);
        if (!blk || blk->state != BlockState::S) {
            // The block was invalidated while the upgrade was in
            // flight (Sec. 3.3 race): complete this transaction and
            // retry as a full GETX.
            PROTO_ASSERT(mshr->upgradeBroken || !blk,
                         "upgrade target mutated unexpectedly");
            cov(L1State::SM_B, L1Event::DataUpgrade, L1State::IM);
            unblock();
            mshr->upgrade = false;
            mshr->upgradeBroken = false;
            mshr->pred = predictFetch(mshr->pc, region, word, mshr->need);

            CoherenceMsg retry;
            retry.type = MsgType::GETX;
            retry.dstNode = homeTile(region);
            retry.dstIsDir = true;
            retry.region = region;
            retry.range = mshr->pred;
            retry.requester = coreId;
            sendMsg(std::move(retry), done_at);
            return;
        }
        // Promote the resident block in place.
        cov(L1State::SM, L1Event::DataUpgrade, L1State::M);
        blk->state = BlockState::M;
        blk->touched |= WordMask(1) << word;
        blk->wordAt(word) = mshr->storeValue;
        cache.touchLru(blk);
        golden.commitStore(mshr->accessAddr, mshr->storeValue);
        unblock();
        complete(0);
        return;
    }

    PROTO_ASSERT(msg.data.valid == msg.range.mask() &&
                 msg.range.covers(mshr->need),
                 "DATA range mismatch");

    // The MSHR transient this fill retires, for coverage recording.
    const L1State transient = mshr->upgrade
        ? (mshr->upgradeBroken ? L1State::SM_B : L1State::SM)
        : (mshr->isWrite ? L1State::IM : L1State::IS);

    // Drop resident clean blocks the fill overlaps (the upgrade victim
    // or remnants); dirty overlap is impossible by construction.
    {
        AmoebaCache::BlockPtrs doomed;
        cache.overlapping(region, msg.range, doomed);
        for (AmoebaBlock *b : doomed) {
            PROTO_ASSERT(!b->dirty(), "fill overlaps dirty block");
            cov(abstractOf(b->state), L1Event::FillReplace, L1State::I);
            classifyDeath(*b);
            cache.removeExact(region, b->range);
        }
    }

    // Make room first, but dispose of the victims only after the fill
    // is resident: a PUT's last/demote flags must account for the
    // incoming block when a victim belongs to the same region.
    AmoebaCache::Evicted evicted;
    cache.makeRoom(region, msg.range, evicted);

    AmoebaBlock blk;
    blk.region = region;
    blk.range = msg.range;
    blk.fetchPc = mshr->pc;
    blk.missWord = static_cast<std::uint8_t>(word);
    blk.words.assign(msg.range.words(), 0);
    msg.data.copyOut(msg.range, blk.words.data());
    blk.touched = WordMask(1) << word;

    std::uint64_t value = 0;
    if (mshr->isWrite) {
        PROTO_ASSERT(msg.grant == GrantState::M, "GETX granted non-M");
        blk.state = BlockState::M;
        blk.wordAt(word) = mshr->storeValue;
        golden.commitStore(mshr->accessAddr, mshr->storeValue);
    } else {
        PROTO_ASSERT(msg.grant != GrantState::M, "GETS granted M");
        blk.state = msg.grant == GrantState::E ? BlockState::E
                                               : BlockState::S;
        value = blk.wordAt(word);
        if (cfg.checkValues && !golden.checkLoad(mshr->accessAddr, value)) {
            warn("core %u cycle %llu: load fill %llx observed %llx, "
                 "oracle %llx",
                 coreId,
                 static_cast<unsigned long long>(eventq.now()),
                 static_cast<unsigned long long>(mshr->accessAddr),
                 static_cast<unsigned long long>(value),
                 static_cast<unsigned long long>(
                     golden.lastExpectedValue()));
        }
    }

    ++stats.blockSizeHist[std::min<unsigned>(msg.range.words(),
                                             kMaxRegionWords)];
    cov(transient, L1Event::Data, abstractOf(blk.state));
    cache.insert(std::move(blk));
    disposeEvicted(evicted, done_at);
    unblock();
    complete(value);
}

void
L1Controller::handleFwdGetS(const CoherenceMsg &msg)
{
    const Addr region = msg.region;
    MsgData payload;
    unsigned processed = 0;

    MsgData direct_words;
    const bool direct = msg.tryDirect &&
        tryCollectDirect(region, msg.reqFetchRange, direct_words);

    AmoebaCache::BlockPtrs snooped;
    cache.overlapping(region, msg.range, snooped);
    for (AmoebaBlock *b : snooped) {
        ++processed;
        cov(abstractOf(b->state), L1Event::FwdGetS, L1State::S);
        if (b->dirty()) {
            payload.setRange(b->range, b->words.data());
            countOutgoingData(b->range, b->touched);
            b->state = BlockState::S;
        } else if (b->state == BlockState::E) {
            b->state = BlockState::S;
        }
    }
    if (processed == 0)
        cov(L1State::I, L1Event::FwdGetS, L1State::I);

    answerProbe(msg, payload, processed, false,
                direct ? &direct_words : nullptr);
}

void
L1Controller::handleInvProbe(const CoherenceMsg &msg)
{
    const Addr region = msg.region;
    const L1Event cov_ev = msg.type == MsgType::FWD_GETX
        ? L1Event::FwdGetX : L1Event::Inv;
    MsgData payload;
    unsigned processed = 0;
    bool removed_any = false;

    MsgData direct_words;
    const bool direct = msg.tryDirect &&
        tryCollectDirect(region, msg.reqFetchRange, direct_words);

    PROTO_ASSERT(msg.keepNonOverlap ||
                 msg.range == WordRange::full(cfg.regionWords()),
                 "region-granularity probe with partial range");

    // CHECK + GATHER: overlapping blocks are written back (if dirty)
    // and invalidated whole, even on partial overlap (Sec. 3.2).
    SmallVec<WordRange, AmoebaCache::kScratchBlocks> doomed;
    {
        AmoebaCache::BlockPtrs hits;
        cache.overlapping(region, msg.range, hits);
        for (AmoebaBlock *b : hits)
            doomed.push_back(b->range);
    }
    for (const WordRange &r : doomed) {
        AmoebaBlock blk = cache.removeExact(region, r);
        ++processed;
        removed_any = true;
        ++stats.blocksInvalidated;
        cov(abstractOf(blk.state), cov_ev, L1State::I);
        if (blk.dirty()) {
            payload.setRange(blk.range, blk.words.data());
            countOutgoingData(blk.range, blk.touched);
        }
        classifyDeath(blk);

        // A racing upgrade loses its target block (Sec. 3.3 races).
        MshrEntry *mshr = mshrs.find(region);
        if (mshr && mshr->upgrade && r.contains(mshr->need.start) &&
            !mshr->upgradeBroken) {
            mshr->upgradeBroken = true;
            cov(L1State::SM, cov_ev, L1State::SM_B);
        }
    }
    if (!removed_any)
        cov(L1State::I, cov_ev, L1State::I);

    // Protozoa-SW+MR: the single-writer slot is being reassigned, so
    // surviving non-overlapping blocks lose write permission.
    if (msg.revokeWritePerm) {
        AmoebaCache::BlockPtrs survivors;
        cache.blocksOfRegion(region, survivors);
        for (AmoebaBlock *b : survivors) {
            if (b->state != BlockState::S)
                cov(abstractOf(b->state), L1Event::Revoke, L1State::S);
            if (b->dirty()) {
                payload.setRange(b->range, b->words.data());
                countOutgoingData(b->range, b->touched);
                ++processed;
            }
            b->state = BlockState::S;
        }
    }

    answerProbe(msg, payload, processed, removed_any,
                direct ? &direct_words : nullptr);
}

void
L1Controller::answerProbe(const CoherenceMsg &probe, MsgData &payload,
                          unsigned processed, bool removed_any,
                          const MsgData *direct_words)
{
    const Addr region = probe.region;
    wbBuffer.forEachOverlapping(
        region, probe.range, [&](const PendingWb &wb) {
            payload.setRange(wb.seg.range, wb.seg.words.data());
            countOutgoingData(wb.seg.range, wb.touched);
            ++processed;
        });

    // An E/M block that survives keeps silent-write permission, so the
    // directory must keep tracking this core as a writer.
    bool still_owner = false;
    bool still_sharer = false;
    AmoebaCache::BlockPtrs remaining;
    cache.blocksOfRegion(region, remaining);
    for (AmoebaBlock *b : remaining) {
        still_sharer = true;
        if (b->state != BlockState::S)
            still_owner = true;
    }
    // A dirty PUT in flight whose segment this (partial-range) probe
    // did not collect: stay tracked, or the directory drops the PUT's
    // data as stale. A sharer bit suffices and, unlike an owner bit,
    // cannot re-grow the writer set of a single-writer protocol.
    // debugLostStoreBug re-injects the pre-fix race for protocheck.
    if (!cfg.debugLostStoreBug &&
        wbBuffer.hasUncollected(region, probe.range))
        still_sharer = true;

    CoherenceMsg resp;
    if (!payload.empty())
        resp.type = MsgType::WB_RESP;
    else if (still_sharer)
        resp.type = MsgType::ACK_S;
    else if (removed_any)
        resp.type = MsgType::ACK;
    else
        resp.type = MsgType::NACK;
    resp.dstNode = homeTile(region);
    resp.dstIsDir = true;
    resp.region = region;
    resp.range = probe.range;
    resp.requester = probe.requester;
    resp.data = payload;
    resp.stillOwner = still_owner;
    resp.stillSharer = still_sharer;
    resp.suppliedDirect = direct_words != nullptr;

    const Cycle when =
        occupy(cfg.l1Latency + cfg.l1GatherPerBlock * processed);
    if (direct_words) {
        const GrantState grant = probe.type == MsgType::FWD_GETS
            ? GrantState::S : GrantState::M;
        sendDirectData(probe, grant, *direct_words, when);
    }
    sendMsg(std::move(resp), when);
}

void
L1Controller::finalizeStats()
{
    cache.forEach([this](const AmoebaBlock &blk) { classifyDeath(blk); });
}

void
L1Controller::saveState(Serializer &s) const
{
    static_assert(std::is_trivially_copyable_v<L1Stats>);
    s.writeRaw(stats);
    s.writeU64(busyUntil);
    std::uint64_t rng[4];
    occRng.stateWords(rng);
    for (const std::uint64_t w : rng)
        s.writeU64(w);
    s.writeU8(accessPending ? 1 : 0);
    cache.saveState(s);
    predictor.saveState(s);
    mshrs.saveState(s);
    wbBuffer.saveState(s);
}

bool
L1Controller::restoreState(Deserializer &d)
{
    d.readRaw(stats);
    busyUntil = d.readU64();
    std::uint64_t rng[4];
    for (std::uint64_t &w : rng)
        w = d.readU64();
    occRng.setStateWords(rng);
    accessPending = d.readU8() != 0;
    if (d.failed())
        return false;
    return cache.restoreState(d) && predictor.restoreState(d) &&
           mshrs.restoreState(d, cfg.regionWords()) &&
           wbBuffer.restoreState(d, cfg.regionWords()) &&
           !d.failed();
}

} // namespace protozoa
