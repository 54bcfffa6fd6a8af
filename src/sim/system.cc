#include "sim/system.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "common/log.hh"

namespace protozoa {

System::System(const SystemConfig &config, Workload workload)
    : cfg(config), traces(std::move(workload))
{
    // The MESI baseline is the degenerate fixed-granularity case:
    // whole-region fetches, whole-region coherence.
    if (cfg.protocol == ProtocolKind::MESI)
        cfg.predictor = PredictorKind::FullRegion;
    cfg.validate();
    PROTO_ASSERT(traces.size() == cfg.numCores,
                 "workload must supply one trace per core");

    coverage = std::make_unique<ConformanceCoverage>(cfg.protocol,
                                                     knobProfileOf(cfg));
    net = std::make_unique<Mesh>(eventq, cfg);
    net->setDeliverHook(
        [this](CoherenceMsg &&m) { deliver(std::move(m)); });

    for (CoreId c = 0; c < cfg.numCores; ++c) {
        l1s.push_back(std::make_unique<L1Controller>(
            c, cfg, eventq, *this, &golden, coverage.get()));
    }
    for (TileId t = 0; t < cfg.l2Tiles; ++t) {
        dirs.push_back(std::make_unique<DirController>(
            t, cfg, eventq, *this, memImage, coverage.get()));
    }
    for (CoreId c = 0; c < cfg.numCores; ++c) {
        cores.push_back(std::make_unique<CoreModel>(
            c, eventq, *l1s[c], *traces[c],
            [this](CoreId id) { onCoreDone(id); }));
    }

    // The configured bound is calibrated for the paper's 4x4 mesh;
    // bigger fabrics get a geometry-scaled horizon (explicit
    // enableWatchdog() calls keep their raw bound).
    if (cfg.watchdogCycles > 0)
        enableWatchdog(cfg.watchdogHorizon());
}

System::~System() = default;

void
System::send(CoherenceMsg msg)
{
    armWatchdog();
    if (filter && !filter(msg)) {
        ++dropped;
        return;
    }
    const unsigned bytes = msg.sizeBytes(cfg.controlBytes);
    const unsigned src = msg.srcNode;
    const unsigned dst = msg.dstNode;
    const bool to_dir = msg.dstIsDir;

    // Snapshot the identifying fields before the message moves into the
    // delivery event, for the watchdog's in-flight tracking.
    const MsgType type = msg.type;
    const Addr region = msg.region;
    const WordRange range = msg.range;

    // The delivery event must fit the event queue's inline buffer or
    // every message send costs a heap allocation.
    static_assert(sizeof(DeliverEvent) <= EventCallback::kInlineBytes,
                  "mesh delivery event spills to the heap");

    Cycle delay;
    if (net->scheduleOracleEnabled()) {
        delay = net->park(src, dst, bytes, std::move(msg));
    } else {
        const Cycle arrival =
            net->routeMessage(src, dst, bytes, eventq.now());
        delay = arrival - eventq.now();
        eventq.scheduleAt(arrival, DeliverEvent{this, std::move(msg)});
    }

    if (net->trackingEnabled()) {
        Mesh::QueuedMsg q;
        q.src = src;
        q.dst = dst;
        q.arrival = eventq.now() + delay;
        q.type = msgTypeName(type);
        q.region = region;
        q.range = range;
        q.dstIsDir = to_dir;
        net->noteQueued(q);
    }
}

void
System::onCoreDone(CoreId)
{
    PROTO_ASSERT(coresRunning > 0, "core finished twice");
    --coresRunning;
}

void
System::enablePeriodicInvariantCheck(Cycle period)
{
    PROTO_ASSERT(period > 0, "zero check period");
    checkPeriod = period;
}

void
System::scheduleInvariantCheck()
{
    eventq.schedule(checkPeriod, InvariantTickEvent{this});
}

void
System::invariantTick()
{
    if (auto err = checkCoherenceInvariant()) {
        ++invariantErrors;
        if (firstInvariantError.empty())
            firstInvariantError = *err;
    }
    if (coresRunning > 0)
        scheduleInvariantCheck();
}

void
System::run(Cycle max_cycles)
{
    runTo(kNoStop, max_cycles);
}

void
System::runTo(Cycle stop_at, Cycle max_cycles)
{
    if (!started) {
        started = true;
        coresRunning = cfg.numCores;
        for (auto &core : cores)
            core->start();

        if (checkPeriod > 0)
            scheduleInvariantCheck();
        if (windowPeriod > 0)
            eventq.schedule(windowPeriod, WindowTickEvent{this});
    }

    const auto wall_start = std::chrono::steady_clock::now();
    if (stop_at == kNoStop) {
        eventq.run(max_cycles);
    } else {
        eventq.runUntil(stop_at);
    }
    runWallSeconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();

    // A bounded run may stop mid-workload; only a drained run
    // finalizes.
    if (stop_at != kNoStop && coresRunning != 0)
        return;
    PROTO_ASSERT(coresRunning == 0, "event queue drained with live cores");

    if (!finalized) {
        for (auto &l1c : l1s)
            l1c->finalizeStats();
        // Close the trailing partial stats window.
        if (windowPeriod > 0)
            windowRollover(eventq.now());
        finalized = true;
        if (windowPeriod > 0 && !windowPath.empty())
            writeWindowJson();
    }
}

void
System::enableWindowStats(Cycle period, std::string json_path)
{
    PROTO_ASSERT(period > 0, "zero stats window");
    windowPeriod = period;
    windowPath = std::move(json_path);
}

void
System::windowTick()
{
    windowRollover(eventq.now());
    if (coresRunning > 0)
        eventq.schedule(windowPeriod, WindowTickEvent{this});
}

void
System::windowRollover(Cycle now)
{
    const RunStats cur = report();
    WindowSample w;
    w.endCycle = now;
    w.instructions = cur.instructions - winPrev.instructions;
    w.loads = cur.l1.loads - winPrev.l1.loads;
    w.stores = cur.l1.stores - winPrev.l1.stores;
    w.hits = cur.l1.hits - winPrev.l1.hits;
    w.misses = cur.l1.misses - winPrev.l1.misses;
    w.blocksInvalidated =
        cur.l1.blocksInvalidated - winPrev.l1.blocksInvalidated;
    w.usedDataBytes = cur.l1.usedDataBytes - winPrev.l1.usedDataBytes;
    w.unusedDataBytes =
        cur.l1.unusedDataBytes - winPrev.l1.unusedDataBytes;
    w.netMessages = cur.net.messages - winPrev.net.messages;
    w.netBytes = cur.net.bytes - winPrev.net.bytes;
    w.flitHops = cur.net.flitHops - winPrev.net.flitHops;
    w.dirRequests = cur.dir.requests - winPrev.dir.requests;
    w.l2Misses = cur.dir.l2Misses - winPrev.dir.l2Misses;
    w.recalls = cur.dir.recalls - winPrev.dir.recalls;
    for (std::size_t i = 0; i < w.blockSizeHist.size(); ++i)
        w.blockSizeHist[i] = cur.l1.blockSizeHist[i] -
            winPrev.l1.blockSizeHist[i];
    for (const auto &d : dirs)
        w.dirOccupancy += d->occupancy();
    windows.push_back(w);
    winPrev = cur;
}

void
System::writeWindowJson() const
{
    std::FILE *f = std::fopen(windowPath.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "window stats: cannot open %s\n",
                     windowPath.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"windowCycles\": %llu,\n  \"windows\": [\n",
                 static_cast<unsigned long long>(windowPeriod));
    for (std::size_t i = 0; i < windows.size(); ++i) {
        const WindowSample &w = windows[i];
        std::fprintf(
            f,
            "    {\"endCycle\": %llu, \"instructions\": %llu, "
            "\"loads\": %llu, \"stores\": %llu, \"hits\": %llu, "
            "\"misses\": %llu, \"blocksInvalidated\": %llu, "
            "\"usedDataBytes\": %llu, \"unusedDataBytes\": %llu, "
            "\"netMessages\": %llu, \"netBytes\": %llu, "
            "\"flitHops\": %llu, \"dirRequests\": %llu, "
            "\"l2Misses\": %llu, \"recalls\": %llu, "
            "\"dirOccupancy\": %llu, \"blockSizeHist\": [",
            static_cast<unsigned long long>(w.endCycle),
            static_cast<unsigned long long>(w.instructions),
            static_cast<unsigned long long>(w.loads),
            static_cast<unsigned long long>(w.stores),
            static_cast<unsigned long long>(w.hits),
            static_cast<unsigned long long>(w.misses),
            static_cast<unsigned long long>(w.blocksInvalidated),
            static_cast<unsigned long long>(w.usedDataBytes),
            static_cast<unsigned long long>(w.unusedDataBytes),
            static_cast<unsigned long long>(w.netMessages),
            static_cast<unsigned long long>(w.netBytes),
            static_cast<unsigned long long>(w.flitHops),
            static_cast<unsigned long long>(w.dirRequests),
            static_cast<unsigned long long>(w.l2Misses),
            static_cast<unsigned long long>(w.recalls),
            static_cast<unsigned long long>(w.dirOccupancy));
        for (std::size_t b = 0; b < w.blockSizeHist.size(); ++b) {
            std::fprintf(f, "%s%llu", b ? ", " : "",
                         static_cast<unsigned long long>(
                             w.blockSizeHist[b]));
        }
        std::fprintf(f, "]}%s\n",
                     i + 1 < windows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

void
System::enableWatchdog(Cycle bound, WatchdogHandler handler)
{
    PROTO_ASSERT(bound > 0, "zero watchdog bound");
    watchdogBound = bound;
    watchdogHandler = std::move(handler);
    // Record in-flight messages so a deadlock dump can show what is
    // still on the wire per channel.
    net->enableTracking();
}

void
System::armWatchdog()
{
    if (watchdogBound == 0 || watchdogArmed || watchdogTripped)
        return;
    watchdogArmed = true;
    const Cycle interval = std::max<Cycle>(watchdogBound / 2, 1);
    eventq.schedule(interval, WatchdogTickEvent{this});
}

void
System::watchdogScan(Cycle now)
{
    watchdogArmed = false;
    if (watchdogTripped)
        return;

    bool outstanding = false;
    std::vector<std::pair<Addr, std::string>> overdue;

    for (CoreId c = 0; c < cfg.numCores; ++c) {
        l1s[c]->mshrFile().forEach([&](const MshrEntry &e) {
            outstanding = true;
            if (now > e.issued + watchdogBound) {
                std::ostringstream os;
                os << "L1." << c << " MSHR for region 0x" << std::hex
                   << e.region << std::dec << " ("
                   << (e.isWrite ? "store" : "load") << " word "
                   << e.need.start << (e.upgrade ? ", upgrade" : "")
                   << (e.upgradeBroken ? ", broken" : "")
                   << ") outstanding since cycle " << e.issued;
                overdue.emplace_back(e.region, os.str());
            }
        });
        if (l1s[c]->writebackBuffer().pendingCount() > 0)
            outstanding = true;
    }
    for (TileId t = 0; t < cfg.l2Tiles; ++t) {
        for (const auto &v : dirs[t]->activeTxns()) {
            outstanding = true;
            if (now > v.start + watchdogBound) {
                std::ostringstream os;
                os << "dir" << t << " "
                   << (v.recall ? "recall" : "request")
                   << " txn for region 0x" << std::hex << v.region
                   << std::dec << " outstanding since cycle " << v.start
                   << " (pending probes=" << v.pending
                   << (v.waitingUnblock ? ", waiting UNBLOCK" : "")
                   << ", queued=" << v.queued << ")";
                overdue.emplace_back(v.region, os.str());
            }
        }
    }

    if (!overdue.empty()) {
        std::ostringstream os;
        os << "deadlock watchdog: " << overdue.size()
           << " transaction(s) outstanding past " << watchdogBound
           << " cycles at cycle " << now << "\n";
        for (const auto &[region, what] : overdue)
            os << "  " << what << "\n" << dumpRegionDiagnostic(region);

        // In-flight message census, grouped per (src,dst) channel: a
        // message the dump does not show as queued at a controller is
        // either on the wire here or genuinely lost.
        std::vector<Mesh::QueuedMsg> inflight;
        net->forEachQueued(
            now, [&](const Mesh::QueuedMsg &m) { inflight.push_back(m); });
        std::stable_sort(inflight.begin(), inflight.end(),
                         [](const Mesh::QueuedMsg &a,
                            const Mesh::QueuedMsg &b) {
                             if (a.src != b.src)
                                 return a.src < b.src;
                             return a.dst < b.dst;
                         });
        os << "  in-flight messages: " << inflight.size() << "\n";
        for (const auto &m : inflight) {
            os << "    " << m.src << " -> " << m.dst
               << (m.dstIsDir ? " (dir)" : " (l1)") << ": " << m.type
               << " region 0x" << std::hex << m.region << std::dec
               << " range " << m.range.toString() << ", arrives @"
               << m.arrival << "\n";
        }
        ++watchdogFired;
        if (watchdogHandler) {
            // One-shot: disarm so a deliberately wedged run drains.
            watchdogTripped = true;
            watchdogHandler(os.str());
            return;
        }
        panic("%s", os.str().c_str());
    }

    if (outstanding)
        armWatchdog();
}

std::string
System::dumpRegionDiagnostic(Addr region)
{
    std::ostringstream os;
    const TileId home = static_cast<TileId>(cfg.homeTileOf(region));
    os << "    " << dirs[home]->describeRegion(region) << "\n";
    for (CoreId c = 0; c < cfg.numCores; ++c) {
        std::ostringstream line;
        bool any = false;
        l1s[c]->cacheStorage().forEach([&](const AmoebaBlock &blk) {
            if (blk.region != region)
                return;
            line << " " << blockStateName(blk.state)
                 << blk.range.toString();
            any = true;
        });
        if (const MshrEntry *e = l1s[c]->mshrFile().find(region)) {
            line << " mshr(" << (e->isWrite ? "W" : "R") << " word "
                 << e->need.start << (e->upgrade ? " upgrade" : "")
                 << (e->upgradeBroken ? " broken" : "") << " issued @"
                 << e->issued << ")";
            any = true;
        }
        std::size_t wbs = 0;
        l1s[c]->writebackBuffer().forEachOverlapping(
            region, WordRange::full(cfg.regionWords()),
            [&](const PendingWb &) { ++wbs; });
        if (wbs > 0) {
            line << " wb-pending x" << wbs;
            any = true;
        }
        if (any)
            os << "    L1." << c << ":" << line.str() << "\n";
    }
    return os.str();
}

RunStats
System::report() const
{
    RunStats out;
    out.kernel = eventq.kernelStats();
    out.kernel.wallSeconds = runWallSeconds;
    for (const auto &l1c : l1s)
        out.l1.merge(l1c->stats);
    for (const auto &d : dirs)
        out.dir.merge(d->stats);
    out.net.merge(net->netStats());
    for (const auto &core : cores) {
        out.instructions += core->instructions();
        out.cycles = std::max(out.cycles, core->finishCycle());
    }
    return out;
}

System::InvAcc &
System::invFindOrCreate(Addr region)
{
    // Linear probing: the slot holding `key` in this epoch, else the
    // free slot that ends its probe run.
    auto probe = [this](Addr key) {
        std::uint64_t z = key + 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        const std::size_t mask = invTable.size() - 1;
        std::size_t i = static_cast<std::size_t>(z ^ (z >> 31)) & mask;
        while (invTable[i].epoch == invEpoch && invTable[i].region != key)
            i = (i + 1) & mask;
        return i;
    };
    std::size_t i = probe(region);
    if (invTable[i].epoch == invEpoch)
        return invTable[i];

    // A region new to this check. The table stays at most half full,
    // so probe runs stay short. Growth happens during warmup only:
    // once the resident block population peaks, the table size is
    // sticky and the check allocates nothing.
    if ((invStamped.size() + 1) * 2 > invTable.size()) {
        std::vector<InvAcc> old = std::move(invTable);
        invTable.assign(old.size() * 2, InvAcc());
        invStamped.reserve(invTable.size() / 2);
        // Re-place the stamped slots and record where each one moved.
        for (std::uint32_t &k : invStamped) {
            const std::size_t j = probe(old[k].region);
            invTable[j] = old[k];
            k = static_cast<std::uint32_t>(j);
        }
        i = probe(region);
    }
    InvAcc &acc = invTable[i];
    acc = InvAcc();
    acc.region = region;
    acc.epoch = invEpoch;
    invStamped.push_back(static_cast<std::uint32_t>(i));
    return acc;
}

std::optional<std::string>
System::checkCoherenceInvariant()
{
    const bool region_granularity =
        cfg.protocol == ProtocolKind::MESI ||
        cfg.protocol == ProtocolKind::ProtozoaSW;
    const bool single_writer =
        cfg.protocol != ProtocolKind::ProtozoaMW;

    // One O(blocks) streaming pass: fold every resident block's word
    // mask into its region's accumulator. Blocks arrive core-major
    // (cores scanned in order), so each region sees one core's blocks
    // as a contiguous run; folding the per-core aggregate into
    // `multi` at core boundaries yields the words held by two or more
    // distinct cores — no sorting, no per-pair scan.
    if (invTable.empty()) {
        invTable.assign(16, InvAcc());
        invStamped.reserve(invTable.size() / 2);
    }
    ++invEpoch;
    invStamped.clear();
    for (CoreId c = 0; c < cfg.numCores; ++c) {
        l1s[c]->cacheStorage().forEach([&](const AmoebaBlock &blk) {
            InvAcc &acc = invFindOrCreate(blk.region);
            const WordMask m = blk.range.mask();
            if (acc.distinctCores == 0) {
                acc.lastCore = c;
                acc.distinctCores = 1;
            } else if (acc.lastCore != c) {
                acc.multi |= acc.all & acc.cur;
                acc.all |= acc.cur;
                acc.cur = 0;
                acc.lastCore = c;
                ++acc.distinctCores;
            }
            acc.cur |= m;
            if (blk.state != BlockState::S) {
                acc.writers.set(c);
                acc.writerWords |= m;
            }
        });
    }

    // Word granularity: a conflict is a word inside some non-S block
    // that a second core also covers. Region granularity: a writer
    // plus any other holder conflicts regardless of words. The former
    // map-of-vectors scan reported the lowest violating region, so
    // take the minimum before building the message.
    bool found = false;
    Addr badRegion = 0;
    for (const std::uint32_t k : invStamped) {
        const InvAcc &acc = invTable[k];
        const WordMask multi = acc.multi | (acc.all & acc.cur);
        const bool violation =
            (single_writer && acc.writers.count() > 1) ||
            (region_granularity
                 ? (acc.writers.any() && acc.distinctCores >= 2)
                 : (acc.writerWords & multi) != 0);
        if (violation && (!found || acc.region < badRegion)) {
            found = true;
            badRegion = acc.region;
        }
    }
    if (found)
        return reportViolation(badRegion);
    return std::nullopt;
}

/**
 * Violating runs only: re-gather the region's holders in the original
 * core-major order and rerun the exact checks of the former pairwise
 * scan, so the reported message is identical to the pre-mask checker.
 */
std::optional<std::string>
System::reportViolation(Addr region)
{
    auto &holders = invScratch;
    holders.clear();
    for (CoreId c = 0; c < cfg.numCores; ++c) {
        l1s[c]->cacheStorage().forEach([&](const AmoebaBlock &blk) {
            if (blk.region == region)
                holders.push_back(InvHolder{c, blk.state, blk.range});
        });
    }

    const bool region_granularity =
        cfg.protocol == ProtocolKind::MESI ||
        cfg.protocol == ProtocolKind::ProtozoaSW;
    const bool single_writer =
        cfg.protocol != ProtocolKind::ProtozoaMW;

    CoreSet writers;
    for (const auto &h : holders) {
        if (h.state != BlockState::S)
            writers.set(h.core);
    }
    if (single_writer && writers.count() > 1) {
        std::ostringstream os;
        os << "region 0x" << std::hex << region << std::dec << ": "
           << writers.count() << " concurrent writers under "
           << protocolName(cfg.protocol);
        return os.str();
    }

    for (std::size_t i = 0; i < holders.size(); ++i) {
        for (std::size_t j = i + 1; j < holders.size(); ++j) {
            const InvHolder &a = holders[i];
            const InvHolder &b = holders[j];
            if (a.core == b.core)
                continue;
            const bool writer_involved = a.state != BlockState::S ||
                                         b.state != BlockState::S;
            if (!writer_involved)
                continue;
            const bool conflict = region_granularity
                ? true
                : a.range.overlaps(b.range);
            if (conflict) {
                std::ostringstream os;
                os << "region 0x" << std::hex << region << std::dec
                   << ": core " << a.core << " "
                   << blockStateName(a.state) << a.range.toString()
                   << " vs core " << b.core << " "
                   << blockStateName(b.state) << b.range.toString()
                   << " violates SWMR under "
                   << protocolName(cfg.protocol);
                return os.str();
            }
        }
    }
    // The mask sweep flagged this region, so one of the paths above
    // must fire.
    panic("invariant sweep flagged region 0x%llx but no pair conflicts",
          static_cast<unsigned long long>(region));
}

} // namespace protozoa
