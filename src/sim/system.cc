#include "sim/system.hh"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <tuple>

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
    net = std::make_unique<Mesh>(cfg);

    for (CoreId c = 0; c < cfg.numCores; ++c) {
        l1s.push_back(std::make_unique<L1Controller>(
            c, cfg, eventq, golden, *coverage));
    }
    for (TileId t = 0; t < cfg.l2Tiles; ++t) {
        dirs.push_back(std::make_unique<DirController>(
            t, cfg, eventq, memImage, *coverage));
    }
    for (CoreId c = 0; c < cfg.numCores; ++c)
        cores.push_back(std::make_unique<CoreModel>(c, eventq, *traces[c]));

    // The configured bound is calibrated for the paper's 4x4 mesh;
    // bigger fabrics get a geometry-scaled horizon (explicit
    // enableWatchdog() calls keep their raw bound).
    if (cfg.watchdogCycles > 0)
        enableWatchdog(cfg.watchdogHorizon());
}

System::~System() = default;

void
System::dispatch(const Event &ev)
{
    switch (ev.kind) {
      case EventKind::CoreStep:
        stepCore(ev.id);
        return;
      case EventKind::CoreIssue:
        l1s[ev.id]->requestAccess(ev.acc);
        return;
      case EventKind::L1Complete:
        l1s[ev.id]->completeAccess();
        if (accessSink)
            accessSink(ev.id, ev.value);
        else
            stepCore(ev.id);
        return;
      case EventKind::L1Send:
      case EventKind::DirSend:
        send(ev.msg);
        return;
      case EventKind::DirFill:
        dirs[ev.id]->finishFill(ev.value);
        return;
      case EventKind::Deliver:
        deliver(ev.msg);
        return;
      case EventKind::InvariantTick:
        invariantTick();
        return;
      case EventKind::WatchdogTick:
        watchdogScan(eventq.now());
        return;
      case EventKind::TestHook:
        ev.hook.fn(ev.hook.ctx);
        return;
    }
    panic("unknown event kind %u", static_cast<unsigned>(ev.kind));
}

bool
System::step()
{
    return eventq.step([this](const Event &ev) { dispatch(ev); });
}

void
System::drain(Cycle max_cycles)
{
    eventq.run([this](const Event &ev) { dispatch(ev); }, max_cycles);
}

void
System::send(const CoherenceMsg &msg)
{
    armWatchdog();
    if (filter && !filter(msg)) {
        ++dropped;
        return;
    }
    const unsigned bytes = msg.sizeBytes(cfg.controlBytes);
    const unsigned src = msg.srcNode;
    const unsigned dst = msg.dstNode;
    if (net->scheduleOracleEnabled()) {
        net->park(src, dst, bytes, msg);
        return;
    }
    const Cycle arrival = net->routeMessage(src, dst, bytes, eventq.now());
    eventq.scheduleAt(arrival, Event::of(EventKind::Deliver, 0, msg));
}

void
System::deliverParked(unsigned src, unsigned dst)
{
    eventq.schedule(
        0, Event::of(EventKind::Deliver, 0, net->takeParked(src, dst)));
}

void
System::stepCore(CoreId c)
{
    if (cores[c]->step())
        return;
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
    eventq.schedule(checkPeriod, Event::of(EventKind::InvariantTick));
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
    }

    const auto wall_start = std::chrono::steady_clock::now();
    if (stop_at == kNoStop) {
        drain(max_cycles);
    } else {
        eventq.runUntil(stop_at,
                        [this](const Event &ev) { dispatch(ev); });
    }
    runWallSeconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();

    // A bounded run may stop mid-workload, or after the cores finish
    // but before the queue drains; only a drained run finalizes.
    if (stop_at != kNoStop && (coresRunning != 0 || eventq.size() != 0))
        return;
    PROTO_ASSERT(coresRunning == 0, "event queue drained with live cores");

    if (!finalized) {
        for (auto &l1c : l1s)
            l1c->finalizeStats();
        finalized = true;
    }
}

void
System::enableWatchdog(Cycle bound, WatchdogHandler handler)
{
    PROTO_ASSERT(bound > 0, "zero watchdog bound");
    watchdogBound = bound;
    watchdogHandler = std::move(handler);
}

void
System::armWatchdog()
{
    if (watchdogBound == 0 || watchdogArmed || watchdogTripped)
        return;
    watchdogArmed = true;
    const Cycle interval = std::max<Cycle>(watchdogBound / 2, 1);
    eventq.schedule(interval, Event::of(EventKind::WatchdogTick));
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
        dirs[t]->forEachTxn([&](Addr region,
                                const DirController::Txn &txn) {
            outstanding = true;
            if (now > txn.start + watchdogBound) {
                std::ostringstream os;
                os << "dir" << t << " "
                   << (txn.kind == DirController::Txn::Kind::Recall
                           ? "recall"
                           : "request")
                   << " txn for region 0x" << std::hex << region
                   << std::dec << " outstanding since cycle " << txn.start
                   << " (pending probes=" << txn.pending
                   << (txn.waitingUnblock ? ", waiting UNBLOCK" : "")
                   << ", queued=" << dirs[t]->queuedOn(region) << ")";
                overdue.emplace_back(region, os.str());
            }
        });
    }

    if (!overdue.empty()) {
        std::ostringstream os;
        os << "deadlock watchdog: " << overdue.size()
           << " transaction(s) outstanding past " << watchdogBound
           << " cycles at cycle " << now << "\n";
        for (const auto &[region, what] : overdue)
            os << "  " << what << "\n" << dumpRegionDiagnostic(region);

        // In-flight message census, read from the pending deliveries
        // and grouped per (src,dst) channel in arrival order: a message
        // the dump does not show as queued at a controller is either on
        // the wire here or genuinely lost.
        struct InFlight
        {
            Cycle when;
            std::uint64_t seq;
            const CoherenceMsg *msg;
        };
        std::vector<InFlight> inflight;
        eventq.forEachPending(
            [&](Cycle when, std::uint64_t seq, const Event &ev) {
                if (ev.kind == EventKind::Deliver)
                    inflight.push_back(InFlight{when, seq, &ev.msg});
            });
        std::sort(inflight.begin(), inflight.end(),
                  [](const InFlight &a, const InFlight &b) {
                      return std::tie(a.msg->srcNode, a.msg->dstNode,
                                      a.when, a.seq) <
                             std::tie(b.msg->srcNode, b.msg->dstNode,
                                      b.when, b.seq);
                  });
        os << "  in-flight messages: " << inflight.size() << "\n";
        for (const InFlight &f : inflight) {
            const CoherenceMsg &m = *f.msg;
            os << "    " << m.srcNode << " -> " << m.dstNode
               << (m.dstIsDir ? " (dir)" : " (l1)") << ": "
               << msgTypeName(m.type) << " region 0x" << std::hex
               << m.region << std::dec << " range " << m.range.toString()
               << ", arrives @" << f.when << "\n";
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
        const std::size_t mask = invTable.size() - 1;
        std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
        while (invTable[i].epoch == invEpoch && invTable[i].region != key)
            i = (i + 1) & mask;
        return i;
    };
    std::size_t i = probe(region);
    if (invTable[i].epoch == invEpoch)
        return invTable[i];

    // A region new to this set pass. The table stays at most half
    // full, so probe runs stay short. It grows only until the most
    // regions one set index holds across the cores peaks; from then
    // on its size is sticky and the check allocates nothing.
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

    // One O(blocks) streaming pass per L1 set index: every block of a
    // region sits in the same set of each L1, so folding set s of
    // cores 0..N-1 sees all of the region's holders. Within a set
    // pass blocks arrive core-major, so each region sees one core's
    // blocks as a contiguous run; folding the per-core aggregate into
    // `multi` at core boundaries yields the words held by two or more
    // distinct cores — no sorting, no per-pair scan. The table holds
    // one set's regions at a time.
    if (invTable.empty()) {
        invTable.assign(16, InvAcc());
        invStamped.reserve(invTable.size() / 2);
    }
    CoreId c = 0;
    auto fold = [&](const AmoebaBlock &blk) {
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
    };
    bool found = false;
    Addr badRegion = 0;
    for (unsigned set = 0; set < cfg.l1Sets; ++set) {
        ++invEpoch;
        invStamped.clear();
        for (c = 0; c < cfg.numCores; ++c)
            l1s[c]->cacheStorage().forEachInSet(set, fold);

        // Word granularity: a conflict is a word inside some non-S
        // block that a second core also covers. Region granularity: a
        // writer plus any other holder conflicts regardless of words.
        // The former map-of-vectors scan reported the lowest violating
        // region, so take the minimum over every set before building
        // the message.
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
        AmoebaCache &cache = l1s[c]->cacheStorage();
        cache.forEachInSet(cache.setOf(region), [&](const AmoebaBlock &blk) {
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
