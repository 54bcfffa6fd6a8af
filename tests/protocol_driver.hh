/**
 * @file
 * Shared test harness: a System with no core traces that the test
 * drives access-by-access, so protocol scenarios (paper Figs. 4-7 and
 * the Sec. 3.3 races) can be replayed deterministically.
 */

#ifndef PROTOZOA_TESTS_PROTOCOL_DRIVER_HH
#define PROTOZOA_TESTS_PROTOCOL_DRIVER_HH

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <optional>

#include "protozoa/protozoa.hh"

namespace protozoa {

class ProtocolDriver
{
  public:
    explicit ProtocolDriver(const SystemConfig &cfg)
        : sys(cfg, emptyWorkload(cfg.numCores))
    {
        // Every completion lands here: record it, then issue the
        // core's next queued access.
        sys.setAccessSink([this](CoreId core, std::uint64_t value) {
            completed[core] = value;
            inFlight[core] = false;
            issueNext(core);
        });
    }

    /** Issue a load and run the system until it completes. */
    std::uint64_t
    load(CoreId core, Addr addr, Pc pc = 0x1000)
    {
        MemAccess acc;
        acc.addr = addr;
        acc.pc = pc;
        completed.erase(core);
        sys.l1(core).requestAccess(acc);
        sys.drain();
        const auto it = completed.find(core);
        EXPECT_TRUE(it != completed.end());
        return it != completed.end() ? it->second : 0;
    }

    /** Issue a store and run the system until it completes. */
    void
    store(CoreId core, Addr addr, std::uint64_t value, Pc pc = 0x2000)
    {
        MemAccess acc;
        acc.addr = addr;
        acc.isWrite = true;
        acc.storeValue = value;
        acc.pc = pc;
        completed.erase(core);
        sys.l1(core).requestAccess(acc);
        sys.drain();
        EXPECT_TRUE(completed.count(core) != 0);
    }

    /**
     * Queue an access without draining the event queue (for races).
     * Accesses from the same core chain in order (the in-order core
     * can have only one outstanding access); @p delay applies before
     * this access issues once its predecessor completed.
     */
    void
    issue(CoreId core, Addr addr, bool is_write, std::uint64_t value = 0,
          Pc pc = 0x3000, Cycle delay = 0)
    {
        MemAccess acc;
        acc.addr = addr;
        acc.isWrite = is_write;
        acc.storeValue = value;
        acc.pc = pc;
        queues[core].push_back({acc, delay});
        if (!inFlight[core])
            issueNext(core);
    }

    /** Run whatever is queued to completion. */
    void drain() { sys.drain(); }

    /** State of the block covering @p addr at @p core (if cached). */
    std::optional<BlockState>
    stateOf(CoreId core, Addr addr)
    {
        const auto &cfg = sys.config();
        AmoebaBlock *blk = sys.l1(core).cacheStorage().findCovering(
            regionBase(addr, cfg.regionBytes),
            wordIndexIn(addr, cfg.regionBytes));
        if (!blk)
            return std::nullopt;
        return blk->state;
    }

    /** Home directory tile of @p addr. */
    TileId
    homeOf(Addr addr)
    {
        const auto &cfg = sys.config();
        return static_cast<TileId>(
            cfg.homeTileOf(regionBase(addr, cfg.regionBytes)));
    }

    DirController::DirView
    dirView(Addr addr)
    {
        const auto &cfg = sys.config();
        return sys.dir(homeOf(addr))
            .view(regionBase(addr, cfg.regionBytes));
    }

    /** Expect a clean coherence scan and no value violations. */
    void
    expectClean()
    {
        const auto err = sys.checkCoherenceInvariant();
        EXPECT_FALSE(err.has_value()) << err.value_or("");
        EXPECT_EQ(sys.valueViolations(), 0u);
    }

    System sys;

  private:
    struct QueuedAccess
    {
        MemAccess acc;
        Cycle delay;
    };

    void
    issueNext(CoreId core)
    {
        if (queues[core].empty())
            return;
        inFlight[core] = true;
        const QueuedAccess next = queues[core].front();
        queues[core].pop_front();
        // The delayed issue is the core's own gap-delayed issue event.
        sys.eventQueue().schedule(
            next.delay, Event::of(EventKind::CoreIssue, core, next.acc));
    }

    std::map<CoreId, std::deque<QueuedAccess>> queues;
    std::map<CoreId, bool> inFlight;
    /** Value of each core's last completed access. */
    std::map<CoreId, std::uint64_t> completed;
};

} // namespace protozoa

#endif // PROTOZOA_TESTS_PROTOCOL_DRIVER_HH
