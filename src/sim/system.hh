/**
 * @file
 * System: wires cores, private Amoeba L1s, the mesh, the tiled shared
 * L2/directory, and the two value stores into a runnable simulation.
 *
 * Also hosts the whole-system coherence-invariant checker used by the
 * random tester and the property tests: at any instant, blocks cached
 * at different cores must obey the protocol's SWMR contract
 * (region-granularity for MESI/Protozoa-SW, single-writer for SW+MR,
 * word-granularity for MW).
 */

#ifndef PROTOZOA_SIM_SYSTEM_HH
#define PROTOZOA_SIM_SYSTEM_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/event_queue.hh"
#include "common/serialize.hh"
#include "common/snapshot_tags.hh"
#include "common/stats.hh"
#include "mem/golden_memory.hh"
#include "noc/mesh.hh"
#include "protocol/conformance.hh"
#include "protocol/dir_controller.hh"
#include "protocol/l1_controller.hh"
#include "protocol/router.hh"
#include "sim/core_model.hh"
#include "workload/trace.hh"

namespace protozoa {

class System : public Router
{
  public:
    System(const SystemConfig &cfg, Workload workload);
    ~System() override;

    /**
     * Run the workload to completion.
     * @param max_cycles deadlock safety net (panics when exceeded).
     */
    void run(Cycle max_cycles = 2'000'000'000ULL);

    /** No-stop sentinel for runTo(). */
    static constexpr Cycle kNoStop = ~Cycle(0);

    /**
     * Run until simulated time reaches @p stop_at or the workload
     * completes, whichever is first. Callable repeatedly; the first
     * call starts the cores, later calls resume. The system is
     * quiescent between calls (no event mid-flight), which is exactly
     * the state saveSnapshot() serializes.
     */
    void runTo(Cycle stop_at, Cycle max_cycles = 2'000'000'000ULL);

    /** True once the workload has fully drained and stats finalized. */
    bool finished() const { return finalized; }

    // ---- checkpoint / restore (src/snapshot) ------------------------

    /**
     * Serialize the complete mutable simulation state — every cache,
     * controller, core, queue and pending event — so a fresh System
     * built from the same config can resume bit-identically.
     * @return false (with *error set) if any pending event is not
     *         checkpointable.
     */
    bool saveSnapshot(Serializer &s, std::string *error = nullptr) const;

    /**
     * Restore a snapshot into this freshly-constructed System (same
     * config, nothing run yet). On success the system resumes from the
     * saved cycle via run()/runTo() and produces a stats digest
     * bit-identical to the uninterrupted run.
     */
    bool restoreSnapshot(Deserializer &d, std::string *error = nullptr);

    bool saveSnapshotFile(const std::string &path,
                          std::string *error = nullptr) const;
    bool restoreSnapshotFile(const std::string &path,
                             std::string *error = nullptr);

    // ---- windowed online statistics ---------------------------------

    /** One windowed-stats epoch: counter deltas over the window plus an
     *  instantaneous directory-occupancy probe at rollover. */
    struct WindowSample
    {
        Cycle endCycle = 0;
        std::uint64_t instructions = 0;
        std::uint64_t loads = 0;
        std::uint64_t stores = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t blocksInvalidated = 0;
        std::uint64_t usedDataBytes = 0;
        std::uint64_t unusedDataBytes = 0;
        std::uint64_t netMessages = 0;
        std::uint64_t netBytes = 0;
        std::uint64_t flitHops = 0;
        std::uint64_t dirRequests = 0;
        std::uint64_t l2Misses = 0;
        std::uint64_t recalls = 0;
        /** Granularity mix: blocks inserted this window, by word count. */
        std::array<std::uint64_t, kMaxRegionWords + 1> blockSizeHist{};
        /** Valid L2/directory entries across all tiles at rollover. */
        std::uint64_t dirOccupancy = 0;
    };

    /**
     * Record a WindowSample every @p period cycles (phase-over-time
     * series for long-horizon runs). Off by default — the measurement
     * path and the stats digest are untouched unless enabled. When
     * @p json_path is non-empty the series is written there as JSON
     * when the run completes.
     */
    void enableWindowStats(Cycle period, std::string json_path = {});

    const std::vector<WindowSample> &windowSamples() const
    {
        return windows;
    }

    /** Aggregate statistics (valid after run()). */
    RunStats report() const;

    /**
     * Scan all caches and directory entries for violations of the
     * protocol's sharing invariant. @return a description of the first
     * violation found, or nullopt when coherent.
     */
    std::optional<std::string> checkCoherenceInvariant();

    /** Run the invariant checker every @p period cycles during run(). */
    void enablePeriodicInvariantCheck(Cycle period);

    /** Invariant violations observed by the periodic checker. */
    std::uint64_t invariantViolations() const { return invariantErrors; }

    /** Load-value violations flagged by the golden-memory oracle. */
    std::uint64_t valueViolations() const { return golden.violations(); }

    /** Per-run transition-coverage matrix (always recording). */
    ConformanceCoverage &conformance() { return *coverage; }

    /** Backing memory image (protocheck golden-word fingerprinting). */
    WordStore &memoryImage() { return memImage; }

    /**
     * Deadlock watchdog: flag any MSHR entry or directory transaction
     * outstanding for more than @p bound cycles and hand @p handler a
     * diagnostic dump of the stuck region (L1 block states, MSHR and
     * writeback-buffer contents, directory sets, queued requests).
     *
     * The default handler panics. A custom handler is one-shot: after
     * the first firing the watchdog disarms, so a deliberately wedged
     * test run still drains its event queue.
     *
     * Also enabled automatically when cfg.watchdogCycles > 0.
     */
    using WatchdogHandler = std::function<void(const std::string &)>;
    void enableWatchdog(Cycle bound, WatchdogHandler handler = nullptr);

    /** Overdue transactions flagged by the watchdog so far. */
    std::uint64_t watchdogFirings() const { return watchdogFired; }

    /** Diagnostic description of one region across all controllers. */
    std::string dumpRegionDiagnostic(Addr region);

    /**
     * Test hook: when set, every coherence message is offered to the
     * filter before entering the mesh; returning false drops it (to
     * wedge a transaction deliberately for the watchdog tests).
     */
    using MessageFilter = std::function<bool(const CoherenceMsg &)>;
    void setMessageFilter(MessageFilter f) { filter = std::move(f); }

    /** Messages dropped by the filter. */
    std::uint64_t droppedMessages() const { return dropped; }

    // Router interface.
    void send(CoherenceMsg msg) override;

    // White-box accessors for tests and benches.
    L1Controller &l1(CoreId c) { return *l1s[c]; }
    DirController &dir(TileId t) { return *dirs[t]; }
    CoreModel &core(CoreId c) { return *cores[c]; }
    Mesh &mesh() { return *net; }
    EventQueue &eventQueue() { return eventq; }
    GoldenMemory &goldenMemory() { return golden; }
    const SystemConfig &config() const { return cfg; }

    /**
     * Always false: every System runs on the one sequential event
     * queue. Kept only because the benchmark harness still checks it;
     * the next change to the benchmark deletes the check and this stub.
     */
    bool parallelEngine() const { return false; }

    // --- saveable events (snapshot subsystem) ------------------------

    /** In-flight delivery of one coherence message to its
     *  destination controller. */
    struct DeliverEvent
    {
        System *sys;
        CoherenceMsg msg;

        void operator()() { sys->deliver(std::move(msg)); }

        void
        saveEvent(Serializer &s) const
        {
            s.writeU8(static_cast<std::uint8_t>(EventKind::Deliver));
            msg.save(s);
        }
    };

    /** Periodic whole-system coherence sweep. */
    struct InvariantTickEvent
    {
        System *sys;

        void operator()() const { sys->invariantTick(); }

        void
        saveEvent(Serializer &s) const
        {
            s.writeU8(
                static_cast<std::uint8_t>(EventKind::InvariantTick));
        }
    };

    /** Deadlock-watchdog scan. */
    struct WatchdogTickEvent
    {
        System *sys;

        void operator()() const { sys->watchdogTick(); }

        void
        saveEvent(Serializer &s) const
        {
            s.writeU8(
                static_cast<std::uint8_t>(EventKind::WatchdogTick));
        }
    };

    /** Windowed-stats epoch rollover. */
    struct WindowTickEvent
    {
        System *sys;

        void operator()() const { sys->windowTick(); }

        void
        saveEvent(Serializer &s) const
        {
            s.writeU8(static_cast<std::uint8_t>(EventKind::WindowTick));
        }
    };

  private:
    void onCoreDone(CoreId c);
    void scheduleInvariantCheck();
    /** InvariantTickEvent body: sweep + reschedule while cores run. */
    void invariantTick();
    void armWatchdog();
    /** WatchdogTickEvent body. */
    void watchdogTick() { watchdogScan(eventq.now()); }
    void watchdogScan(Cycle now);
    /** WindowTickEvent body: rollover + reschedule while cores run. */
    void windowTick();
    /** Record one WindowSample at cycle @p now. */
    void windowRollover(Cycle now);
    void writeWindowJson() const;
    /** Hand an arrived message to its destination controller. */
    void
    deliver(CoherenceMsg m)
    {
        if (m.dstIsDir)
            dirs[m.dstNode]->receive(std::move(m));
        else
            l1s[m.dstNode]->receive(std::move(m));
    }

    SystemConfig cfg;
    EventQueue eventq;
    std::unique_ptr<ConformanceCoverage> coverage;
    std::unique_ptr<Mesh> net;
    GoldenMemory golden;
    WordStore memImage;

    Workload traces;
    std::vector<std::unique_ptr<L1Controller>> l1s;
    std::vector<std::unique_ptr<DirController>> dirs;
    std::vector<std::unique_ptr<CoreModel>> cores;

    /** Cores whose trace has not drained yet. */
    unsigned coresRunning = 0;
    /** First runTo()/run() call has started the cores. */
    bool started = false;
    bool finalized = false;
    double runWallSeconds = 0.0;

    // Windowed online stats (off unless enableWindowStats ran).
    Cycle windowPeriod = 0;
    std::string windowPath;
    std::vector<WindowSample> windows;
    /** Cumulative counters at the previous rollover (delta base). */
    RunStats winPrev;

    Cycle checkPeriod = 0;
    std::uint64_t invariantErrors = 0;
    std::string firstInvariantError;

    /**
     * Per-region accumulator of the invariant sweep: whole-mask
     * coverage folded core by core (blocks stream in core-major
     * order), so conflicts fall out of a few ANDs per region with no
     * sorting and no per-pair scan. Slots are recycled across checks
     * via the epoch stamp; the table starts small and only grows
     * (warmup), never clears. invStamped lists the slots stamped in
     * the current epoch, so a check visits only the regions it saw.
     */
    struct InvAcc
    {
        Addr region = 0;
        std::uint64_t epoch = 0;
        /** Words covered by cores folded so far / by >=2 cores. */
        WordMask all = 0;
        WordMask multi = 0;
        /** Aggregate mask of the core currently streaming in. */
        WordMask cur = 0;
        WordMask writerWords = 0;
        CoreId lastCore = 0;
        unsigned distinctCores = 0;
        CoreSet writers;
    };
    std::vector<InvAcc> invTable;
    std::vector<std::uint32_t> invStamped;
    std::uint64_t invEpoch = 0;

    /** One resident L1 block (violation fallback path only). */
    struct InvHolder
    {
        CoreId core;
        BlockState state;
        WordRange range;
    };
    /** Reusable scratch of checkCoherenceInvariant (capacity sticks). */
    std::vector<InvHolder> invScratch;

    InvAcc &invFindOrCreate(Addr region);
    std::optional<std::string> reportViolation(Addr region);

    Cycle watchdogBound = 0;
    WatchdogHandler watchdogHandler;
    bool watchdogArmed = false;
    bool watchdogTripped = false;
    std::uint64_t watchdogFired = 0;

    MessageFilter filter;
    std::uint64_t dropped = 0;
};

} // namespace protozoa

#endif // PROTOZOA_SIM_SYSTEM_HH
