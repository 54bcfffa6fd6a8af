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
#include "common/serialize.hh"
#include "common/stats.hh"
#include "mem/golden_memory.hh"
#include "noc/mesh.hh"
#include "protocol/conformance.hh"
#include "protocol/dir_controller.hh"
#include "protocol/event.hh"
#include "protocol/l1_controller.hh"
#include "sim/core_model.hh"
#include "workload/trace.hh"

namespace protozoa {

class System
{
  public:
    System(const SystemConfig &cfg, Workload workload);
    ~System();

    /**
     * Run the workload to completion.
     * @param max_cycles deadlock safety net (panics when exceeded).
     */
    void run(Cycle max_cycles = 2'000'000'000ULL);

    /** No-stop sentinel for runTo(). */
    static constexpr Cycle kNoStop = ~Cycle(0);

    /**
     * Run until simulated time reaches @p stop_at or the workload
     * completes (every core done and the queue drained), whichever is
     * first; only completion finalizes. Callable repeatedly; the first
     * call starts the cores, later calls resume. The system is
     * quiescent between calls (no event mid-flight), which is exactly
     * the state saveSnapshot() serializes.
     */
    void runTo(Cycle stop_at, Cycle max_cycles = 2'000'000'000ULL);

    /** True once the workload has fully drained and stats finalized. */
    bool finished() const { return finalized; }

    /**
     * Run the next pending event. Unlike runTo() it neither starts
     * the cores nor finalizes stats: the explorer and the tests drive
     * the L1s themselves. @return false when no event is pending.
     */
    bool step();

    /** step() until no event is pending; panics past @p max_cycles. */
    void drain(Cycle max_cycles = kNoStop);

    /**
     * Receiver of every completed core access: (core, loaded value,
     * 0 for stores). Unset, a completion steps the core's trace. The
     * explorer and the tests' ProtocolDriver, which issue accesses
     * themselves, install their own once, at construction; a restored
     * image needs no rebinding, because the sink is the System's.
     */
    using AccessSink = std::function<void(CoreId, std::uint64_t)>;
    void setAccessSink(AccessSink sink) { accessSink = std::move(sink); }

    /**
     * Test hook: call @p fn (which the caller keeps alive) @p delay
     * cycles from now, as a TestHook event. saveSnapshot refuses an
     * image while one is pending.
     */
    template <typename F>
    void
    scheduleTestHook(Cycle delay, F &fn)
    {
        const auto call = [](void *f) { (*static_cast<F *>(f))(); };
        eventq.schedule(delay, Event::testHook(call, &fn));
    }

    // ---- checkpoint / restore (src/snapshot) ------------------------

    /**
     * Serialize the complete mutable simulation state — every cache,
     * controller, core, queue and pending event — so any System built
     * from the same config can resume bit-identically.
     * @return false (with *error set) if a test hook is pending.
     */
    bool saveSnapshot(Serializer &s, std::string *error = nullptr) const;

    /**
     * Restore a snapshot into this System (same config), fresh or
     * already run: each component overwrites its state in place, in
     * time proportional to what it holds. Installed hooks (the access
     * sink, the message filter, the watchdog handler) stay. On success
     * the system resumes from the saved cycle via run()/runTo() and
     * produces a stats digest bit-identical to the uninterrupted run,
     * and re-saves the image it restored byte for byte. On failure the
     * System is half-restored and must be discarded.
     */
    bool restoreSnapshot(Deserializer &d, std::string *error = nullptr);

    bool saveSnapshotFile(const std::string &path,
                          std::string *error = nullptr) const;
    bool restoreSnapshotFile(const std::string &path,
                             std::string *error = nullptr);

    /** Aggregate statistics (valid after run()). */
    RunStats report() const;

    /**
     * Scan every L1's resident blocks, one set index at a time, for
     * violations of the protocol's sharing invariant. @return a
     * description of the lowest violating region, or nullopt when
     * coherent.
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
     * writeback-buffer contents, directory sets, queued requests) and
     * of every delivery still pending in the event queue.
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

    /**
     * Schedule-oracle delivery: pop the head of the parked (src,dst)
     * channel and deliver it at the current cycle, after the events
     * already queued for it.
     */
    void deliverParked(unsigned src, unsigned dst);

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

  private:
    /** configFingerprint(cfg), computed on first use: the config
     *  cannot change after construction. */
    std::uint64_t configHash() const;
    /** Run one event: the single dispatch switch over EventKind. */
    void dispatch(const Event &ev);
    /** Step core @p c's trace; count the core out once it finishes. */
    void stepCore(CoreId c);
    /** Put @p msg on the interconnect toward msg.dstNode (its L1 or
     *  directory plane): the L1Send and DirSend events. */
    void send(const CoherenceMsg &msg);
    void scheduleInvariantCheck();
    /** InvariantTick: sweep + reschedule while cores run. */
    void invariantTick();
    void armWatchdog();
    void watchdogScan(Cycle now);
    /** Hand an arrived message to its destination controller. */
    void
    deliver(const CoherenceMsg &m)
    {
        if (m.dstIsDir)
            dirs[m.dstNode]->receive(m);
        else
            l1s[m.dstNode]->receive(m);
    }

    SystemConfig cfg;
    /** configHash()'s cache; 0 until first use. */
    mutable std::uint64_t cfgHash = 0;
    EventQueue eventq;
    std::unique_ptr<ConformanceCoverage> coverage;
    std::unique_ptr<Mesh> net;
    GoldenMemory golden;
    WordStore memImage;

    Workload traces;
    std::vector<std::unique_ptr<L1Controller>> l1s;
    std::vector<std::unique_ptr<DirController>> dirs;
    std::vector<std::unique_ptr<CoreModel>> cores;
    AccessSink accessSink;

    /** Cores whose trace has not drained yet. */
    unsigned coresRunning = 0;
    /** First runTo()/run() call has started the cores. */
    bool started = false;
    bool finalized = false;
    double runWallSeconds = 0.0;

    Cycle checkPeriod = 0;
    std::uint64_t invariantErrors = 0;
    std::string firstInvariantError;

    /**
     * Per-region accumulator of the invariant sweep: whole-mask
     * coverage folded core by core (blocks stream in core-major
     * order), so conflicts fall out of a few ANDs per region with no
     * sorting and no per-pair scan. Each L1 set index is one epoch,
     * and slots are recycled across epochs via the stamp, so the
     * table holds one set's regions across the cores at a time: it
     * starts at 16 slots and grows, never clears, until that count
     * peaks. invStamped lists the slots stamped in the current epoch,
     * so a set pass visits only the regions it saw.
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
