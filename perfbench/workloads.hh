/**
 * @file
 * The benchmark's four workloads. Each pass builds a workload's inputs
 * from the seed, drives the protozoa library on the calling thread
 * (one System at a time, sequential kernel), checks every operation,
 * and returns the host times and counters read at the boundaries of
 * the library's public functions.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "spans.hh"

namespace perfbench {

/** Fault injected to prove a check can fail (self-tests only). */
enum class Inject
{
    None,
    /** Checkpoint chain runs a trace written from another seed. */
    ChainSeed,
    /** The first operation of every pass is reported failed. */
    FailOp,
};

struct PassConfig
{
    std::uint64_t seed = 1;
    /** Directory for the PZTR trace (unique per process). */
    std::string scratchDir = ".";
    Inject inject = Inject::None;
};

/**
 * FNV-1a fold over 64-bit values; the same fold as the repo's test
 * digest, so a workload digest can be compared with a test's.
 */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

/** Fold the protocol-visible statistics, in addProtocolStats order. */
void addProtocolStats(Digest &d, const protozoa::RunStats &s);

/** One operation: a System run, a checkpoint round trip or a pair. */
struct Op
{
    std::string label;
    /** Protocol-stats digest (System runs), explorer-counter digest
     *  (pairs), or 0 (round trips). */
    std::uint64_t digest = 0;
    /** Simulated cycles of the run (System runs) or 0. */
    protozoa::Cycle cycles = 0;
    /** Empty when every check passed. */
    std::string failure;
};

/** Explorer counters summed over scenario/protocol pairs. */
struct CheckTotals
{
    std::uint64_t pairs = 0;
    std::uint64_t states = 0;
    std::uint64_t schedules = 0;
    std::uint64_t memoHits = 0;
    std::uint64_t porPruned = 0;
    std::uint64_t deliveries = 0;
};

/** Everything one pass of a workload measured. */
struct PassResult
{
    /** Host seconds, first input built to last System torn down. */
    double wall = 0.0;

    // Host seconds inside each layer's calls.
    double gen = 0.0;
    double traceWrite = 0.0;
    /** System construction before the first event (set-up side). */
    double ctor = 0.0;
    double dtor = 0.0;
    /** Inside System::run / runTo. */
    double run = 0.0;
    double report = 0.0;
    double invariant = 0.0;
    double save = 0.0;
    double restore = 0.0;
    /** Restore-side System construction (trace open included). */
    double restoreCtor = 0.0;
    double explore = 0.0;

    /**
     * Host seconds of each set-up: input generation, trace writing and
     * the constructions before the first event. One per pass, except
     * protocheck, which sets up several times per pass.
     */
    std::vector<double> setups;
    /** Every System construction, set-up and restore side, seconds. */
    std::vector<double> ctorEach;
    /** Every checkpoint round trip: save, fresh System, restore. */
    std::vector<double> roundTrips;

    std::uint64_t records = 0;
    std::uint64_t traceBytes = 0;
    std::uint64_t systems = 0;
    std::uint64_t imageBytes = 0;
    std::uint64_t imageMaxBytes = 0;

    /**
     * Simulated statistics summed over the pass's Systems; a
     * checkpoint pass counts its simulation once (the uninterrupted
     * run). cycles is the sum of each System's cycles.
     */
    protozoa::RunStats sim;
    /** Simulated loads + stores and events over every run/runTo. */
    std::uint64_t runAccesses = 0;
    std::uint64_t runEvents = 0;
    /** Golden-value violations over every System. */
    std::uint64_t valueViolations = 0;

    /** Traced passes: events and seconds of each System's first
     *  runTo slice (cold caches) and of every later call. */
    std::uint64_t coldEvents = 0;
    double coldSec = 0.0;
    std::uint64_t steadyEvents = 0;
    double steadySec = 0.0;

    CheckTotals check;
    std::vector<Op> ops;
    /** Fold of every operation's digest, in operation order. */
    std::uint64_t digest = 0;

    std::uint64_t
    failed() const
    {
        std::uint64_t n = 0;
        for (const Op &op : ops)
            n += op.failure.empty() ? 0 : 1;
        return n;
    }
};

struct BenchWorkload
{
    const char *name;
    /** Runs Systems on traces (every workload but protocheck). */
    bool simulates;
    /** Takes checkpoints (the checkpoint workload). */
    bool checkpoints;
    /**
     * One pass. @p ref is an earlier untraced pass of the same inputs
     * (traced passes need each run's length to slice it), else null.
     */
    PassResult (*pass)(const PassConfig &cfg, Tracer &tr,
                       const PassResult *ref);
};

const std::vector<BenchWorkload> &workloads();

/** Workload by name, or nullptr. */
const BenchWorkload *findWorkload(const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
