#include "workloads.hh"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>

#include "check/explorer.hh"
#include "check/scenario.hh"
#include "common/serialize.hh"
#include "protozoa/protozoa.hh"
#include "workload/streaming_trace.hh"

namespace perfbench {

using protozoa::Cycle;
using protozoa::ProtocolKind;
using protozoa::RunStats;
using protozoa::System;
using protozoa::SystemConfig;

void
addProtocolStats(Digest &d, const RunStats &s)
{
    d.add(s.l1.loads);
    d.add(s.l1.stores);
    d.add(s.l1.hits);
    d.add(s.l1.misses);
    d.add(s.l1.invMsgsReceived);
    d.add(s.l1.blocksInvalidated);
    d.add(s.l1.usedDataBytes);
    d.add(s.l1.unusedDataBytes);
    for (const std::uint64_t v : s.l1.ctrlBytes)
        d.add(v);
    for (const std::uint64_t v : s.l1.blockSizeHist)
        d.add(v);
    d.add(s.dir.requests);
    d.add(s.dir.l2Misses);
    d.add(s.dir.recalls);
    d.add(s.dir.memReadBytes);
    d.add(s.dir.memWriteBytes);
    d.add(s.dir.bloomFalseProbes);
    d.add(s.dir.threeHopDirect);
    d.add(s.dir.ownedOneOwnerOnly);
    d.add(s.dir.ownedOneOwnerPlusSharers);
    d.add(s.dir.ownedMultiOwner);
    d.add(s.net.messages);
    d.add(s.net.bytes);
    d.add(s.net.flits);
    d.add(s.net.flitHops);
    d.add(s.instructions);
    d.add(s.cycles);
}

namespace {

// Workload sizes, chosen so a pass takes a few host seconds (see
// README.md for the measurements behind them).
constexpr double kSweepScale = 0.05;
constexpr double kMeshScale = 0.5;
constexpr std::uint64_t kCheckpointRecordsPerCore = 20000;
constexpr unsigned kCheckpoints = 4;
/** Traced passes run each System in runTo slices of this length. */
constexpr Cycle kSliceCycles = 10000;

const ProtocolKind kAllProtocols[] = {
    ProtocolKind::MESI, ProtocolKind::ProtozoaSW,
    ProtocolKind::ProtozoaSWMR, ProtocolKind::ProtozoaMW};

const char *
shortName(ProtocolKind kind)
{
    switch (kind) {
      case ProtocolKind::MESI:         return "MESI";
      case ProtocolKind::ProtozoaSW:   return "SW";
      case ProtocolKind::ProtozoaSWMR: return "SWMR";
      case ProtocolKind::ProtozoaMW:   return "MW";
    }
    return "?";
}

[[noreturn]] void
refuse(const std::string &why)
{
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    std::exit(2);
}

/**
 * The paper's Table-4 machine on a cols x rows mesh with the 32 MB
 * aggregate L2 that fig9-fig15 (4x4) and fig_scaling (8x8) use. Every
 * knob the benchmark relies on is set here, so a changed library
 * default cannot silently change what is measured. simThreads = 0
 * keeps the sequential kernel.
 */
SystemConfig
machine(ProtocolKind proto, unsigned cols, unsigned rows,
        std::uint64_t seed)
{
    SystemConfig c;
    c.protocol = proto;
    c.predictor = protozoa::PredictorKind::PcSpatial;
    c.directory = protozoa::DirectoryKind::InCacheExact;
    c.sliceHash = protozoa::SliceHashKind::Modulo;
    c.bloomBuckets = 256;
    c.bloomHashes = 2;
    c.threeHop = false;
    c.numCores = cols * rows;
    c.regionBytes = 64;
    c.l1Sets = 256;
    c.l1BytesPerSet = 288;
    c.l1Latency = 2;
    c.l1GatherPerBlock = 1;
    c.fixedFetchWords = 8;
    c.l2Tiles = cols * rows;
    c.l2BytesPerTile = (32ull << 20) / c.l2Tiles;
    c.l2Assoc = 8;
    c.l2Latency = 14;
    c.meshCols = cols;
    c.meshRows = rows;
    c.flitBytes = 16;
    c.hopLatency = 4;
    c.flitSerialization = 2;
    c.memLatency = 300;
    c.controlBytes = 8;
    c.checkValues = true;
    c.faultInjection = false;
    c.faultJitterMax = 8;
    c.faultReorderProb = 0.05;
    c.occupancyJitter = false;
    c.occupancyJitterMax = 4;
    c.scheduleOracle = false;
    c.debugLostStoreBug = false;
    c.watchdogCycles = 0;
    c.simThreads = 0;
    c.seed = seed;
    return c;
}

/** Records of an in-memory workload (every paper benchmark is one). */
std::uint64_t
recordsOf(const protozoa::Workload &wl)
{
    std::uint64_t n = 0;
    for (const auto &src : wl) {
        const auto *v =
            dynamic_cast<const protozoa::VectorTrace *>(src.get());
        if (!v)
            refuse("a paper benchmark trace is not held in memory");
        n += v->size();
    }
    return n;
}

/** The workload explore() gives each System: one empty trace a core. */
protozoa::Workload
emptyWorkload(unsigned cores)
{
    protozoa::Workload wl;
    for (unsigned c = 0; c < cores; ++c)
        wl.push_back(std::make_unique<protozoa::VectorTrace>(
            std::vector<protozoa::TraceRecord>{}));
    return wl;
}

/**
 * A System and the trace file its cores stream from (null for
 * in-memory traces). The file must outlive the System's sources, so
 * it is declared first and destroyed last.
 */
struct Live
{
    std::unique_ptr<protozoa::StreamingTraceFile> file;
    std::unique_ptr<System> sys;
};

/** A PZTR file unique to this process, removed when the pass ends. */
struct TraceFile
{
    explicit TraceFile(const std::string &dir, const char *tag)
        : path(dir + "/perfbench-" + std::to_string(::getpid()) + "-" +
               tag + ".pztr")
    {
    }
    ~TraceFile() { std::remove(path.c_str()); }
    TraceFile(const TraceFile &) = delete;
    TraceFile &operator=(const TraceFile &) = delete;

    std::string path;
};

/** State shared by the calls of one pass. */
struct Pass
{
    Pass(const PassConfig &c, Tracer &t, const PassResult *r)
        : cfg(c), tr(t), ref(r)
    {
    }

    const PassConfig &cfg;
    Tracer &tr;
    const PassResult *ref;
    PassResult r;
    Digest digest;

    /** Length of operation @p index in the reference pass, or 0. */
    Cycle
    refCycles(std::size_t index) const
    {
        return ref && index < ref->ops.size() ? ref->ops[index].cycles
                                              : 0;
    }

    /**
     * Record an operation. A later pass of the same inputs must give
     * every operation the digest it had in the reference pass: the
     * simulation is deterministic, and neither runTo slicing nor spans
     * may perturb it.
     */
    void
    addOp(Op op)
    {
        const std::size_t i = r.ops.size();
        if (op.failure.empty() && ref && i < ref->ops.size() &&
            op.digest != ref->ops[i].digest)
            op.failure = "digest differs from the untraced pass";
        if (op.failure.empty() && cfg.inject == Inject::FailOp && i == 0)
            op.failure = "injected failure";
        digest.add(op.digest);
        r.ops.push_back(std::move(op));
    }

    PassResult
    finish()
    {
        r.digest = digest.value();
        return std::move(r);
    }
};

/**
 * Construct a System whose workload @p make builds (a trace-file open
 * included), timed under @p span and added to @p acc.
 */
template <typename MakeWorkload>
Live
construct(Pass &p, const char *span, double &acc, const SystemConfig &cfg,
          MakeWorkload &&make)
{
    Timed t(p.tr, span);
    Live live;
    protozoa::Workload wl = make(live.file);
    live.sys = std::make_unique<System>(cfg, std::move(wl));
    const double s = t.stop();
    if (live.sys->parallelEngine())
        refuse("the sharded engine is active; the benchmark measures "
               "the sequential kernel");
    acc += s;
    p.r.ctorEach.push_back(s);
    ++p.r.systems;
    return live;
}

/** Open the PZTR trace at @p path and hand its per-core sources out. */
auto
fromTraceFile(const std::string &path)
{
    return [&path](std::unique_ptr<protozoa::StreamingTraceFile> &file) {
        std::string err;
        file = protozoa::StreamingTraceFile::open(path, &err);
        if (!file)
            refuse(err);
        return file->makeWorkload();
    };
}

/**
 * Advance @p sys to @p stop (System::kNoStop: to completion).
 *
 * Untraced: one run() or runTo() call. Traced: runTo() in
 * kSliceCycles slices, each a span carrying its event and access
 * deltas, so a cold-cache start and the steady state get separate
 * event rates. Slices stop short of @p known_end, the run's length from
 * the untraced pass: a runTo() that reaches the point where the last
 * core finishes would finalize the statistics before the queue drains,
 * which run() does not do.
 */
void
drive(Pass &p, System &sys, Cycle stop, Cycle known_end, bool cold_start)
{
    const auto counters = [](const RunStats &a, const RunStats &b) {
        return SpanCounters{
            a.kernel.eventsExecuted - b.kernel.eventsExecuted,
            a.l1.loads + a.l1.stores - b.l1.loads - b.l1.stores, 0};
    };
    const auto call = [&](Cycle until, bool cold) {
        const RunStats before = sys.report();
        Timed t(p.tr, "sim.runTo");
        if (until == System::kNoStop)
            sys.run();
        else
            sys.runTo(until);
        const double s = t.stop();
        const SpanCounters c = counters(sys.report(), before);
        p.tr.annotate(t.id(), c);
        p.r.run += s;
        p.r.runEvents += c.events;
        if (cold) {
            p.r.coldEvents += c.events;
            p.r.coldSec += s;
        } else {
            p.r.steadyEvents += c.events;
            p.r.steadySec += s;
        }
    };

    if (p.tr.on()) {
        const Cycle limit = std::min(stop, known_end);
        Cycle at = (sys.eventQueue().now() / kSliceCycles + 1) *
                   kSliceCycles;
        for (; at < limit; at += kSliceCycles) {
            call(at, cold_start);
            cold_start = false;
        }
    }
    call(stop, cold_start);
}

/**
 * Report, check and tear down a finished System. Fails @p op on a
 * golden-value violation, an unclean coherence invariant, or simulated
 * loads + stores that differ from @p records.
 */
RunStats
finishRun(Pass &p, Live live, Op &op, std::uint64_t records)
{
    Timed tr(p.tr, "sim.report");
    const RunStats st = live.sys->report();
    p.r.report += tr.stop();

    Timed ti(p.tr, "sim.invariant");
    const std::optional<std::string> bad =
        live.sys->checkCoherenceInvariant();
    p.r.invariant += ti.stop();

    const std::uint64_t violations = live.sys->valueViolations();
    Timed td(p.tr, "sim.dtor");
    live = Live{};
    p.r.dtor += td.stop();

    const std::uint64_t accesses = st.l1.loads + st.l1.stores;
    p.r.runAccesses += accesses;
    p.r.valueViolations += violations;

    Digest d;
    addProtocolStats(d, st);
    op.digest = d.value();
    op.cycles = st.cycles;
    if (violations != 0)
        op.failure = std::to_string(violations) + " golden-value violations";
    else if (bad)
        op.failure = "coherence invariant: " + *bad;
    else if (accesses != records)
        op.failure = "simulated loads + stores " +
                     std::to_string(accesses) + " != records " +
                     std::to_string(records);
    return st;
}

void
addSim(PassResult &r, const RunStats &st)
{
    r.sim.l1.merge(st.l1);
    r.sim.dir.merge(st.dir);
    r.sim.net.merge(st.net);
    r.sim.kernel.merge(st.kernel);
    r.sim.instructions += st.instructions;
    r.sim.cycles += st.cycles;
}

/** One paper benchmark on one machine: an operation of sweep16/mesh64. */
void
systemOp(Pass &p, const protozoa::BenchSpec &spec, const SystemConfig &mc,
         double scale, double &setup)
{
    Op op;
    op.label = spec.name + "/" + shortName(mc.protocol);
    Timed ot(p.tr, "op", op.label);

    Timed g(p.tr, "workload.gen");
    protozoa::Workload wl = spec.gen(mc, scale);
    const std::uint64_t records = recordsOf(wl);
    const double gen = g.stop({0, records, 0});
    p.r.gen += gen;
    p.r.records += records;

    const double ctor0 = p.r.ctor;
    Live live = construct(p, "sim.ctor", p.r.ctor, mc,
                          [&](auto &) { return std::move(wl); });
    setup += gen + (p.r.ctor - ctor0);

    drive(p, *live.sys, System::kNoStop, p.refCycles(p.r.ops.size()),
          true);
    addSim(p.r, finishRun(p, std::move(live), op, records));
    ot.stop();
    p.addOp(std::move(op));
}

/**
 * sweep16: what fig9-fig15 run. All 28 paper benchmarks x 4 protocols
 * on the 16-core 4x4 machine, one System after another. Set-up heavy:
 * each System preallocates its whole L2/directory.
 */
PassResult
sweep16(const PassConfig &cfg, Tracer &tr, const PassResult *ref)
{
    Pass p(cfg, tr, ref);
    Timed run(tr, "run", "sweep16");
    double setup = 0.0;
    for (const protozoa::BenchSpec &spec : protozoa::paperBenchmarks()) {
        for (ProtocolKind proto : kAllProtocols)
            systemOp(p, spec, machine(proto, 4, 4, cfg.seed), kSweepScale,
                     setup);
    }
    p.r.wall = run.stop();
    p.r.setups.push_back(setup);
    return p.finish();
}

/**
 * mesh64: the event loop. Three sharing patterns on the 8x8
 * fig_scaling machine under MESI and Protozoa-MW: write-shared
 * canneal (recall storms under MW), read-mostly apache, false-shared
 * linear-regression.
 */
PassResult
mesh64(const PassConfig &cfg, Tracer &tr, const PassResult *ref)
{
    static const char *const kBenches[] = {"canneal", "apache",
                                           "linear-regression"};
    Pass p(cfg, tr, ref);
    Timed run(tr, "run", "mesh64");
    double setup = 0.0;
    for (const char *bench : kBenches) {
        for (ProtocolKind proto :
             {ProtocolKind::MESI, ProtocolKind::ProtozoaMW})
            systemOp(p, protozoa::findBenchmark(bench),
                     machine(proto, 8, 8, cfg.seed), kMeshScale, setup);
    }
    p.r.wall = run.stop();
    p.r.setups.push_back(setup);
    return p.finish();
}

/**
 * Write the synthetic stream of @p seed to @p path as PZTR: records are
 * generated into memory first (workload.gen), then appended through a
 * TraceWriter (workload.trace_write). @return the records written.
 */
std::uint64_t
writeTrace(Pass &p, const std::string &path, unsigned cores,
           std::uint64_t seed)
{
    Timed g(p.tr, "workload.gen");
    protozoa::Workload src = protozoa::makeSyntheticStreamWorkload(
        seed, cores, kCheckpointRecordsPerCore);
    std::vector<std::vector<protozoa::TraceRecord>> recs(cores);
    std::uint64_t n = 0;
    for (unsigned c = 0; c < cores; ++c) {
        recs[c].reserve(kCheckpointRecordsPerCore);
        protozoa::TraceRecord rec;
        while (src[c]->next(rec))
            recs[c].push_back(rec);
        n += recs[c].size();
    }
    p.r.gen += g.stop({0, n, 0});

    Timed w(p.tr, "workload.trace_write");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        protozoa::TraceWriter writer(
            out, protozoa::TraceWriter::Format::Binary, cores);
        for (unsigned c = 0; c < cores; ++c) {
            for (const protozoa::TraceRecord &rec : recs[c])
                writer.append(c, rec);
        }
        writer.finish();
        out.close();
        if (!out)
            refuse("cannot write the trace file " + path);
    }
    const std::uint64_t bytes = std::filesystem::file_size(path);
    p.r.traceWrite += w.stop({0, n, bytes});
    p.r.records += n;
    p.r.traceBytes += bytes;
    return n;
}

/**
 * checkpoint: the snapshot and streaming-trace layers. A 16-core
 * Protozoa-MW run streamed from a PZTR trace, once uninterrupted, then
 * again with kCheckpoints checkpoints at fixed fractions of its
 * simulated length. Each checkpoint saves to memory, builds a fresh
 * System on its own trace-file open, restores into it and continues;
 * the chain's final digest must equal the uninterrupted run's.
 */
PassResult
checkpoint(const PassConfig &cfg, Tracer &tr, const PassResult *ref)
{
    constexpr unsigned kCores = 16;
    Pass p(cfg, tr, ref);
    Timed run(tr, "run", "checkpoint");
    const SystemConfig mc = machine(ProtocolKind::ProtozoaMW, 4, 4, cfg.seed);

    const double gen0 = p.r.gen;
    const double write0 = p.r.traceWrite;
    const double ctor0 = p.r.ctor;
    TraceFile trace(cfg.scratchDir, "main");
    const std::uint64_t records = writeTrace(p, trace.path, kCores, cfg.seed);
    // The self-test for the digest check: the chain runs another
    // seed's trace, so its digest must not match.
    std::optional<TraceFile> other;
    if (cfg.inject == Inject::ChainSeed) {
        other.emplace(cfg.scratchDir, "other");
        writeTrace(p, other->path, kCores, cfg.seed + 1);
    }
    const std::string &chainPath = other ? other->path : trace.path;

    Op refOp;
    refOp.label = "uninterrupted";
    {
        Timed ot(tr, "op", refOp.label);
        Live live = construct(p, "sim.ctor", p.r.ctor, mc,
                              fromTraceFile(trace.path));
        drive(p, *live.sys, System::kNoStop, p.refCycles(0), true);
        addSim(p.r, finishRun(p, std::move(live), refOp, records));
        ot.stop();
    }
    const Cycle length = refOp.cycles;
    const std::uint64_t refDigest = refOp.digest;
    p.addOp(std::move(refOp));

    Op chainOp;
    chainOp.label = "chained";
    Timed ct(tr, "op", chainOp.label);
    Live cur = construct(p, "sim.ctor", p.r.ctor, mc,
                         fromTraceFile(chainPath));
    p.r.setups.push_back((p.r.gen - gen0) + (p.r.traceWrite - write0) +
                         (p.r.ctor - ctor0));
    for (unsigned k = 1; k <= kCheckpoints && chainOp.failure.empty();
         ++k) {
        const Cycle stop = length * k / (kCheckpoints + 1);
        drive(p, *cur.sys, stop, stop, k == 1);

        Op rt;
        rt.label = "checkpoint-" + std::to_string(k);
        Timed rtt(tr, "op", rt.label);
        std::string err;
        protozoa::Serializer image;
        Timed ts(tr, "snapshot.save");
        const bool saved = cur.sys->saveSnapshot(image, &err);
        const double save = ts.stop({0, 0, image.size()});
        p.r.save += save;
        p.r.imageBytes += image.size();
        p.r.imageMaxBytes = std::max<std::uint64_t>(p.r.imageMaxBytes,
                                                    image.size());

        double restoreCtor = 0.0;
        Live next = construct(p, "snapshot.restore_ctor", restoreCtor, mc,
                              fromTraceFile(chainPath));
        p.r.restoreCtor += restoreCtor;

        protozoa::Deserializer d(image.bytes().data(), image.size());
        Timed tre(tr, "snapshot.restore");
        const bool restored = saved && next.sys->restoreSnapshot(d, &err);
        const double restore = tre.stop({0, 0, image.size()});
        p.r.restore += restore;
        p.r.roundTrips.push_back(save + restoreCtor + restore);

        Timed td(tr, "sim.dtor");
        cur = Live{};
        p.r.dtor += td.stop();
        cur = std::move(next);
        rtt.stop();

        if (!saved)
            rt.failure = "saveSnapshot: " + err;
        else if (!restored)
            rt.failure = "restoreSnapshot: " + err;
        if (!rt.failure.empty())
            chainOp.failure = "chain stopped at " + rt.label;
        p.addOp(std::move(rt));
    }
    if (chainOp.failure.empty()) {
        drive(p, *cur.sys, System::kNoStop, length, false);
        finishRun(p, std::move(cur), chainOp, records);
        if (chainOp.failure.empty() && chainOp.digest != refDigest)
            chainOp.failure = "chained-restore digest != uninterrupted digest";
    }
    ct.stop();
    p.addOp(std::move(chainOp));
    p.r.wall = run.stop();
    return p.finish();
}

/**
 * protocheck: the check layer. check::explore with its default limits
 * over every non-large library scenario x 4 protocols. Seedless: the
 * search is exhaustive over fixed scenarios. explore() builds its
 * Systems internally, so set-up is measured outside it: building the
 * pair list and one System per pair the way explore() builds its root
 * System.
 */
PassResult
protocheck(const PassConfig &cfg, Tracer &tr, const PassResult *ref)
{
    struct Pair
    {
        const protozoa::check::Scenario *scenario;
        ProtocolKind proto;
        SystemConfig cfg;
    };
    Pass p(cfg, tr, ref);
    Timed run(tr, "run", "protocheck");

    // One set-up builds the pair list and one root System per pair. It
    // is repeated before every pair, so setup_s is a median over the
    // host's state across the pass, not one sub-millisecond moment.
    const auto setUp = [&] {
        Timed g(tr, "workload.gen");
        std::vector<Pair> list;
        std::uint64_t records = 0;
        for (const auto &s : protozoa::check::scenarioLibrary()) {
            if (s.large)
                continue;
            for (ProtocolKind proto : kAllProtocols) {
                list.push_back({&s, proto, s.toConfig(proto)});
                records += s.accesses.size();
            }
        }
        const double gen = g.stop({0, records, 0});
        p.r.gen += gen;
        p.r.records += records;

        double ctor = 0.0;
        for (const Pair &pair : list) {
            Live live = construct(p, "sim.ctor", ctor, pair.cfg, [&](auto &) {
                return emptyWorkload(pair.cfg.numCores);
            });
            Timed td(tr, "sim.dtor");
            live = Live{};
            p.r.dtor += td.stop();
        }
        p.r.ctor += ctor;
        p.r.setups.push_back(gen + ctor);
        return list;
    };

    const std::vector<Pair> pairs = setUp();
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        if (i > 0)
            setUp();
        const Pair &pair = pairs[i];
        Op op;
        op.label = pair.scenario->name + "/" + shortName(pair.proto);
        Timed ot(tr, "op", op.label);
        Timed e(tr, "check.explore");
        const protozoa::check::ExploreResult res =
            protozoa::check::explore(*pair.scenario, pair.proto);
        p.r.explore += e.stop({res.deliveriesExecuted, 0, 0});
        ot.stop();

        CheckTotals &c = p.r.check;
        ++c.pairs;
        c.states += res.statesVisited;
        c.schedules += res.schedulesCompleted;
        c.memoHits += res.memoHits;
        c.porPruned += res.porPruned;
        c.deliveries += res.deliveriesExecuted;

        Digest d;
        d.add(res.statesVisited);
        d.add(res.schedulesCompleted);
        d.add(res.memoHits);
        d.add(res.porPruned);
        d.add(res.porCommutations);
        d.add(res.deliveriesExecuted);
        op.digest = d.value();
        if (res.violation)
            op.failure = "explorer violation (" + res.violation->kind +
                         "): " + res.violation->detail;
        else if (res.budgetExhausted)
            op.failure = "explorer state budget exhausted";
        p.addOp(std::move(op));
    }
    p.r.wall = run.stop();
    return p.finish();
}

} // namespace

const std::vector<BenchWorkload> &
workloads()
{
    static const std::vector<BenchWorkload> all = {
        {"sweep16", true, false, sweep16},
        {"mesh64", true, false, mesh64},
        {"checkpoint", true, true, checkpoint},
        {"protocheck", false, false, protocheck},
    };
    return all;
}

const BenchWorkload *
findWorkload(const std::string &name)
{
    for (const BenchWorkload &w : workloads()) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

} // namespace perfbench
