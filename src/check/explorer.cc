#include "check/explorer.hh"

#include <algorithm>
#include <memory>
#include <span>
#include <sstream>
#include <unordered_map>

#include "check/state_fingerprint.hh"
#include "common/log.hh"
#include "common/serialize.hh"
#include "common/small_vec.hh"
#include "sim/system.hh"

namespace protozoa::check {

namespace {

/**
 * One deliverable channel head at a quiescent point, with everything
 * the POR independence rule needs. A delivery's only effects outside
 * its destination *controller* are on the two global word stores —
 * golden memory (written/validated when an access completes at an L1)
 * and the memory image (fetched/flushed by a directory tile) — and
 * the messages its cascade emits into the destination node's outgoing
 * channels. `golden` and `image` are conservative bitmask footprints
 * over the scenario's region set; `emit` over-approximates the mesh
 * nodes the cascade can send to.
 */
struct ChannelInfo
{
    unsigned src = 0;
    unsigned dst = 0;
    bool dstIsDir = false;
    MsgType type = MsgType::ACK;
    Addr region = 0;
    WordRange range;
    /** Golden-memory words (footprint-region-major word bits). */
    std::uint64_t golden = 0;
    /** Memory-image regions (footprint-region bits). */
    std::uint64_t image = 0;
    /** Mesh nodes the delivery cascade can emit messages to. */
    CoreSet emit;
};

/**
 * Multi-word (src,dst)-channel bitmask for sleep sets and memo masks —
 * CoreSet's widening applied to the POR plane. A mesh has nodes^2
 * channels, which stopped fitting one uint64 past 8 nodes and used to
 * auto-disable POR on the large-tier 8x8 scenarios; masks are now
 * runtime-sized word arrays (64 words for an 8x8 mesh) with the same
 * bulk word-parallel algebra. The words live inline up to a 16-node
 * mesh, so building and copying the masks of a search step allocates
 * nothing there.
 */
class ChanMask
{
  public:
    ChanMask() = default;
    explicit ChanMask(unsigned bits) { reset(bits); }

    /** Resize to @p bits channels, all clear. */
    void reset(unsigned bits) { w.assign((bits + 63) / 64, 0); }

    bool
    test(unsigned b) const
    {
        return (w[b >> 6] >> (b & 63)) & 1;
    }

    void set(unsigned b) { w[b >> 6] |= std::uint64_t(1) << (b & 63); }

    /** this ⊆ o, one AND-NOT per word. */
    bool
    isSubsetOf(const ChanMask &o) const
    {
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < w.size(); ++i)
            acc |= w[i] & ~o.w[i];
        return acc == 0;
    }

    ChanMask &
    operator|=(const ChanMask &o)
    {
        for (std::size_t i = 0; i < w.size(); ++i)
            w[i] |= o.w[i];
        return *this;
    }

    ChanMask &
    operator&=(const ChanMask &o)
    {
        for (std::size_t i = 0; i < w.size(); ++i)
            w[i] &= o.w[i];
        return *this;
    }

  private:
    SmallVec<std::uint64_t, 4> w;
};

/**
 * Two channel heads commute when delivering them in either order
 * reaches the same quiescent state. They must target different
 * controllers (an L1 and its co-located directory tile are distinct
 * controllers sharing a node) and touch disjoint global-memory
 * footprints: an L1-bound delivery never touches the memory image
 * and a directory-bound one never touches golden memory, so the two
 * planes are tested independently. Controller state changes are then
 * confined to the respective destinations, and the only remaining
 * interaction is through emitted messages. A cascade's emissions all
 * originate at the delivery's destination node, so two heads bound
 * for different nodes can never emit into the same (src,dst) channel
 * and commute outright; a co-located L1/dir pair additionally needs
 * disjoint emission *targets* — per-pair FIFO channels are node-
 * granular, so one message into a channel the sibling also feeds
 * would be ordered differently by the two delivery orders.
 */
bool
independent(const ChannelInfo &a, const ChannelInfo &b)
{
    if (a.dst == b.dst && a.dstIsDir == b.dstIsDir)
        return false; // same controller
    if ((a.golden & b.golden) != 0 || (a.image & b.image) != 0)
        return false;
    if (a.dst != b.dst)
        return true; // emissions originate at different nodes
    return !a.emit.intersects(b.emit);
}

/** Describe the delivery of channel head @p ci, for a counterexample. */
ScheduleStep
describe(const ChannelInfo &ci)
{
    ScheduleStep step;
    step.src = ci.src;
    step.dst = ci.dst;
    std::ostringstream os;
    os << msgTypeName(ci.type) << " region=0x" << std::hex << ci.region
       << std::dec << " words=" << ci.range.toString() << " n" << ci.src
       << " -> " << (ci.dstIsDir ? "dir" : "l1") << ci.dst;
    step.desc = os.str();
    return step;
}

/**
 * Attach the path to @p v: the choice indices and one description per
 * delivered head. Descriptions are built here, for a returned
 * violation only.
 */
Violation
withPath(Violation v, const std::vector<unsigned> &path,
         const std::vector<ChannelInfo> &delivered)
{
    v.schedule = path;
    v.steps.reserve(delivered.size());
    for (const ChannelInfo &ci : delivered)
        v.steps.push_back(describe(ci));
    return v;
}

/**
 * One live execution of a scenario: a System driven access-by-access,
 * advanced from quiescent point to quiescent point by delivering one
 * parked message at a time, and sent back to an earlier quiescent
 * point by restoring its image in place. Heap-allocated and pinned:
 * the System's access sink captures `this`.
 */
class Run
{
  public:
    /** Issue the scenario's first accesses and run to the root
     *  quiescent point. */
    Run(const Scenario &s, ProtocolKind proto)
        : scenario(s), cfg(s.toConfig(proto)),
          sys(cfg, emptyWorkload(cfg.numCores))
    {
        perCore.resize(cfg.numCores);
        for (std::size_t i = 0; i < s.accesses.size(); ++i)
            perCore[s.accesses[i].core].push_back(i);
        issued.assign(cfg.numCores, 0);
        completed.assign(cfg.numCores, 0);
        regions = s.regionFootprint();
        for (Addr r : regions)
            homeTiles.set(static_cast<CoreId>(cfg.homeTileOf(r)));
        allNodes = CoreSet::firstN(cfg.numCores);
        // Each completed access chains into the core's next scenario
        // access; a restored image resumes through the same sink.
        sys.setAccessSink([this](CoreId c, std::uint64_t) {
            ++completed[c];
            issueNext(c);
        });

        for (CoreId c = 0; c < cfg.numCores; ++c)
            issueNext(c);
        quiesce();
    }

    Run(const Run &) = delete;
    Run &operator=(const Run &) = delete;

    /**
     * Serialize this quiescent point into @p out, reusing its
     * capacity: the scenario-issue progress counters, then the full
     * system image (last, so the snapshot layer's trailing-bytes check
     * ends it).
     */
    void
    snapshot(std::vector<std::uint8_t> &out) const
    {
        Serializer s(std::move(out));
        for (std::size_t v : issued)
            s.writeU64(v);
        for (unsigned v : completed)
            s.writeU64(v);
        std::string err;
        if (!sys.saveSnapshot(s, &err))
            panic("explorer snapshot failed: %s", err.c_str());
        out = s.take();
    }

    /**
     * Return this run, in place, to the quiescent point @p img holds.
     * It was taken at a checked point, so no cascade livelocked there.
     */
    void
    restore(const std::vector<std::uint8_t> &img)
    {
        Deserializer d(img);
        for (std::size_t c = 0; c < issued.size(); ++c)
            issued[c] = static_cast<std::size_t>(d.readU64());
        for (std::size_t c = 0; c < completed.size(); ++c)
            completed[c] = static_cast<unsigned>(d.readU64());
        std::string err;
        if (!sys.restoreSnapshot(d, &err))
            panic("explorer snapshot restore failed: %s", err.c_str());
        livelocked = false;
        quiesce();
    }

    /** Deliverable channel heads at this quiescent point, canonical. */
    const std::vector<ChannelInfo> &frontier() const { return front; }

    /** Mesh nodes (channel ids are src * nodes + dst). */
    unsigned nodes() const { return cfg.numCores; }

    /** Deliver the head of frontier channel @p k and run to quiescence. */
    void
    step(unsigned k)
    {
        sys.deliverParked(front[k].src, front[k].dst);
        quiesce();
    }

    std::uint64_t
    fingerprint()
    {
        return fingerprintSystem(sys, regions, completed, fpScratch);
    }

    /**
     * Run the invariant oracles. @p terminal marks an empty frontier,
     * where unfinished work means deadlock rather than in-flight state.
     */
    std::optional<Violation>
    check(bool terminal)
    {
        if (livelocked) {
            Violation v;
            v.kind = "livelock";
            v.detail = "delivery cascade still busy after " +
                       std::to_string(kMaxCascadeEvents) +
                       " events without reaching quiescence";
            return v;
        }
        if (auto err = sys.checkCoherenceInvariant()) {
            Violation v;
            v.kind = "swmr";
            v.detail = *err;
            return v;
        }
        if (sys.valueViolations() > 0) {
            Violation v;
            v.kind = "value";
            std::ostringstream os;
            GoldenMemory &g = sys.goldenMemory();
            os << "load of 0x" << std::hex << g.lastViolationAddr()
               << " observed 0x" << g.lastObservedValue()
               << ", golden memory expects 0x" << g.lastExpectedValue();
            v.detail = os.str();
            return v;
        }
        for (CoreId c = 0; c < cfg.numCores; ++c) {
            std::optional<Violation> bad;
            sys.l1(c).cacheStorage().forEach([&](const AmoebaBlock &b) {
                if (bad)
                    return;
                const TileId home =
                    static_cast<TileId>(cfg.homeTileOf(b.region));
                if (sys.dir(home).view(b.region).present ||
                    sys.dir(home).hasActiveTxn(b.region))
                    return;
                Violation v;
                v.kind = "inclusion";
                std::ostringstream os;
                os << "core " << unsigned(c) << " caches region 0x"
                   << std::hex << b.region
                   << " unknown to its home directory tile "
                   << std::dec << unsigned(home);
                v.detail = os.str();
                bad = std::move(v);
            });
            if (bad)
                return bad;
        }
        if (terminal) {
            if (auto v = deadlockCheck())
                return v;
        }
        return std::nullopt;
    }

  private:
    std::optional<Violation>
    deadlockCheck()
    {
        std::ostringstream os;
        bool stuck = false;
        for (CoreId c = 0; c < cfg.numCores; ++c) {
            if (completed[c] < perCore[c].size()) {
                os << " core " << unsigned(c) << " finished "
                   << completed[c] << "/" << perCore[c].size()
                   << " accesses;";
                stuck = true;
            }
            if (sys.l1(c).mshrFile().size() > 0) {
                os << " core " << unsigned(c) << " has an outstanding "
                   << "MSHR;";
                stuck = true;
            }
            if (sys.l1(c).writebackBuffer().pendingCount() > 0) {
                os << " core " << unsigned(c)
                   << " has an unacknowledged writeback;";
                stuck = true;
            }
        }
        for (TileId t = 0; t < cfg.l2Tiles; ++t) {
            bool active = false;
            sys.dir(t).forEachTxn(
                [&](Addr, const DirController::Txn &) { active = true; });
            if (active) {
                os << " tile " << unsigned(t)
                   << " has an active transaction;";
                stuck = true;
            }
        }
        if (!stuck)
            return std::nullopt;
        Violation v;
        v.kind = "deadlock";
        v.detail = "no deliverable message left but:" + os.str();
        return v;
    }

    void
    issueNext(CoreId c)
    {
        if (issued[c] >= perCore[c].size())
            return;
        const ScenarioAccess &sa = scenario.accesses[perCore[c][issued[c]]];
        ++issued[c];
        MemAccess acc;
        acc.addr = sa.addr;
        acc.isWrite = sa.isWrite;
        acc.storeValue = sa.value;
        acc.pc = sa.pc;
        sys.l1(c).requestAccess(acc);
    }

    /** Footprint index of @p region, or regions.size() if unknown. */
    std::size_t
    regionIndex(Addr region) const
    {
        const auto it =
            std::lower_bound(regions.begin(), regions.end(), region);
        if (it != regions.end() && *it == region)
            return static_cast<std::size_t>(it - regions.begin());
        return regions.size();
    }

    /**
     * Golden-memory words a DATA grant to core @p c (for @p dregion
     * words @p drange) can touch. Delivering the grant completes the
     * outstanding access and a chain of local hits can complete
     * following ones — but only while each access's word is available
     * locally: a word neither resident in the L1 now nor carried by
     * this grant cannot be read or written without *another* delivery
     * (whose own footprint covers the later effects), so the chain —
     * and the mask — stops at the first such access. Availability is
     * over-approximated (any resident block counts, regardless of
     * permissions or later evictions), which only adds dependence.
     */
    std::uint64_t
    goldenFootprint(CoreId c, Addr dregion, const WordRange &drange)
    {
        const unsigned rw = cfg.regionWords();
        if (regions.size() * rw > 64)
            return ~std::uint64_t(0); // footprint too wide: pessimize

        std::uint64_t avail = 0;
        const auto addWords = [&](Addr region, std::uint64_t words) {
            const std::size_t r = regionIndex(region);
            if (r < regions.size())
                avail |= words << (r * rw);
        };
        addWords(dregion, drange.mask());
        sys.l1(c).cacheStorage().forEach([&](const AmoebaBlock &b) {
            addWords(b.region, b.range.mask());
        });

        std::uint64_t mask = 0;
        for (std::size_t i = completed[c]; i < perCore[c].size(); ++i) {
            const ScenarioAccess &a =
                scenario.accesses[perCore[c][i]];
            const std::size_t r =
                regionIndex(regionBase(a.addr, cfg.regionBytes));
            const unsigned bit = static_cast<unsigned>(r) * rw +
                wordIndexIn(a.addr, cfg.regionBytes);
            if (((avail >> bit) & 1) == 0)
                break; // next completion needs another delivery
            mask |= std::uint64_t(1) << bit;
        }
        return mask;
    }

    /**
     * Memory-image regions a delivery to directory tile @p tile for
     * @p region can fetch or flush: the region itself plus every
     * scenario region homed on the tile in the same L2 set — any of
     * them can become a recall victim or be dispatched from the
     * pinned-set deferral queue inside this delivery's cascade.
     */
    std::uint64_t
    imageFootprint(Addr region, unsigned tile)
    {
        if (regions.size() > 64)
            return ~std::uint64_t(0);
        std::uint64_t mask = 0;
        const DirController &d = sys.dir(static_cast<TileId>(tile));
        const unsigned set = d.setIndexOf(region);
        for (std::size_t r = 0; r < regions.size(); ++r) {
            if (regions[r] != region &&
                (cfg.homeTileOf(regions[r]) != tile ||
                 d.setIndexOf(regions[r]) != set))
                continue;
            mask |= std::uint64_t(1) << r;
        }
        return mask;
    }

    /**
     * Mesh nodes an L1-bound delivery's cascade can emit to. Every
     * message an L1 originates — UNBLOCK, eviction PUTs, request
     * (re)issues from chained accesses, probe responses — goes to the
     * home tile of some footprint region, except that under 3-hop
     * forwarding a probe makes the owner supply DATA directly to the
     * requesting core, which can be any node.
     */
    CoreSet
    l1EmitTargets(MsgType type) const
    {
        if (cfg.threeHop &&
            (type == MsgType::FWD_GETS || type == MsgType::FWD_GETX ||
             type == MsgType::INV))
            return allNodes | homeTiles;
        return homeTiles;
    }

    /**
     * Mesh nodes a directory-bound delivery's cascade can emit to,
     * from the delivered message plus current directory ownership. A
     * PUT answers its evictor and nothing else (it never probes and
     * never drains the deferral queue), so it gets an exact singleton.
     * Anything else can probe the readers/writers of any entry in the
     * delivered region's L2 set (recall victims included), answer the
     * requester of any active transaction, and — through finishTxn's
     * queue drain — re-dispatch any queued request, whose own probes
     * stay within the same set by the pinned-set deferral rule. A
     * Bloom directory's probe set is a superset of the true sharers
     * bounded only by the filter, so it pessimizes to every core.
     */
    CoreSet
    dirEmitTargets(unsigned tile, Addr region, unsigned src, MsgType type)
    {
        DirController &d = sys.dir(static_cast<TileId>(tile));
        const bool request = type == MsgType::GETS ||
                             type == MsgType::GETX || type == MsgType::PUT;
        // A request for a region with an active transaction parks in
        // the deferral queue — no emissions at all. The classification
        // is stable for as long as this head can stay asleep: any
        // delivery to this tile is same-controller dependent and
        // wakes it, and no other delivery changes the active set.
        if (request && d.hasActiveTxn(region))
            return CoreSet();
        CoreSet m;
        m.set(static_cast<CoreId>(src));
        if (type == MsgType::PUT)
            return m;
        if (cfg.directory == DirectoryKind::TaglessBloom)
            return allNodes | homeTiles;
        const unsigned set = d.setIndexOf(region);
        d.forEachEntry([&](const DirController::EntrySnap &e) {
            if (e.setIndex == set) {
                m |= e.readers;
                m |= e.writers;
            }
        });
        d.forEachTxn([&](Addr, const DirController::Txn &t) {
            m.set(t.requester);
        });
        d.forEachWaitingMsg([&](Addr, const CoherenceMsg &w) {
            m.set(w.sender);
            m.set(w.requester);
        });
        return m;
    }

    /** Drain the event queue, then recompute the frontier. */
    void
    quiesce()
    {
        // Bounded drain: a delivery cascade that never quiesces is a
        // protocol livelock (e.g. a retry loop that makes no
        // progress). Far beyond any legal cascade for <=16-access
        // scenarios, so a trip is a genuine bug, reported via
        // check(), not a tuning knob.
        std::uint64_t steps = 0;
        while (sys.step()) {
            if (++steps > kMaxCascadeEvents) {
                livelocked = true;
                break;
            }
        }
        front.clear();
        sys.mesh().forEachParkedChannel(
            [&](unsigned src, unsigned dst,
                std::span<const Mesh::Parked> chan) {
                const CoherenceMsg &m = chan.front().value;
                ChannelInfo ci;
                ci.src = src;
                ci.dst = dst;
                ci.dstIsDir = m.dstIsDir;
                ci.type = m.type;
                ci.region = m.region;
                ci.range = m.range;
                if (m.dstIsDir) {
                    ci.image = imageFootprint(m.region, dst);
                    ci.emit = dirEmitTargets(dst, m.region, src, m.type);
                } else {
                    // A DATA grant completes the core's access and can
                    // chain into its next ones.
                    if (m.type == MsgType::DATA)
                        ci.golden = goldenFootprint(
                            static_cast<CoreId>(dst), m.region, m.range);
                    ci.emit = l1EmitTargets(m.type);
                }
                front.push_back(ci);
            });
    }

    static constexpr std::uint64_t kMaxCascadeEvents = 1000000;

    const Scenario &scenario;
    const SystemConfig cfg;
    System sys;
    /** One cascade blew kMaxCascadeEvents: protocol livelock. */
    bool livelocked = false;

    /** Scenario access indices per core, in program order. */
    std::vector<std::vector<std::size_t>> perCore;
    std::vector<std::size_t> issued;
    std::vector<unsigned> completed;
    std::vector<Addr> regions;
    /** Home-tile node bits of every footprint region. */
    CoreSet homeTiles;
    /** All core-node bits (3-hop / Bloom emission pessimization). */
    CoreSet allNodes;

    /** Non-empty channels at the current quiescent point, canonical. */
    std::vector<ChannelInfo> front;
    FingerprintScratch fpScratch;
};

} // namespace

ExploreResult
explore(const Scenario &s, ProtocolKind proto, const ExploreLimits &lim)
{
    ExploreResult res;
    // Fingerprint -> intersection of the sleep masks it was expanded
    // under. A revisit is covered iff its sleep mask is a superset of
    // the stored mask: prior visits explored every enabled channel
    // outside the stored mask, which includes everything this visit
    // would explore.
    std::unordered_map<std::uint64_t, ChanMask> memo;
    std::unordered_map<std::uint64_t, bool> seen; // fingerprint set

    /**
     * One expanded quiescent point on the DFS stack. Levels are kept
     * when the search backs out of them: the next state expanded at
     * the same depth reuses the level's buffers in place.
     */
    struct Level
    {
        std::vector<ChannelInfo> frontier;
        /** Explorable frontier indices (not asleep on entry). */
        std::vector<unsigned> order;
        /** Position in `order` currently being explored. */
        std::size_t pos = 0;
        /** Sleep mask (channel-id bits) this state was entered with. */
        ChanMask sleepIn;
        /** Channel-id bits of already fully explored siblings. */
        ChanMask explored;
        /** This quiescent point's image (snapshot backtracking). */
        std::vector<std::uint8_t> snap;
    };
    /** stack[0, path.size()) is the DFS stack; the rest are spare
     *  levels. */
    std::vector<Level> stack;
    std::vector<unsigned> path;
    /** The channel head delivered at each step of `path`. */
    std::vector<ChannelInfo> delivered;

    // One run for the whole search: snapshot backtracking restores
    // each branch point into it; the replay backtracker rebuilds it.
    auto run = std::make_unique<Run>(s, proto);
    const unsigned nodes = run->nodes();
    // One sleep bit per (src,dst) channel: nodes^2 bits, multi-word
    // (ChanMask), so POR stays on for every supported geometry —
    // 64-node 8x8 scenarios included, where the old single-uint64
    // bitmap forced full enumeration.
    const unsigned chanBits = nodes * nodes;
    const bool por = lim.por;
    const auto chanIndex = [nodes](const ChannelInfo &c) {
        return c.src * nodes + c.dst;
    };
    // Sleep set of the next explored child: every earlier-explored or
    // inherited-asleep channel that commutes with the chosen delivery
    // stays asleep below it; dependent channels wake up.
    const auto childSleep = [&](ChanMask &out, const Level &lv,
                                unsigned k) {
        out.reset(chanBits);
        if (!por)
            return;
        ChanMask candidates = lv.sleepIn;
        candidates |= lv.explored;
        const ChannelInfo &chosen = lv.frontier[k];
        for (const ChannelInfo &c : lv.frontier) {
            if (&c == &chosen || !candidates.test(chanIndex(c)))
                continue;
            if (independent(c, chosen)) {
                out.set(chanIndex(c));
                ++res.porCommutations;
            }
        }
    };

    ChanMask sleep(chanBits); // mask entering the current state
    std::vector<unsigned> order;

    for (;;) {
        const std::vector<ChannelInfo> &frontier = run->frontier();
        const unsigned width = static_cast<unsigned>(frontier.size());
        if (auto v = run->check(width == 0)) {
            res.violation = withPath(std::move(*v), path, delivered);
            return res;
        }

        bool leaf = (width == 0);
        if (leaf)
            ++res.schedulesCompleted;

        order.clear();
        if (!leaf) {
            for (unsigned k = 0; k < width; ++k) {
                if (por && sleep.test(chanIndex(frontier[k]))) {
                    ++res.porPruned;
                    continue;
                }
                order.push_back(k);
            }
            // Every enabled delivery is asleep: each commutes with an
            // already-explored sibling schedule that covers this
            // subtree, so the state is a cut, not a completed leaf.
            if (order.empty())
                leaf = true;
        }

        // Only memoization of a state to expand and the collected set
        // read the fingerprint.
        const bool memoize = !leaf && lim.memo;
        if (memoize || lim.collectFingerprints) {
            const std::uint64_t fp = run->fingerprint();
            if (lim.collectFingerprints)
                seen.emplace(fp, true);
            if (memoize) {
                auto [it, fresh] = memo.try_emplace(fp, sleep);
                if (!fresh) {
                    if (it->second.isSubsetOf(sleep)) {
                        ++res.memoHits;
                        leaf = true;
                    } else {
                        it->second &= sleep;
                    }
                }
            }
        }

        if (!leaf) {
            if (++res.statesVisited > lim.maxStates ||
                path.size() >= lim.maxDepth) {
                res.budgetExhausted = true;
                break;
            }
            if (path.size() == stack.size())
                stack.emplace_back();
            Level &lv = stack[path.size()];
            lv.frontier = frontier;
            std::swap(lv.order, order);
            lv.pos = 0;
            lv.sleepIn = sleep;
            lv.explored.reset(chanBits);
            if (lim.snapshotBacktrack && lv.order.size() > 1)
                run->snapshot(lv.snap);
            const unsigned k = lv.order[0];
            childSleep(sleep, lv, k);
            path.push_back(k);
            delivered.push_back(frontier[k]);
            run->step(k);
            ++res.deliveriesExecuted;
            continue;
        }

        // Backtrack to the deepest level with an untried choice, then
        // restore its image into the run, or rebuild a fresh run and
        // replay the prefix (deterministic).
        bool done = false;
        for (;;) {
            if (path.empty()) {
                done = true;
                break;
            }
            Level &lv = stack[path.size() - 1];
            if (por)
                lv.explored.set(chanIndex(lv.frontier[lv.order[lv.pos]]));
            ++lv.pos;
            if (lv.pos < lv.order.size())
                break;
            path.pop_back();
            delivered.pop_back();
        }
        if (done)
            break;
        Level &lv = stack[path.size() - 1];
        const unsigned k = lv.order[lv.pos];
        path.back() = k;
        if (lim.snapshotBacktrack) {
            // One in-place restore replaces the whole prefix replay.
            run->restore(lv.snap);
        } else {
            run = std::make_unique<Run>(s, proto);
            for (std::size_t i = 0; i + 1 < path.size(); ++i) {
                run->step(path[i]);
                ++res.deliveriesExecuted;
            }
        }
        childSleep(sleep, lv, k);
        delivered.back() = run->frontier()[k];
        run->step(k);
        ++res.deliveriesExecuted;
    }

    if (lim.collectFingerprints) {
        res.fingerprints.reserve(seen.size());
        for (const auto &kv : seen)
            res.fingerprints.push_back(kv.first);
        std::sort(res.fingerprints.begin(), res.fingerprints.end());
    }
    return res;
}

std::optional<Violation>
replaySchedule(const Scenario &s, ProtocolKind proto,
               const std::vector<unsigned> &prefix)
{
    auto run = std::make_unique<Run>(s, proto);
    std::vector<unsigned> path;
    std::vector<ChannelInfo> delivered;
    std::size_t i = 0;
    const ExploreLimits lim;
    for (;;) {
        const unsigned width =
            static_cast<unsigned>(run->frontier().size());
        if (auto v = run->check(width == 0))
            return withPath(std::move(*v), path, delivered);
        if (width == 0 || path.size() >= lim.maxDepth)
            return std::nullopt;
        unsigned k = (i < prefix.size()) ? prefix[i] : 0;
        if (k >= width)
            k = 0;
        ++i;
        path.push_back(k);
        delivered.push_back(run->frontier()[k]);
        run->step(k);
    }
}

} // namespace protozoa::check
