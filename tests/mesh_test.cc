/**
 * @file
 * Unit tests for the 4x4 mesh model: XY hop counts, flit accounting
 * (the Fig. 15 energy proxy), latency, and per-pair FIFO ordering.
 */

#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/event_queue.hh"
#include "noc/mesh.hh"

namespace protozoa {
namespace {

SystemConfig
cfg4x4()
{
    SystemConfig cfg;
    return cfg;
}

TEST(Mesh, HopCountsAreManhattan)
{
    EventQueue eq;
    SystemConfig cfg = cfg4x4();
    Mesh mesh(eq, cfg);

    EXPECT_EQ(mesh.hops(0, 0), 0u);
    EXPECT_EQ(mesh.hops(0, 1), 1u);    // same row
    EXPECT_EQ(mesh.hops(0, 4), 1u);    // same column
    EXPECT_EQ(mesh.hops(0, 5), 2u);    // diagonal neighbour
    EXPECT_EQ(mesh.hops(0, 15), 6u);   // corner to corner
    EXPECT_EQ(mesh.hops(15, 0), 6u);   // symmetric
    EXPECT_EQ(mesh.hops(3, 12), 6u);   // other diagonal
}

TEST(Mesh, FlitsRoundUp)
{
    EventQueue eq;
    SystemConfig cfg = cfg4x4();
    Mesh mesh(eq, cfg);
    EXPECT_EQ(mesh.flitsFor(1), 1u);
    EXPECT_EQ(mesh.flitsFor(16), 1u);
    EXPECT_EQ(mesh.flitsFor(17), 2u);
    EXPECT_EQ(mesh.flitsFor(72), 5u);   // 8B header + 64B data
}

TEST(Mesh, SendAccumulatesStats)
{
    EventQueue eq;
    SystemConfig cfg = cfg4x4();
    Mesh mesh(eq, cfg);

    mesh.send(0, 15, 72, [] {});      // 5 flits x 6 hops
    mesh.send(1, 2, 8, [] {});        // 1 flit x 1 hop
    eq.run();

    const NetStats &s = mesh.netStats();
    EXPECT_EQ(s.messages, 2u);
    EXPECT_EQ(s.bytes, 80u);
    EXPECT_EQ(s.flits, 6u);
    EXPECT_EQ(s.flitHops, 5u * 6u + 1u);
}

TEST(Mesh, LocalDeliveryCountsNoFlitHops)
{
    EventQueue eq;
    SystemConfig cfg = cfg4x4();
    Mesh mesh(eq, cfg);
    bool delivered = false;
    mesh.send(3, 3, 64, [&] { delivered = true; });
    eq.run();
    EXPECT_TRUE(delivered);
    EXPECT_EQ(mesh.netStats().flitHops, 0u);
}

TEST(Mesh, LatencyGrowsWithDistanceAndSize)
{
    EventQueue eq;
    SystemConfig cfg = cfg4x4();
    Mesh mesh(eq, cfg);

    const Cycle near_small = mesh.send(0, 1, 8, [] {});
    const Cycle far_small = mesh.send(0, 15, 8, [] {});
    const Cycle far_big = mesh.send(0, 15, 72, [] {});
    EXPECT_LT(near_small, far_small);
    EXPECT_LT(far_small, far_big);
    eq.run();
}

TEST(Mesh, PerPairFifoOrderIsPreserved)
{
    EventQueue eq;
    SystemConfig cfg = cfg4x4();
    Mesh mesh(eq, cfg);

    std::vector<int> order;
    // A big (slow) message followed by a small (fast) one on the same
    // channel must not reorder.
    mesh.send(0, 15, 1000, [&] { order.push_back(1); });
    mesh.send(0, 15, 8, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Mesh, DistinctPairsMayOvertake)
{
    EventQueue eq;
    SystemConfig cfg = cfg4x4();
    Mesh mesh(eq, cfg);

    std::vector<int> order;
    mesh.send(0, 15, 4000, [&] { order.push_back(1); });  // slow, far
    mesh.send(5, 6, 8, [&] { order.push_back(2); });      // fast, near
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(Mesh, ClearStatsResets)
{
    EventQueue eq;
    SystemConfig cfg = cfg4x4();
    Mesh mesh(eq, cfg);
    mesh.send(0, 1, 8, [] {});
    eq.run();
    EXPECT_GT(mesh.netStats().messages, 0u);
    mesh.clearStats();
    EXPECT_EQ(mesh.netStats().messages, 0u);
    EXPECT_EQ(mesh.netStats().flitHops, 0u);
}

// Satellite regression: clearStats() must also reset the per-pair
// FIFO arrival clamps, or a post-reset fast message would still be
// held behind a pre-reset slow one.
TEST(Mesh, ClearStatsResetsFifoState)
{
    EventQueue eq;
    SystemConfig cfg = cfg4x4();
    Mesh mesh(eq, cfg);

    std::vector<int> order;
    mesh.send(0, 15, 4000, [&] { order.push_back(1); });  // slow
    mesh.clearStats();
    mesh.send(0, 15, 8, [&] { order.push_back(2); });     // fast
    eq.run();
    // With the FIFO clamp reset the fast message is free to arrive
    // on its natural (earlier) schedule.
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

// Under the schedule oracle only non-empty channels exist: they are
// visited in ascending (src,dst) order, each as its FIFO, and a
// delivery takes the head of the chosen channel.
TEST(Mesh, ParkedChannelsAscendingAndFifo)
{
    EventQueue eq;
    SystemConfig cfg = cfg4x4();
    cfg.scheduleOracle = true;
    Mesh mesh(eq, cfg);
    std::vector<Addr> delivered;
    mesh.setDeliverHook(
        [&](CoherenceMsg &&m) { delivered.push_back(m.region); });
    const auto park = [&](unsigned src, unsigned dst, Addr region) {
        CoherenceMsg m;
        m.region = region;
        mesh.park(src, dst, 8, std::move(m));
    };
    park(9, 3, 0x100);
    park(0, 15, 0x200);
    park(9, 3, 0x300);
    park(0, 1, 0x400);
    EXPECT_EQ(mesh.parkedMessages(), 4u);

    std::vector<std::vector<Addr>> chans;
    std::vector<std::pair<unsigned, unsigned>> ids;
    mesh.forEachParkedChannel(
        [&](unsigned src, unsigned dst, std::span<const Mesh::Parked> c) {
            ids.emplace_back(src, dst);
            chans.emplace_back();
            for (const Mesh::Parked &p : c)
                chans.back().push_back(p.region);
        });
    const std::vector<std::pair<unsigned, unsigned>> want_ids = {
        {0, 1}, {0, 15}, {9, 3}};
    EXPECT_EQ(ids, want_ids);
    const std::vector<std::vector<Addr>> want_chans = {
        {0x400}, {0x200}, {0x100, 0x300}};
    EXPECT_EQ(chans, want_chans);

    mesh.deliverParked(9, 3);
    eq.run();
    EXPECT_EQ(delivered, (std::vector<Addr>{0x100}));
    EXPECT_EQ(mesh.parkedMessages(), 3u);
}

// In-flight tracking backs the deadlock watchdog's message census: a
// recorded message is visible until its arrival cycle passes, then
// pruned lazily.
TEST(Mesh, TracksInFlightMessagesUntilArrival)
{
    EventQueue eq;
    SystemConfig cfg = cfg4x4();
    Mesh mesh(eq, cfg);
    mesh.enableTracking();

    const Cycle delay = mesh.send(0, 15, 72, [] {});
    Mesh::QueuedMsg q;
    q.src = 0;
    q.dst = 15;
    q.arrival = eq.now() + delay;
    q.type = "DATA";
    q.region = 0x40;
    q.range = WordRange(0, 7);
    mesh.noteQueued(q);

    unsigned seen = 0;
    mesh.forEachQueued([&](const Mesh::QueuedMsg &m) {
        ++seen;
        EXPECT_EQ(m.src, 0u);
        EXPECT_EQ(m.dst, 15u);
        EXPECT_STREQ(m.type, "DATA");
        EXPECT_EQ(m.region, 0x40u);
    });
    EXPECT_EQ(seen, 1u);

    eq.run();
    eq.schedule(1, [] {});   // advance now past the arrival cycle
    eq.run();
    seen = 0;
    mesh.forEachQueued([&](const Mesh::QueuedMsg &) { ++seen; });
    EXPECT_EQ(seen, 0u);
}

TEST(Mesh, TrackingIsOffByDefault)
{
    EventQueue eq;
    SystemConfig cfg = cfg4x4();
    Mesh mesh(eq, cfg);
    EXPECT_FALSE(mesh.trackingEnabled());

    Mesh::QueuedMsg q;
    q.arrival = 100;
    mesh.noteQueued(q);   // dropped: the measurement path records nothing
    unsigned seen = 0;
    mesh.forEachQueued([&](const Mesh::QueuedMsg &) { ++seen; });
    EXPECT_EQ(seen, 0u);
}

TEST(MeshDeath, RejectsOutOfRangeNodes)
{
    EventQueue eq;
    SystemConfig cfg = cfg4x4();
    Mesh mesh(eq, cfg);
    EXPECT_DEATH(mesh.send(16, 0, 8, [] {}), "out of range");
    EXPECT_DEATH(mesh.send(0, 99, 8, [] {}), "out of range");
}

SystemConfig
jitterCfg(std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.faultInjection = true;
    cfg.faultJitterMax = 16;
    cfg.faultReorderProb = 0.25;
    cfg.seed = seed;
    return cfg;
}

// Fault injection must preserve same-(src,dst) FIFO order: it is the
// one network ordering property the protocol relies on.
TEST(Mesh, JitterPreservesSamePairFifo)
{
    EventQueue eq;
    SystemConfig cfg = jitterCfg(42);
    Mesh mesh(eq, cfg);

    std::vector<int> order;
    for (int i = 0; i < 200; ++i)
        mesh.send(0, 15, 8, [&order, i] { order.push_back(i); });
    eq.run();
    ASSERT_EQ(order.size(), 200u);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(order[i], i);
}

// ... while messages on distinct pairs do get reordered by the long
// holds (that is the point of the injector).
TEST(Mesh, JitterReordersAcrossPairs)
{
    EventQueue eq;
    SystemConfig cfg = jitterCfg(42);
    Mesh mesh(eq, cfg);

    // Same hop count and size for every pair: without injection these
    // deliver in issue order.
    std::vector<int> order;
    for (int i = 0; i < 64; ++i) {
        const unsigned src = i % 4;
        const unsigned dst = 4 + i % 4;
        mesh.send(src, dst, 8, [&order, i] { order.push_back(i); });
    }
    eq.run();
    ASSERT_EQ(order.size(), 64u);
    bool inverted = false;
    for (std::size_t i = 1; i < order.size(); ++i)
        inverted |= order[i] < order[i - 1];
    EXPECT_TRUE(inverted);
}

TEST(Mesh, JitterIsDeterministicPerSeed)
{
    auto schedule = [](std::uint64_t seed) {
        EventQueue eq;
        SystemConfig cfg = jitterCfg(seed);
        Mesh mesh(eq, cfg);
        std::vector<Cycle> lat;
        for (int i = 0; i < 100; ++i)
            lat.push_back(mesh.send(i % 16, (i * 7) % 16, 8, [] {}));
        eq.run();
        return lat;
    };
    EXPECT_EQ(schedule(7), schedule(7));
    EXPECT_NE(schedule(7), schedule(8));
}

// The injector draws from a counter-based hash of (seed, pair, seq),
// so a pair's fault schedule depends only on how many messages that
// pair has carried — not on how sends across different pairs happen to
// interleave globally. A protocol change that reorders sends on other
// pairs therefore leaves each pair's fault schedule unchanged.
TEST(Mesh, JitterScheduleIsOrderIndependentAcrossPairs)
{
    // Two interleavings of the same per-pair send sequences: pairwise
    // round-robin vs all of pair A first, then all of pair B.
    auto latencies = [](bool roundRobin) {
        EventQueue eq;
        SystemConfig cfg = jitterCfg(1234);
        Mesh mesh(eq, cfg);
        std::vector<Cycle> a, b;
        if (roundRobin) {
            for (int i = 0; i < 100; ++i) {
                a.push_back(mesh.send(0, 5, 8, [] {}));
                b.push_back(mesh.send(2, 7, 8, [] {}));
            }
        } else {
            for (int i = 0; i < 100; ++i)
                a.push_back(mesh.send(0, 5, 8, [] {}));
            for (int i = 0; i < 100; ++i)
                b.push_back(mesh.send(2, 7, 8, [] {}));
        }
        eq.run();
        return std::make_pair(a, b);
    };
    EXPECT_EQ(latencies(true), latencies(false));
}

// Committed digest of one fault schedule: any change to the draw
// function, hash constants, or per-pair stream layout shows up here.
// Update kGoldenFaultDigest only for a deliberate injector change.
TEST(Mesh, FaultScheduleDigestIsStable)
{
    constexpr std::uint64_t kGoldenFaultDigest = 0x91f359970e34a7d1ULL;

    EventQueue eq;
    SystemConfig cfg = jitterCfg(42);
    Mesh mesh(eq, cfg);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (int i = 0; i < 256; ++i) {
        const Cycle lat =
            mesh.send(i % 16, (i * 7 + 3) % 16, 8 + 8 * (i % 3), [] {});
        for (unsigned byte = 0; byte < 8; ++byte) {
            h ^= (lat >> (8 * byte)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    eq.run();
    EXPECT_EQ(h, kGoldenFaultDigest)
        << "fault schedule digest changed: 0x" << std::hex << h;
}

TEST(Mesh, InjectionOffMatchesDefaultLatency)
{
    EventQueue eq1, eq2;
    SystemConfig plain = cfg4x4();
    SystemConfig off = jitterCfg(3);
    off.faultInjection = false;
    Mesh a(eq1, plain), b(eq2, off);
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(a.send(i % 16, (i * 5) % 16, 8 + 8 * (i % 4), [] {}),
                  b.send(i % 16, (i * 5) % 16, 8 + 8 * (i % 4), [] {}));
    }
    eq1.run();
    eq2.run();
}

} // namespace
} // namespace protozoa
