/**
 * @file
 * Unit and system tests for the Sec. 6 Bloom-summarized directory:
 * filter semantics (no false negatives, exact add/remove pairing) and
 * whole-system equivalence — a Bloom directory must never change
 * results, only add NACKed probes.
 */

#include <gtest/gtest.h>

#include "protocol/bloom_directory.hh"
#include "protozoa/protozoa.hh"
#include "sim/random_tester.hh"

namespace protozoa {
namespace {

TEST(CountingBloomSharers, AddQueryRemove)
{
    CountingBloomSharers bloom(64, 2, 16);
    const Addr region = 0x1000;

    EXPECT_FALSE(bloom.mayHold(region, 3));
    bloom.add(region, 3);
    EXPECT_TRUE(bloom.mayHold(region, 3));
    EXPECT_TRUE(bloom.query(region).test(3));

    bloom.remove(region, 3);
    EXPECT_FALSE(bloom.mayHold(region, 3));
    EXPECT_TRUE(bloom.query(region).none());
}

TEST(CountingBloomSharers, NoFalseNegativesUnderAliasing)
{
    CountingBloomSharers bloom(8, 2, 16);   // tiny: heavy aliasing
    std::vector<Addr> regions;
    for (unsigned i = 0; i < 64; ++i)
        regions.push_back(0x4000 + i * 64);

    for (Addr r : regions)
        bloom.add(r, static_cast<CoreId>(r / 64 % 16));
    for (Addr r : regions)
        EXPECT_TRUE(bloom.mayHold(r, static_cast<CoreId>(r / 64 % 16)));
}

TEST(CountingBloomSharers, RemovalRestoresEmptiness)
{
    CountingBloomSharers bloom(8, 2, 4);
    std::vector<std::pair<Addr, CoreId>> members;
    for (unsigned i = 0; i < 32; ++i)
        members.push_back({0x8000 + i * 64,
                           static_cast<CoreId>(i % 4)});
    for (auto [r, c] : members)
        bloom.add(r, c);
    for (auto [r, c] : members)
        bloom.remove(r, c);
    for (auto [r, c] : members)
        EXPECT_FALSE(bloom.mayHold(r, c));
}

TEST(CountingBloomSharers, PerCoreIndependence)
{
    CountingBloomSharers bloom(64, 2, 16);
    bloom.add(0x1000, 2);
    bloom.add(0x1000, 9);
    EXPECT_TRUE(bloom.mayHold(0x1000, 2));
    EXPECT_TRUE(bloom.mayHold(0x1000, 9));
    EXPECT_FALSE(bloom.mayHold(0x1000, 3));
    bloom.remove(0x1000, 2);
    EXPECT_FALSE(bloom.mayHold(0x1000, 2));
    EXPECT_TRUE(bloom.mayHold(0x1000, 9));
}

TEST(CountingBloomSharers, DoubleAddNeedsDoubleRemove)
{
    CountingBloomSharers bloom(64, 2, 16);
    bloom.add(0x2000, 1);
    bloom.add(0x2000, 1);
    bloom.remove(0x2000, 1);
    EXPECT_TRUE(bloom.mayHold(0x2000, 1));
    bloom.remove(0x2000, 1);
    EXPECT_FALSE(bloom.mayHold(0x2000, 1));
}

TEST(CountingBloomSharers, StorageBits)
{
    CountingBloomSharers bloom(256, 2, 16);
    EXPECT_EQ(bloom.storageBits(), 256u * 2 * 16);
}

TEST(CountingBloomSharersDeath, UnderflowPanics)
{
    CountingBloomSharers bloom(64, 2, 16);
    EXPECT_DEATH(bloom.remove(0x3000, 0), "underflow");
}

/** Bloom tracking changes traffic, never results or correctness. */
TEST(BloomDirectorySystem, SameMissesMoreProbes)
{
    auto runWith = [](DirectoryKind dir, unsigned buckets) {
        SystemConfig cfg;
        cfg.protocol = ProtocolKind::ProtozoaMW;
        cfg.directory = dir;
        cfg.bloomBuckets = buckets;
        const BenchSpec &spec = findBenchmark("histogram");
        System sys(cfg, spec.gen(cfg, 0.3));
        sys.run();
        EXPECT_EQ(sys.valueViolations(), 0u);
        EXPECT_FALSE(sys.checkCoherenceInvariant().has_value());
        return sys.report();
    };

    const RunStats exact = runWith(DirectoryKind::InCacheExact, 256);
    const RunStats bloom_small = runWith(DirectoryKind::TaglessBloom, 16);

    // The protocol outcome is essentially unchanged (extra probes
    // only perturb timing, so interleavings may shift marginally)...
    EXPECT_NEAR(static_cast<double>(bloom_small.l1.misses),
                static_cast<double>(exact.l1.misses),
                0.01 * static_cast<double>(exact.l1.misses));
    EXPECT_EQ(exact.dir.bloomFalseProbes, 0u);
    // ...but an under-provisioned filter pays false-positive probes.
    EXPECT_GT(bloom_small.dir.bloomFalseProbes, 0u);
    EXPECT_GE(bloom_small.l1.invMsgsReceived, exact.l1.invMsgsReceived);
}

TEST(BloomDirectorySystem, LargeFilterApproachesExact)
{
    auto falseProbes = [](unsigned buckets) {
        SystemConfig cfg;
        cfg.protocol = ProtocolKind::ProtozoaMW;
        cfg.directory = DirectoryKind::TaglessBloom;
        cfg.bloomBuckets = buckets;
        const BenchSpec &spec = findBenchmark("histogram");
        System sys(cfg, spec.gen(cfg, 0.3));
        sys.run();
        return sys.report().dir.bloomFalseProbes;
    };
    EXPECT_LE(falseProbes(4096), falseProbes(16));
}

TEST(BloomDirectorySystem, FuzzCleanUnderAllProtocols)
{
    for (auto protocol :
         {ProtocolKind::MESI, ProtocolKind::ProtozoaSW,
          ProtocolKind::ProtozoaSWMR, ProtocolKind::ProtozoaMW}) {
        SystemConfig cfg;
        cfg.protocol = protocol;
        cfg.directory = DirectoryKind::TaglessBloom;
        cfg.bloomBuckets = 32;   // plenty of aliasing
        cfg.l1Sets = 4;
        cfg.l2BytesPerTile = 4096;

        Rng rng(99);
        TraceBuilder tb(cfg.numCores, 3);
        for (unsigned c = 0; c < cfg.numCores; ++c) {
            for (unsigned i = 0; i < 1200; ++i) {
                const Addr a = 0x40000000 +
                    rng.below(16 * 8) * kWordBytes;
                if (rng.chance(0.4))
                    tb.store(c, a, 0x10 + 4 * (i % 8), 2);
                else
                    tb.load(c, a, 0x10 + 4 * (i % 8), 2);
            }
        }
        System sys(cfg, tb.build());
        sys.enablePeriodicInvariantCheck(64);
        sys.run();
        EXPECT_EQ(sys.valueViolations(), 0u) << protocolName(protocol);
        EXPECT_EQ(sys.invariantViolations(), 0u)
            << protocolName(protocol);
    }
}

} // namespace
} // namespace protozoa
