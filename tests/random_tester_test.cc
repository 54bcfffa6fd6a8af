/**
 * @file
 * Random protocol fuzzing (paper Sec. 3.6). Tiny L1s and L2 tiles
 * force evictions, inclusive recalls, and writeback races; the golden
 * oracle checks every load and the invariant scanner runs frequently.
 */

#include <gtest/gtest.h>

#include "sim/random_tester.hh"

namespace protozoa {
namespace {

struct TesterCase
{
    ProtocolKind protocol;
    std::uint64_t seed;
};

class RandomTesterSweep : public ::testing::TestWithParam<TesterCase>
{
};

TEST_P(RandomTesterSweep, NoViolations)
{
    RandomTester::Params p;
    p.cfg.protocol = GetParam().protocol;
    p.cfg.seed = GetParam().seed;
    p.accessesPerCore = 1500;
    p.regions = 12;
    p.checkPeriod = 50;

    const auto result = RandomTester::run(p);
    EXPECT_EQ(result.valueViolations, 0u);
    EXPECT_EQ(result.invariantViolations, 0u);
    EXPECT_GT(result.stats.l1.misses, 0u);
}

std::vector<TesterCase>
sweepCases()
{
    std::vector<TesterCase> cases;
    for (auto protocol :
         {ProtocolKind::MESI, ProtocolKind::ProtozoaSW,
          ProtocolKind::ProtozoaSWMR, ProtocolKind::ProtozoaMW}) {
        for (std::uint64_t seed = 1; seed <= 5; ++seed)
            cases.push_back({protocol, seed});
    }
    return cases;
}

std::string
caseName(const ::testing::TestParamInfo<TesterCase> &info)
{
    std::string name = protocolName(info.param.protocol);
    for (auto &ch : name) {
        if (ch == '-' || ch == '+')
            ch = '_';
    }
    return name + "_seed" + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(Protocols, RandomTesterSweep,
                         ::testing::ValuesIn(sweepCases()), caseName);

/** Two-region pool: extreme conflict pressure. */
TEST(RandomTesterEdge, TinyRegionPool)
{
    RandomTester::Params p;
    p.cfg.protocol = ProtocolKind::ProtozoaMW;
    p.regions = 2;
    p.accessesPerCore = 1200;
    p.writeFraction = 0.6;
    p.checkPeriod = 16;
    const auto result = RandomTester::run(p);
    EXPECT_EQ(result.valueViolations, 0u);
    EXPECT_EQ(result.invariantViolations, 0u);
}

/** Read-only pool: everyone should end up a stable sharer. */
TEST(RandomTesterEdge, ReadOnlyPool)
{
    RandomTester::Params p;
    p.cfg.protocol = ProtocolKind::ProtozoaMW;
    p.writeFraction = 0.0;
    p.accessesPerCore = 800;
    const auto result = RandomTester::run(p);
    EXPECT_EQ(result.valueViolations, 0u);
    EXPECT_EQ(result.invariantViolations, 0u);
}

/** Write-storm: continuous ownership migration. */
TEST(RandomTesterEdge, WriteStorm)
{
    for (auto protocol :
         {ProtocolKind::ProtozoaSW, ProtocolKind::ProtozoaSWMR,
          ProtocolKind::ProtozoaMW}) {
        RandomTester::Params p;
        p.cfg.protocol = protocol;
        p.writeFraction = 1.0;
        p.accessesPerCore = 1000;
        p.regions = 6;
        p.checkPeriod = 32;
        const auto result = RandomTester::run(p);
        EXPECT_EQ(result.valueViolations, 0u)
            << protocolName(protocol);
        EXPECT_EQ(result.invariantViolations, 0u)
            << protocolName(protocol);
    }
}

/** Alternative predictor policies must be equally correct. */
TEST(RandomTesterEdge, PredictorPolicies)
{
    for (auto predictor :
         {PredictorKind::FullRegion, PredictorKind::Fixed,
          PredictorKind::PcSpatial, PredictorKind::WordOnly}) {
        RandomTester::Params p;
        p.cfg.protocol = ProtocolKind::ProtozoaMW;
        p.cfg.predictor = predictor;
        p.accessesPerCore = 900;
        p.checkPeriod = 40;
        const auto result = RandomTester::run(p);
        EXPECT_EQ(result.valueViolations, 0u);
        EXPECT_EQ(result.invariantViolations, 0u);
    }
}

/**
 * The Spread slice hash through the tester: a 4-core 2x2 machine,
 * every protocol x pattern, jitter off on odd seeds and on (network
 * and occupancy) on even ones.
 */
TEST(RandomTester, SpreadSliceHashRunsClean)
{
    for (auto protocol :
         {ProtocolKind::MESI, ProtocolKind::ProtozoaSW,
          ProtocolKind::ProtozoaSWMR, ProtocolKind::ProtozoaMW}) {
        for (auto pattern :
             {RandomTester::Pattern::Uniform,
              RandomTester::Pattern::FalseShareBoundary,
              RandomTester::Pattern::EvictionPressure,
              RandomTester::Pattern::UpgradeHeavy}) {
            for (std::uint64_t seed = 1; seed <= 4; ++seed) {
                RandomTester::Params p;
                p.cfg.setMesh(2, 2);
                p.cfg.sliceHash = SliceHashKind::Spread;
                p.cfg.protocol = protocol;
                p.cfg.seed = seed;
                p.cfg.faultInjection = seed % 2 == 0;
                p.cfg.occupancyJitter = seed % 2 == 0;
                p.pattern = pattern;
                p.accessesPerCore = 400;
                const auto result = RandomTester::run(p);
                EXPECT_EQ(result.valueViolations, 0u)
                    << protocolName(protocol) << " "
                    << RandomTester::patternName(pattern) << " seed "
                    << seed;
                EXPECT_EQ(result.invariantViolations, 0u)
                    << protocolName(protocol) << " "
                    << RandomTester::patternName(pattern) << " seed "
                    << seed;
            }
        }
    }
}

} // namespace
} // namespace protozoa
