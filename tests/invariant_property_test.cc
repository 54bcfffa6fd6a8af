/**
 * @file
 * Property tests: across a configuration matrix (protocol x predictor
 * x region size x cache pressure), random conflict-heavy workloads
 * must preserve the SWMR invariant and load-value correctness, and a
 * cold-start Protozoa with full-region predictions must be
 * message-for-message equivalent to MESI (paper correctness
 * invariant (i)).
 */

#include <gtest/gtest.h>

#include "protocol_driver.hh"
#include "sim/random_tester.hh"

namespace protozoa {
namespace {

struct MatrixCase
{
    ProtocolKind protocol;
    PredictorKind predictor;
    unsigned regionBytes;
    unsigned l1Sets;
};

class ConfigMatrix : public ::testing::TestWithParam<MatrixCase>
{
};

TEST_P(ConfigMatrix, RandomConflictWorkloadStaysCoherent)
{
    const MatrixCase &mc = GetParam();

    SystemConfig cfg;
    cfg.protocol = mc.protocol;
    cfg.predictor = mc.predictor;
    cfg.regionBytes = mc.regionBytes;
    cfg.l1Sets = mc.l1Sets;
    cfg.checkValues = true;

    Rng rng(mc.regionBytes * 131 + mc.l1Sets);
    TraceBuilder tb(cfg.numCores, 17);
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        for (unsigned i = 0; i < 400; ++i) {
            const Addr a =
                0x9000 + rng.below(8 * cfg.regionBytes / kWordBytes) *
                             kWordBytes;
            if (rng.chance(0.45))
                tb.store(c, a, 0x40 + 4 * (i % 8), 1);
            else
                tb.load(c, a, 0x40 + 4 * (i % 8), 1);
        }
    }

    System sys(cfg, tb.build());
    sys.enablePeriodicInvariantCheck(48);
    sys.run();
    EXPECT_EQ(sys.valueViolations(), 0u);
    EXPECT_EQ(sys.invariantViolations(), 0u);
}

std::vector<MatrixCase>
matrix()
{
    std::vector<MatrixCase> cases;
    for (auto protocol :
         {ProtocolKind::MESI, ProtocolKind::ProtozoaSW,
          ProtocolKind::ProtozoaSWMR, ProtocolKind::ProtozoaMW}) {
        for (auto predictor :
             {PredictorKind::PcSpatial, PredictorKind::WordOnly}) {
            for (unsigned region : {32u, 64u, 128u}) {
                cases.push_back({protocol, predictor, region, 8});
            }
        }
        cases.push_back(
            {protocol, PredictorKind::PcSpatial, 64u, 2});  // pressure
    }
    return cases;
}

std::string
matrixName(const ::testing::TestParamInfo<MatrixCase> &info)
{
    std::string name = protocolName(info.param.protocol);
    for (auto &ch : name)
        if (ch == '-' || ch == '+')
            ch = '_';
    name += info.param.predictor == PredictorKind::WordOnly ? "_word"
                                                            : "_pc";
    name += "_r" + std::to_string(info.param.regionBytes);
    name += "_s" + std::to_string(info.param.l1Sets);
    return name;
}

INSTANTIATE_TEST_SUITE_P(Matrix, ConfigMatrix,
                         ::testing::ValuesIn(matrix()), matrixName);

/**
 * Paper invariant (i): "Protozoa mimics MESI's behavior when only a
 * fixed block size is predicted". With the FullRegion predictor every
 * Protozoa variant must produce the same misses, hits, and data bytes
 * as MESI on any workload.
 */
class MesiEquivalence : public ::testing::TestWithParam<ProtocolKind>
{
};

TEST_P(MesiEquivalence, FullRegionPredictionMimicsMesi)
{
    auto runWith = [](ProtocolKind protocol) {
        SystemConfig cfg;
        cfg.protocol = protocol;
        cfg.predictor = PredictorKind::FullRegion;

        Rng rng(5);
        TraceBuilder tb(cfg.numCores, 23);
        for (unsigned c = 0; c < cfg.numCores; ++c) {
            for (unsigned i = 0; i < 600; ++i) {
                const Addr a = 0xa000 + rng.below(256) * kWordBytes;
                if (rng.chance(0.3))
                    tb.store(c, a, 0x60, 2);
                else
                    tb.load(c, a, 0x60, 2);
            }
        }
        System sys(cfg, tb.build());
        sys.run();
        EXPECT_EQ(sys.valueViolations(), 0u);
        return sys.report();
    };

    const RunStats mesi = runWith(ProtocolKind::MESI);
    const RunStats proto = runWith(GetParam());

    EXPECT_EQ(proto.l1.misses, mesi.l1.misses);
    EXPECT_EQ(proto.l1.hits, mesi.l1.hits);
    EXPECT_EQ(proto.l1.dataBytes(), mesi.l1.dataBytes());
    EXPECT_EQ(proto.l1.invMsgsReceived, mesi.l1.invMsgsReceived);
    EXPECT_EQ(proto.cycles, mesi.cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, MesiEquivalence,
    ::testing::Values(ProtocolKind::ProtozoaSW,
                      ProtocolKind::ProtozoaSWMR,
                      ProtocolKind::ProtozoaMW),
    [](const ::testing::TestParamInfo<ProtocolKind> &info) {
        std::string name = protocolName(info.param);
        for (auto &ch : name)
            if (ch == '-' || ch == '+')
                ch = '_';
        return name;
    });

/** The paper's million-access random test, shrunk for CI but still
 *  substantial: 16 cores x 4k accesses x 4 protocols. */
TEST(MillionAccessStyle, AllProtocolsSurviveLongFuzz)
{
    for (auto protocol :
         {ProtocolKind::MESI, ProtocolKind::ProtozoaSW,
          ProtocolKind::ProtozoaSWMR, ProtocolKind::ProtozoaMW}) {
        RandomTester::Params p;
        p.cfg.protocol = protocol;
        p.accessesPerCore = 4000;
        p.regions = 24;
        p.checkPeriod = 256;
        p.cfg.seed = 1234;
        const auto result = RandomTester::run(p);
        EXPECT_EQ(result.valueViolations, 0u) << protocolName(protocol);
        EXPECT_EQ(result.invariantViolations, 0u)
            << protocolName(protocol);
    }
}

/** Insert a block of @p region into @p core's L1 (no room check). */
void
plant(System &sys, CoreId core, Addr region, unsigned start, unsigned end,
      BlockState st)
{
    AmoebaBlock blk;
    blk.region = region;
    blk.range = WordRange(start, end);
    blk.state = st;
    blk.words.assign(blk.range.words(), 0);
    sys.l1(core).cacheStorage().insert(blk);
}

/** Region-granularity invariant: under MESI/SW a writer excludes all
 *  other holders of the region, not just overlapping ones. */
TEST(InvariantChecker, DetectsViolationsWhenSeeded)
{
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaMW;
    System sys(cfg, emptyWorkload(cfg.numCores));

    // Manufacture an illegal state directly in the storage.
    plant(sys, 0, 0x8000, 0, 3, BlockState::M);
    // Disjoint writers: legal under MW.
    plant(sys, 1, 0x8000, 5, 7, BlockState::M);
    EXPECT_FALSE(sys.checkCoherenceInvariant().has_value());

    // Overlaps core 0's dirty words.
    plant(sys, 2, 0x8000, 3, 4, BlockState::S);
    const auto err = sys.checkCoherenceInvariant();
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("SWMR"), std::string::npos);
}

/**
 * The sweep visits only the accumulator slots stamped in the current
 * set pass. Here the violating region is the first one core 0 streams
 * into set 0; 33 more set-0 regions follow in one-word blocks, on
 * core 0 before core 1's conflicting copy and on core 2 after it, so
 * the 16-slot table doubles three times inside the violator's own
 * set pass (once before the conflicting copy arrives, twice after)
 * and the list of stamped slots must follow it to each new place.
 */
TEST(InvariantChecker, ViolationStampedBeforeTableGrowthIsReported)
{
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaMW;
    System sys(cfg, emptyWorkload(cfg.numCores));
    const Addr set_stride = Addr(cfg.l1Sets) * cfg.regionBytes;

    const Addr bad = 0x8000;
    ASSERT_EQ(sys.l1(0).cacheStorage().setOf(bad), 0u);
    // 40 + 15 x 16 bytes fill core 0's 288-byte set; 18 x 16 core 2's.
    plant(sys, 0, bad, 0, 3, BlockState::M);
    for (unsigned i = 1; i <= 15; ++i)
        plant(sys, 0, bad + i * set_stride, 0, 0, BlockState::S);
    plant(sys, 1, bad, 3, 4, BlockState::S);
    for (unsigned i = 16; i <= 33; ++i)
        plant(sys, 2, bad + i * set_stride, 0, 0, BlockState::S);

    for (int check = 0; check < 2; ++check) {
        const auto err = sys.checkCoherenceInvariant();
        ASSERT_TRUE(err.has_value()) << "check " << check;
        EXPECT_NE(err->find("region 0x8000:"), std::string::npos) << *err;
    }
}

/**
 * Sets are folded in index order, but the report names the lowest
 * violating region over all of them, as the whole-machine fold did:
 * here the lower region sits in the higher set.
 */
TEST(InvariantChecker, ReportsLowestViolatingRegionAcrossSets)
{
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaMW;
    System sys(cfg, emptyWorkload(cfg.numCores));
    const AmoebaCache &cache = sys.l1(0).cacheStorage();

    const Addr low = 0x8000 + 5 * cfg.regionBytes;
    const Addr high = 0x8000 + (cfg.l1Sets + 2) * cfg.regionBytes;
    ASSERT_EQ(cache.setOf(low), 5u);
    ASSERT_EQ(cache.setOf(high), 2u);
    for (const Addr region : {high, low}) {
        plant(sys, 0, region, 0, 3, BlockState::M);
        plant(sys, 1, region, 2, 4, BlockState::S);
    }

    const auto err = sys.checkCoherenceInvariant();
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("region 0x8140:"), std::string::npos) << *err;
}

} // namespace
} // namespace protozoa
