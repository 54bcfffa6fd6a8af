/**
 * @file
 * Memoization soundness under the learning PcSpatial predictor.
 *
 * Memoization prunes a state whose fingerprint was already expanded,
 * so it is sound only if the fingerprint covers everything the
 * state's future reads. Under PcSpatial that includes the predictor's
 * trained entries and each resident block's training inputs. On both
 * PcSpatial library scenarios, the searches with memoization on and
 * off must reach the same fingerprint set with the same verdict, and
 * on the stride scenario memoization must also pay off.
 *
 * This whole-search check catches a fingerprint hole only where the
 * pruned state leads to a fingerprint that no other order reaches.
 * On these two scenarios other orders do reach them: the check still
 * passes with the predictor coverage removed from the fingerprint.
 * The StateFingerprint tests in protocheck_test lock each covered
 * field directly.
 *
 * A binary of its own, so that a parallel ctest runs it beside
 * protocheck_test.
 */

#include <gtest/gtest.h>

#include "check/explorer.hh"
#include "check/scenario.hh"

using namespace protozoa;
using namespace protozoa::check;

namespace {

struct MemoPair
{
    ExploreResult on;
    ExploreResult off;
};

/** Explore @p name under @p proto with memoization on and off. */
MemoPair
exploreBothWays(const char *name, ProtocolKind proto)
{
    const Scenario *s = findScenario(name);
    EXPECT_NE(s, nullptr) << name;
    if (s == nullptr)
        return {};
    EXPECT_EQ(s->cfg.predictor, PredictorKind::PcSpatial) << name;
    ExploreLimits on;
    on.collectFingerprints = true;
    ExploreLimits off = on;
    off.memo = false;
    MemoPair r{explore(*s, proto, on), explore(*s, proto, off)};

    const std::string what = std::string(name) + " " + protocolName(proto);
    EXPECT_FALSE(r.on.budgetExhausted) << what;
    EXPECT_FALSE(r.off.budgetExhausted) << what;
    EXPECT_FALSE(r.on.violation.has_value()) << what;
    EXPECT_FALSE(r.off.violation.has_value()) << what;
    EXPECT_FALSE(r.on.fingerprints.empty()) << what;
    EXPECT_EQ(r.on.fingerprints, r.off.fingerprints)
        << what << ": memoized search reached " << r.on.fingerprints.size()
        << " distinct states, unmemoized " << r.off.fingerprints.size();
    return r;
}

} // namespace

TEST(MemoEquivalence, WordChurnUnderAllProtocols)
{
    for (ProtocolKind proto :
         {ProtocolKind::MESI, ProtocolKind::ProtozoaSW,
          ProtocolKind::ProtozoaSWMR, ProtocolKind::ProtozoaMW})
        exploreBothWays("mw-word-churn", proto);
}

TEST(MemoEquivalence, PcSpatialStrideCollapses)
{
    // MESI's System fetches whole regions under FullRegion whatever
    // the scenario asks for, so MESI is the stateless control and MW
    // the learning case.
    for (ProtocolKind proto : {ProtocolKind::MESI, ProtocolKind::ProtozoaMW}) {
        const MemoPair r = exploreBothWays("pcspatial-stride-3core", proto);
        EXPECT_GT(r.on.memoHits, 0u) << protocolName(proto);
        EXPECT_EQ(r.off.memoHits, 0u) << protocolName(proto);
        EXPECT_GE(r.off.statesVisited, 10 * r.on.statesVisited)
            << protocolName(proto) << ": memo on " << r.on.statesVisited
            << " states, off " << r.off.statesVisited;
    }
}
