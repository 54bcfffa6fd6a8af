/**
 * @file
 * Bit-identical output guard for the word-mask data path.
 *
 * The bulk mask/segment operations are pure strength reduction: they
 * must not change a single statistic of any run. This test locks a
 * small (scale 0.05, the CI smoke scale) MESI and Protozoa-MW paper
 * benchmark run to a committed digest of every deterministic RunStats
 * field. Any change to protocol behavior, message ordering, fill
 * contents, or stats accounting moves the digest; wall-clock metrics
 * are excluded.
 *
 * If a deliberate behavioral change lands, rerun this test and update
 * kGoldenDigest to the value printed in the failure message.
 *
 * The second guard locks the schedule explorer's search the same way:
 * its counters over the scenario library must not move when only the
 * explorer's speed changes. The third locks the fingerprint sets that
 * search visits, and the fourth the machines the scenarios, the
 * random tester and the stress campaign run.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "check/explorer.hh"
#include "check/scenario.hh"
#include "protozoa/protozoa.hh"
#include "sim/stress_campaign.hh"
#include "snapshot/snapshot.hh"
#include "stats_digest.hh"

namespace protozoa {
namespace {

TEST(BitIdenticalGuard, SmallRunDigestIsStable)
{
    constexpr double kScale = 0.05;
    constexpr std::uint64_t kGoldenDigest = 0xff0addbe33116b92ULL;

    Digest d;
    for (ProtocolKind kind :
         {ProtocolKind::MESI, ProtocolKind::ProtozoaMW}) {
        for (const char *bench : {"apache", "canneal"}) {
            SystemConfig cfg;
            cfg.protocol = kind;
            addStats(d, runBenchmark(cfg, bench, kScale));
        }
    }

    EXPECT_EQ(d.value(), kGoldenDigest)
        << "stats digest changed: 0x" << std::hex << d.value()
        << " (update kGoldenDigest only for a deliberate behavioral "
           "change)";
}

/**
 * check::explore at its default limits over every non-large library
 * scenario x 4 protocols. Each pair's states visited, schedules
 * completed, memo hits, POR prunes, POR commutations and deliveries
 * executed fold into one digest per pair, and the pairs fold in
 * library order: the same value the benchmark's protocheck workload
 * reports. A change to this digest needs its reason stated, as for
 * kGoldenDigest.
 */
TEST(BitIdenticalGuard, ExplorerCountersAreStable)
{
    constexpr std::uint64_t kExplorerDigest = 0x5ae441328e4cae07ULL;

    Digest all;
    for (const check::Scenario &s : check::scenarioLibrary()) {
        if (s.large)
            continue;
        for (ProtocolKind kind :
             {ProtocolKind::MESI, ProtocolKind::ProtozoaSW,
              ProtocolKind::ProtozoaSWMR, ProtocolKind::ProtozoaMW}) {
            const check::ExploreResult r = check::explore(s, kind);
            EXPECT_FALSE(r.violation.has_value())
                << s.name << " " << protocolName(kind);
            EXPECT_FALSE(r.budgetExhausted)
                << s.name << " " << protocolName(kind);
            Digest d;
            d.add(r.statesVisited);
            d.add(r.schedulesCompleted);
            d.add(r.memoHits);
            d.add(r.porPruned);
            d.add(r.porCommutations);
            d.add(r.deliveriesExecuted);
            all.add(d.value());
        }
    }

    EXPECT_EQ(all.value(), kExplorerDigest)
        << "explorer digest changed: 0x" << std::hex << all.value()
        << " (update kExplorerDigest only for a deliberate change to "
           "the search)";
}

/**
 * The same pairs' fingerprint sets: each pair folds the size and then
 * the values of its sorted collectFingerprints set into one value,
 * and the pairs fold in library order. The fingerprint's hash and
 * feed order, and everything it covers, must not move when only its
 * speed changes.
 */
TEST(BitIdenticalGuard, FingerprintSetsAreStable)
{
    constexpr std::uint64_t kFingerprintDigest = 0xaaa5ab56473513dfULL;

    check::ExploreLimits lim;
    lim.collectFingerprints = true;
    Digest all;
    for (const check::Scenario &s : check::scenarioLibrary()) {
        if (s.large)
            continue;
        for (ProtocolKind kind :
             {ProtocolKind::MESI, ProtocolKind::ProtozoaSW,
              ProtocolKind::ProtozoaSWMR, ProtocolKind::ProtozoaMW}) {
            const check::ExploreResult r = check::explore(s, kind, lim);
            EXPECT_FALSE(r.violation.has_value())
                << s.name << " " << protocolName(kind);
            Digest d;
            d.add(r.fingerprints.size());
            for (const std::uint64_t fp : r.fingerprints)
                d.add(fp);
            all.add(d.value());
        }
    }

    EXPECT_EQ(all.value(), kFingerprintDigest)
        << "fingerprint digest changed: 0x" << std::hex << all.value()
        << " (update kFingerprintDigest only for a deliberate change to "
           "what the fingerprint covers)";
}

/**
 * configFingerprint of the machines the layers above System build:
 * toConfig of every library scenario (the large tier included) x 4
 * protocols, then the base machines of the random tester and of the
 * default, small and large campaign grids. A machine that moves here
 * runs different experiments under the same names; change
 * kConfigDigest only with the reason stated.
 */
TEST(BitIdenticalGuard, MachineConfigsAreStable)
{
    constexpr std::uint64_t kConfigDigest = 0x2490da406cf90ab7ULL;

    Digest d;
    for (const check::Scenario &s : check::scenarioLibrary()) {
        for (ProtocolKind kind :
             {ProtocolKind::MESI, ProtocolKind::ProtozoaSW,
              ProtocolKind::ProtozoaSWMR, ProtocolKind::ProtozoaMW})
            d.add(configFingerprint(s.toConfig(kind)));
    }
    d.add(configFingerprint(RandomTester::Params{}.cfg));
    for (const CampaignSpec &spec :
         {CampaignSpec{}, CampaignSpec::smallSystem(),
          CampaignSpec::largeMesh()})
        d.add(configFingerprint(spec.tester.cfg));

    EXPECT_EQ(d.value(), kConfigDigest)
        << "machine digest changed: 0x" << std::hex << d.value()
        << " (update kConfigDigest only for a deliberate change to a "
           "machine)";
}

} // namespace
} // namespace protozoa
