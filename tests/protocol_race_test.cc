/**
 * @file
 * Race tests for the transient-state machinery:
 *  - Fig. 6: a forwarded invalidation arriving while the same core has
 *    an outstanding miss on another sub-block of the region,
 *  - eviction PUT racing a forwarded probe (writeback buffer),
 *  - upgrade GETX racing a remote invalidation (retry path),
 *  - inclusive-L2 recall of dirty variable-granularity blocks.
 */

#include <gtest/gtest.h>

#include "protocol_driver.hh"

namespace protozoa {
namespace {

SystemConfig
wordCfg(ProtocolKind protocol)
{
    SystemConfig cfg;
    cfg.protocol = protocol;
    cfg.predictor = PredictorKind::WordOnly;
    return cfg;
}

// Fig. 6: Core-0 holds a dirty sub-block and has a GETS outstanding
// for another word of the region when a remote GETX overlapping its
// dirty data races in. Home-tile placement makes Core-15's GETX win
// the race to the directory.
TEST(ProtocolRace, Fig6FwdGetxDuringOutstandingGets)
{
    SystemConfig cfg = wordCfg(ProtocolKind::ProtozoaMW);
    ProtocolDriver d(cfg);

    // Region homed at tile 15: adjacent to core 15, far from core 0.
    const Addr region = 15 * 64;
    const Addr w0 = region;
    const Addr w5 = region + 5 * kWordBytes;

    d.store(0, w5, 555);   // core 0 dirty sub-block (words "5-7")

    // Now race: core 0 GETS word 0, core 15 GETX word 5.
    d.issue(0, w0, false, 0, 0x100, 0);
    d.issue(15, w5, true, 999, 0x104, 0);
    d.drain();

    // Core 15's GETX overlapped core 0's dirty block: invalidated and
    // written back; core 0's own GETS still completed.
    EXPECT_EQ(d.stateOf(15, w5), BlockState::M);
    EXPECT_EQ(d.stateOf(0, w5), std::nullopt);
    EXPECT_NE(d.stateOf(0, w0), std::nullopt);
    EXPECT_EQ(d.load(3, w5), 999u);
    d.expectClean();
}

// Same race in the region-granularity protocols: the forwarded probe
// kills everything, including nothing yet fetched for the outstanding
// miss; the miss still completes afterwards.
TEST(ProtocolRace, Fig6UnderRegionGranularity)
{
    for (auto protocol :
         {ProtocolKind::MESI, ProtocolKind::ProtozoaSW}) {
        ProtocolDriver d(wordCfg(protocol));
        const Addr region = 15 * 64;
        const Addr w0 = region;
        const Addr w5 = region + 5 * kWordBytes;

        d.store(0, w5, 555);
        d.issue(0, w0, false, 0, 0x100, 0);
        d.issue(15, w5, true, 999, 0x104, 0);
        d.drain();

        EXPECT_EQ(d.load(3, w5), 999u) << protocolName(protocol);
        d.expectClean();
    }
}

// Eviction PUT in flight when a probe arrives: the writeback buffer
// must answer with the freshest data, and the stale PUT must not
// corrupt the L2 afterwards.
TEST(ProtocolRace, WritebackBufferAnswersProbe)
{
    SystemConfig cfg = wordCfg(ProtocolKind::ProtozoaMW);
    cfg.l1Sets = 1;
    cfg.l1BytesPerSet = 80;   // 5 one-word blocks per L1
    ProtocolDriver d(cfg);

    // Home the victim region far from core 0 so its PUT is slow, and
    // request it from core 15 which sits next to the home tile.
    const Addr victim = 15 * 64;
    d.store(0, victim, 4242);

    // Evict it by filling core 0's single set with other regions
    // (homed elsewhere), then immediately read from core 15.
    for (unsigned i = 0; i < 5; ++i)
        d.issue(0, 0x40000 + i * 64, true, i, 0x200 + 4 * i, i);
    d.issue(15, victim, false, 0, 0x300, 5);
    d.drain();

    EXPECT_EQ(d.load(15, victim), 4242u);
    EXPECT_EQ(d.load(0, victim), 4242u);
    d.expectClean();
    // All writeback buffers drained (every PUT was WB_ACKed).
    for (CoreId c = 0; c < 16; ++c)
        EXPECT_EQ(d.sys.l1(c).writebackBuffer().pendingCount(), 0u);
}

// Found by the stress campaign (eviction-pressure archetype): a dirty
// eviction PUT races a probe whose range does NOT overlap the
// writeback. The probed core has no blocks left and the probe collects
// nothing from the writeback buffer, but it must still report itself
// a sharer — if the directory clears its tracking, the queued PUT is
// classified stale and the dirty word is silently dropped (lost
// store). Only Protozoa-SW+MR and Protozoa-MW probe with partial
// ranges, so only they can hit the non-overlap window. Sweeping the
// prober's start cycle walks the probe through every alignment with
// the eviction, including the fatal one.
TEST(ProtocolRace, NonOverlappingProbeDoesNotDropRacingWriteback)
{
    for (auto protocol :
         {ProtocolKind::ProtozoaSWMR, ProtocolKind::ProtozoaMW}) {
        SystemConfig cfg = wordCfg(protocol);
        cfg.l1Sets = 1;
        cfg.l1BytesPerSet = 80;   // 5 one-word blocks per L1

        const Addr victim = 15 * 64;   // homed at tile 15
        const Addr dirty_w = victim + 3 * kWordBytes;
        const Addr probe_w = victim + 6 * kWordBytes;

        // Set up one instance per prober start cycle: core 0 dirties
        // word 3, then fills its only set; the fifth fill evicts the
        // dirty block and launches its PUT toward tile 15.
        const auto setup = [&](ProtocolDriver &d) {
            d.store(0, dirty_w, 4242);
            for (unsigned i = 0; i < 5; ++i)
                d.issue(0, 0x40000 + i * 64, false, 0, 0x200 + 4 * i);
        };

        // Calibrate: run once without a prober, sampling core 0's
        // writeback buffer every cycle to catch the exact cycle the
        // eviction PUT launches. Sweeping the prober start around that
        // cycle walks the probe through every alignment with the PUT,
        // including the fatal one.
        // put_off: cycles from setup completion (the clock issue()
        // delays are measured from) to the PUT entering the network.
        Cycle put_off = 0;
        {
            ProtocolDriver d(cfg);
            setup(d);
            const Cycle base = d.sys.eventQueue().now();
            std::function<void()> sample = [&, base] {
                if (d.sys.l1(0).writebackBuffer().pendingCount() > 0) {
                    put_off = d.sys.eventQueue().now() - base;
                    return;
                }
                d.sys.scheduleTestHook(1, sample);
            };
            d.sys.scheduleTestHook(1, sample);
            d.drain();
        }
        ASSERT_GT(put_off, 0u) << protocolName(protocol);

        const Cycle first = put_off > 100 ? put_off - 100 : 0;
        for (Cycle dly = first; dly < put_off + 40; ++dly) {
            ProtocolDriver d(cfg);
            setup(d);
            // Core 15 reads word 6: the directory probes writer core 0
            // with range [6-6], which never overlaps the writeback.
            d.issue(15, probe_w, false, 0, 0x300, dly);
            d.drain();

            EXPECT_EQ(d.load(14, dirty_w), 4242u)
                << protocolName(protocol) << " dly=" << dly;
            d.expectClean();
            if (HasFailure())
                return;
        }
    }
}

// Two sharers upgrade the same word simultaneously: one wins, the
// loser's upgrade is broken and retried as a full GETX.
TEST(ProtocolRace, RacingUpgradesOnSameWord)
{
    for (auto protocol :
         {ProtocolKind::MESI, ProtocolKind::ProtozoaSW,
          ProtocolKind::ProtozoaSWMR, ProtocolKind::ProtozoaMW}) {
        ProtocolDriver d(wordCfg(protocol));
        const Addr a = 0x5000;

        d.load(0, a);
        d.load(15, a);   // both sharers now
        d.issue(0, a, true, 100, 0x400, 0);
        d.issue(15, a, true, 200, 0x404, 0);
        d.drain();

        // Exactly one final value, observed by everyone.
        const auto v = d.load(7, a);
        EXPECT_TRUE(v == 100u || v == 200u) << protocolName(protocol);
        EXPECT_EQ(d.sys.valueViolations(), 0u);
        d.expectClean();
    }
}

// Racing upgrades on *different* words of one region: under MW both
// writers win and keep their blocks.
TEST(ProtocolRace, RacingDisjointUpgradesUnderMw)
{
    ProtocolDriver d(wordCfg(ProtocolKind::ProtozoaMW));
    const Addr a = 0x6000;
    const Addr b = 0x6000 + 3 * kWordBytes;

    d.load(0, a);
    d.load(15, b);
    d.issue(0, a, true, 111, 0x500, 0);
    d.issue(15, b, true, 222, 0x504, 0);
    d.drain();

    EXPECT_EQ(d.stateOf(0, a), BlockState::M);
    EXPECT_EQ(d.stateOf(15, b), BlockState::M);
    EXPECT_EQ(d.load(8, a), 111u);
    EXPECT_EQ(d.load(8, b), 222u);
    d.expectClean();
}

// Inclusive-L2 recall: a tiny L2 forces eviction of regions whose
// dirty variable-granularity blocks still live in L1s.
TEST(ProtocolRace, RecallCollectsDirtyBlocks)
{
    for (auto protocol :
         {ProtocolKind::MESI, ProtocolKind::ProtozoaMW}) {
        SystemConfig cfg = wordCfg(protocol);
        cfg.l2BytesPerTile = 1024;   // 2 sets x 8 ways per tile
        ProtocolDriver d(cfg);

        // Dirty many regions homed on tile 0 (region index % 16 == 0).
        for (unsigned i = 0; i < 40; ++i)
            d.store(i % 4, 0x10000 + i * 64 * 16, 7000 + i, 0x600);

        // Recalls must have happened, and every value must survive.
        std::uint64_t recalls = 0;
        for (TileId t = 0; t < 16; ++t)
            recalls += d.sys.dir(t).stats.recalls;
        EXPECT_GT(recalls, 0u) << protocolName(protocol);

        for (unsigned i = 0; i < 40; ++i)
            EXPECT_EQ(d.load(5, 0x10000 + i * 64 * 16), 7000u + i);
        d.expectClean();
    }
}

// A dirty sub-block whose region is recalled, then re-fetched: the
// memory image must carry the patched data.
TEST(ProtocolRace, RecallRoundTripsThroughMemory)
{
    SystemConfig cfg = wordCfg(ProtocolKind::ProtozoaMW);
    cfg.l2BytesPerTile = 1024;
    ProtocolDriver d(cfg);

    const Addr a = 0x20000;   // region 2048, tile 0
    d.store(0, a, 31337);
    // Thrash tile 0's two sets until region `a` has been recalled.
    for (unsigned i = 1; i < 64; ++i)
        d.load(1, 0x20000 + i * 64 * 16, 0x700);

    EXPECT_EQ(d.load(2, a), 31337u);
    d.expectClean();
}

// Stale sharer NACK: a silently evicted (clean) block leaves the
// directory tracking a ghost; the ghost answers probes with NACKs and
// is dropped, without breaking anyone.
TEST(ProtocolRace, StaleSharersAreNackedAway)
{
    SystemConfig cfg = wordCfg(ProtocolKind::ProtozoaMW);
    cfg.l1Sets = 1;
    cfg.l1BytesPerSet = 80;
    ProtocolDriver d(cfg);

    const Addr a = 0x7000;
    d.load(0, a);
    // Push the clean block out silently.
    for (unsigned i = 1; i <= 5; ++i)
        d.load(0, 0x7000 + i * 64, 0x800 + 4 * i);
    // Directory still lists core 0; a write probes it and gets a NACK.
    d.store(1, a, 8888);
    EXPECT_EQ(d.load(2, a), 8888u);
    const auto view = d.dirView(a);
    EXPECT_FALSE(view.readers.test(0));
    EXPECT_FALSE(view.writers.test(0));
    d.expectClean();
}

} // namespace
} // namespace protozoa
