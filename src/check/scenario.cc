#include "check/scenario.hh"

#include <algorithm>

namespace protozoa::check {

SystemConfig
Scenario::toConfig(ProtocolKind proto) const
{
    SystemConfig out = cfg;
    out.protocol = proto;
    out.scheduleOracle = true;
    out.checkValues = true;
    out.faultInjection = false;
    out.occupancyJitter = false;
    out.watchdogCycles = 0;
    out.seed = 1;
    return out;
}

std::vector<Addr>
Scenario::regionFootprint() const
{
    std::vector<Addr> regions;
    for (const auto &acc : accesses)
        regions.push_back(regionBase(acc.addr, cfg.regionBytes));
    std::sort(regions.begin(), regions.end());
    regions.erase(std::unique(regions.begin(), regions.end()),
                  regions.end());
    return regions;
}

namespace {

constexpr Addr kBase = 0x40000000;

/** Word @p w of region @p r (64-byte regions unless noted). */
Addr
wordAddr(unsigned region_bytes, unsigned r, unsigned w)
{
    return kBase + static_cast<Addr>(r) * region_bytes +
           static_cast<Addr>(w) * kWordBytes;
}

std::vector<Scenario>
buildLibrary()
{
    std::vector<Scenario> lib;

    {
        // Sec. 3.3: both cores load a word into S, then both try to
        // upgrade it. One upgrade must lose, get invalidated
        // mid-flight (SM_B), and retry as a full GETX.
        Scenario s;
        s.name = "upgrade-race";
        s.note = "two cores race S->M upgrades on the same word";
        s.stresses = {"swmr", "value", "upgrade"};
        s.accesses = {
            {0, wordAddr(64, 0, 0), false, 0},
            {1, wordAddr(64, 0, 0), false, 0},
            {0, wordAddr(64, 0, 0), true, 0x0a},
            {1, wordAddr(64, 0, 0), true, 0x0b},
        };
        lib.push_back(std::move(s));
    }

    {
        // False sharing: disjoint words of one region ping-pong
        // between writers. Adaptive protocols keep both writers
        // resident; MESI serializes the whole region.
        Scenario s;
        s.name = "false-share-pingpong";
        s.note = "disjoint-word writers of one region, cross reads";
        s.stresses = {"swmr", "value", "mw-split"};
        s.accesses = {
            {0, wordAddr(64, 0, 0), true, 0x1a},
            {1, wordAddr(64, 0, 7), true, 0x1b},
            {0, wordAddr(64, 0, 0), true, 0x2a},
            {1, wordAddr(64, 0, 7), true, 0x2b},
            {0, wordAddr(64, 0, 7), false, 0},
            {1, wordAddr(64, 0, 0), false, 0},
        };
        lib.push_back(std::move(s));
    }

    {
        // The PR 2 lost-store shape: a dirty single-word block is
        // evicted (PUT in flight) while a partial-range probe for the
        // *other* word of the region races it to the directory. The
        // probe response must keep the evictor tracked or the PUT is
        // classified stale and the store is lost.
        Scenario s;
        s.name = "evict-vs-partial-probe";
        s.note = "in-flight eviction PUT races a non-overlapping probe";
        s.stresses = {"value", "writeback", "mr-overlap"};
        s.cfg.regionBytes = 16;
        // One single-word block (8 B payload + 8 B tag) fits; the
        // second store's fill must evict the first block.
        s.cfg.l1BytesPerSet = 24;
        s.accesses = {
            {0, wordAddr(16, 0, 0), true, 0xa1},
            {0, wordAddr(16, 0, 1), true, 0xa2},
            {1, wordAddr(16, 0, 1), true, 0xb1},
            {1, wordAddr(16, 0, 0), false, 0},
        };
        lib.push_back(std::move(s));
    }

    {
        // A load installs S, the following store upgrades, and a
        // third-party writer races the upgrade: the FWD_GETX may
        // invalidate the upgrade target mid-flight (SM_B retry).
        Scenario s;
        s.name = "upgrade-retry";
        s.note = "probe invalidates an in-flight S->M upgrade target";
        s.stresses = {"swmr", "value", "upgrade"};
        s.accesses = {
            {0, wordAddr(64, 0, 0), false, 0},
            {0, wordAddr(64, 0, 0), true, 0x3a},
            {1, wordAddr(64, 0, 0), true, 0x3b},
            {1, wordAddr(64, 0, 0), false, 0},
        };
        lib.push_back(std::move(s));
    }

    {
        // Inclusive-eviction recall: a one-entry L2 tile forces the
        // second region's fill to recall the first region from its
        // sharers while their traffic is still in flight.
        Scenario s;
        s.name = "recall-inclusive";
        s.note = "L2 conflict recall races the victim's live sharers";
        s.stresses = {"inclusion", "recall", "value"};
        s.cfg.l2BytesPerTile = 64;
        s.cfg.l2Assoc = 1;
        s.accesses = {
            {0, wordAddr(64, 0, 0), true, 0x4a},
            // Region index 2 (= l2Tiles) homes on tile 0 as well and
            // conflicts with region 0 in the single-entry tile.
            {0, wordAddr(64, 2, 0), true, 0x4b},
            {1, wordAddr(64, 0, 1), true, 0x4c},
            {1, wordAddr(64, 0, 0), false, 0},
        };
        lib.push_back(std::move(s));
    }

    {
        // 3-hop direct supply: the probed owner sends DATA straight to
        // the requester while the directory still awaits collection.
        Scenario s;
        s.name = "threehop-direct";
        s.note = "owner-to-requester direct DATA with late collection";
        s.stresses = {"3hop", "value", "swmr"};
        s.cfg.threeHop = true;
        s.accesses = {
            {0, wordAddr(64, 0, 0), true, 0x5a},
            {1, wordAddr(64, 0, 0), false, 0},
            {1, wordAddr(64, 0, 0), true, 0x5b},
            {0, wordAddr(64, 0, 0), false, 0},
        };
        lib.push_back(std::move(s));
    }

    {
        // Bloom false positive: with one bucket per hash table every
        // region aliases every other, so core 1's residency in region
        // 2 makes the directory falsely probe it for region 0. The
        // probe must come back as a clean NACK (bloomFalseProbes
        // stat) without deadlocking the requester.
        Scenario s;
        s.name = "bloom-false-probe";
        s.note = "fully-aliased Bloom filter forces false probe/NACK";
        s.stresses = {"bloom-nack", "value"};
        s.cfg.directory = DirectoryKind::TaglessBloom;
        s.cfg.bloomBuckets = 1;
        s.cfg.bloomHashes = 1;
        s.accesses = {
            // Region 2 homes on tile 0 (even index) and pollutes the
            // tile-0 filter with core 1.
            {1, wordAddr(64, 2, 0), false, 0},
            {0, wordAddr(64, 0, 0), true, 0x6a},
            {1, wordAddr(64, 0, 0), false, 0},
            {0, wordAddr(64, 0, 1), true, 0x6b},
        };
        lib.push_back(std::move(s));
    }

    {
        // Bloom NACK under an upgrade: core 0's S->M upgrade collects
        // a false-positive probe NACK from core 1 (aliased in via
        // region 2) concurrently with the genuine invalidation, so
        // the collection logic must count NACKs and real acks against
        // the same expected-response tally.
        Scenario s;
        s.name = "bloom-nack-upgrade";
        s.note = "upgrade collects a false-probe NACK plus a real ack";
        s.stresses = {"bloom-nack", "upgrade", "swmr"};
        s.cfg.directory = DirectoryKind::TaglessBloom;
        s.cfg.bloomBuckets = 1;
        s.cfg.bloomHashes = 1;
        s.accesses = {
            {0, wordAddr(64, 0, 0), false, 0},
            {1, wordAddr(64, 2, 0), true, 0x7a},
            {0, wordAddr(64, 0, 0), true, 0x7b},
            {1, wordAddr(64, 0, 0), false, 0},
        };
        lib.push_back(std::move(s));
    }

    {
        // Three writers storm a one-entry L2 tile: regions 0, 3 and 6
        // all home on tile 0 and collide in its only set, so every
        // fill recalls the previous region while its traffic is still
        // live, and late requesters hit the PR 4 pinned-set deferral.
        Scenario s;
        s.name = "recall-storm-3core";
        s.note = "3 cores churn one-entry L2 set, serial recalls";
        s.stresses = {"recall", "pinning", "inclusion", "value"};
        s.cfg.setMesh(3, 1);
        s.cfg.l2BytesPerTile = 64;
        s.cfg.l2Assoc = 1;
        s.accesses = {
            {0, wordAddr(64, 0, 0), true, 0x8a},
            {1, wordAddr(64, 3, 0), true, 0x8b},
            {2, wordAddr(64, 6, 0), true, 0x8c},
            {0, wordAddr(64, 3, 1), false, 0},
            {1, wordAddr(64, 0, 0), false, 0},
        };
        lib.push_back(std::move(s));
    }

    {
        // Four-core recall storm, 10 accesses: regions 0, 4 and 8 all
        // collide in tile 0's only set while cross-reads keep the
        // victims' sharer sets live. Full enumeration exhausts the CI
        // state budget; the POR-reduced space completes. Regression-
        // locks the PR 4 fully-pinned-set deferral fix at 4 cores.
        Scenario s;
        s.name = "recall-storm-4core";
        s.note = "4-core recall storm on a one-entry L2 set (deep)";
        s.stresses = {"recall", "pinning", "inclusion", "value"};
        s.deep = true;
        s.cfg.setMesh(4, 1);
        s.cfg.l2BytesPerTile = 64;
        s.cfg.l2Assoc = 1;
        s.accesses = {
            {0, wordAddr(64, 0, 0), true, 0x9a},
            {1, wordAddr(64, 4, 0), true, 0x9b},
            {2, wordAddr(64, 8, 0), true, 0x9c},
            {3, wordAddr(64, 0, 1), true, 0x9d},
            {0, wordAddr(64, 4, 1), false, 0},
            {1, wordAddr(64, 8, 1), false, 0},
            {2, wordAddr(64, 0, 0), false, 0},
            {3, wordAddr(64, 4, 0), false, 0},
            {0, wordAddr(64, 0, 1), true, 0x9e},
            {1, wordAddr(64, 0, 1), false, 0},
        };
        lib.push_back(std::move(s));
    }

    {
        // MW churn: two writers hammer disjoint words (0 and 7, then
        // 3) of one region across 10 accesses with word-boundary
        // writes, ending in cross reads. Under Protozoa-MW both stay
        // M-resident on their word ranges; the word-level SWMR split
        // and the final cross-read values must hold through the
        // churn. Full enumeration exceeds the CI budget.
        Scenario s;
        s.name = "mw-word-churn";
        s.note = "10-access disjoint-word writer churn, cross reads";
        s.stresses = {"mw-split", "swmr", "value"};
        s.deep = true;
        // Distinct pcs per (core, word) stream keep the PcSpatial
        // predictor's table non-trivial.
        s.cfg.predictor = PredictorKind::PcSpatial;
        s.accesses = {
            {0, wordAddr(64, 0, 0), true, 0xa0, 0x100},
            {1, wordAddr(64, 0, 7), true, 0xb0, 0x200},
            {0, wordAddr(64, 0, 0), true, 0xa1, 0x100},
            {1, wordAddr(64, 0, 7), true, 0xb1, 0x200},
            {0, wordAddr(64, 0, 3), true, 0xa2, 0x110},
            {1, wordAddr(64, 0, 7), true, 0xb2, 0x200},
            {0, wordAddr(64, 0, 7), false, 0, 0x120},
            {1, wordAddr(64, 0, 3), false, 0, 0x210},
            {0, wordAddr(64, 0, 0), false, 0, 0x100},
            {1, wordAddr(64, 0, 0), false, 0, 0x220},
        };
        lib.push_back(std::move(s));
    }

    {
        // Three cores stride over three regions homed on three
        // different tiles under the PcSpatial predictor, ending in
        // cross reads. The streams are pairwise independent almost
        // everywhere, so sleep sets collapse the schedule space to
        // near one order per dependent suffix, while full
        // enumeration of the interleaved streams exhausts any CI
        // state budget. Memoization then merges the confluent
        // orders that POR leaves.
        Scenario s;
        s.name = "pcspatial-stride-3core";
        s.note = "3 striding cores, 3 home tiles, PcSpatial (deep)";
        s.stresses = {"value", "swmr", "predictor"};
        s.deep = true;
        s.cfg.setMesh(3, 1);
        s.cfg.predictor = PredictorKind::PcSpatial;
        s.accesses = {
            {0, wordAddr(64, 0, 0), true, 0x51, 0x400},
            {1, wordAddr(64, 1, 0), true, 0x61, 0x500},
            {2, wordAddr(64, 2, 0), true, 0x71, 0x600},
            {0, wordAddr(64, 0, 1), true, 0x52, 0x404},
            {1, wordAddr(64, 1, 1), true, 0x62, 0x504},
            {2, wordAddr(64, 2, 1), true, 0x72, 0x604},
            {0, wordAddr(64, 0, 2), true, 0x53, 0x408},
            {1, wordAddr(64, 1, 2), true, 0x63, 0x508},
            {2, wordAddr(64, 2, 2), true, 0x73, 0x608},
            {0, wordAddr(64, 1, 0), false, 0, 0x40c},
            {1, wordAddr(64, 2, 0), false, 0, 0x50c},
            {2, wordAddr(64, 0, 0), false, 0, 0x60c},
        };
        lib.push_back(std::move(s));
    }

    {
        // MR overlap vs eviction: both cores read word 0 (overlapping
        // reader ranges), core 0's second fill evicts its block while
        // core 1 upgrades the word the clean eviction still covers.
        // The directory's reader-overlap probe filter must not skip
        // the evicting reader or the stale copy survives.
        Scenario s;
        s.name = "mr-reader-overlap-evict";
        s.note = "overlapping readers race a clean eviction vs upgrade";
        s.stresses = {"mr-overlap", "value", "writeback"};
        s.cfg.regionBytes = 16;
        s.cfg.l1BytesPerSet = 24;
        s.accesses = {
            {0, wordAddr(16, 0, 0), false, 0},
            {1, wordAddr(16, 0, 0), false, 0},
            {0, wordAddr(16, 0, 1), false, 0},
            {1, wordAddr(16, 0, 0), true, 0xc1},
            {0, wordAddr(16, 0, 0), false, 0},
        };
        lib.push_back(std::move(s));
    }

    {
        // Writeback/upgrade crossing under 3-hop forwarding: core 0's
        // dirty eviction PUT is in flight when core 1's GETX arrives,
        // so the directory forwards the probe straight at the evictor
        // and the 3-hop direct DATA path crosses the writeback.
        Scenario s;
        s.name = "wb-upgrade-cross-3hop";
        s.note = "dirty eviction PUT crosses a 3-hop forwarded GETX";
        s.stresses = {"writeback", "3hop", "value", "upgrade"};
        s.cfg.regionBytes = 16;
        s.cfg.l1BytesPerSet = 24;
        s.cfg.threeHop = true;
        s.accesses = {
            {0, wordAddr(16, 0, 0), true, 0xd0},
            {0, wordAddr(16, 0, 1), true, 0xd1},
            {1, wordAddr(16, 0, 0), true, 0xd2},
            {0, wordAddr(16, 0, 0), false, 0},
        };
        lib.push_back(std::move(s));
    }

    {
        // 3-hop forwarding on a fully-aliased Bloom directory: the
        // forwarded probe set includes a false-positive target, so
        // the single-probe 3-hop fast path must fall back cleanly
        // when the "owner" answers NACK instead of DATA.
        Scenario s;
        s.name = "threehop-bloom-cross";
        s.note = "3-hop fast path meets a Bloom false-positive owner";
        s.stresses = {"3hop", "bloom-nack", "value"};
        s.cfg.threeHop = true;
        s.cfg.directory = DirectoryKind::TaglessBloom;
        s.cfg.bloomBuckets = 1;
        s.cfg.bloomHashes = 1;
        s.accesses = {
            {1, wordAddr(64, 2, 0), true, 0xe0},
            {0, wordAddr(64, 0, 0), true, 0xe1},
            {1, wordAddr(64, 0, 0), false, 0},
            {0, wordAddr(64, 2, 0), false, 0},
        };
        lib.push_back(std::move(s));
    }

    {
        // Wide-mask boundary race on a real 8x8 mesh: the corner
        // cores 0 and 63 (bit 0 and bit 63 of sharer-mask word 0)
        // race S->M upgrades on one word. Same race as
        // "upgrade-race", but the 64-node geometry drives every
        // sharer set to the top of the first mask word and exercises
        // the multi-word sleep-set channel bitmap (4096 channel bits
        // on 64 nodes), so this also regression-locks POR at scale.
        Scenario s;
        s.name = "upgrade-race-8x8";
        s.note = "corner cores 0/63 race upgrades on an 8x8 mesh";
        s.stresses = {"swmr", "value", "upgrade", "large-mesh"};
        s.large = true;
        s.cfg.setMesh(8, 8);
        s.accesses = {
            {0, wordAddr(64, 0, 0), false, 0},
            {63, wordAddr(64, 0, 0), false, 0},
            {0, wordAddr(64, 0, 0), true, 0xf0},
            {63, wordAddr(64, 0, 0), true, 0xf1},
        };
        lib.push_back(std::move(s));
    }

    {
        // Recall storm across an 8x8 mesh: four corner cores populate
        // tile 0's only L2 entry with three colliding regions (region
        // indices 0, 64, 128 all home on tile 0 and share its single
        // set), so each fill recalls the previous region from sharers
        // on opposite corners of the mesh. Exercises recall fan-out
        // with 64-wide sharer masks and the pinned-set deferral at
        // scale.
        Scenario s;
        s.name = "recall-storm-8x8";
        s.note = "corner cores churn tile 0's one-entry set on 8x8";
        s.stresses = {"recall", "pinning", "inclusion", "value",
                      "large-mesh"};
        s.large = true;
        s.cfg.setMesh(8, 8);
        s.cfg.l2BytesPerTile = 64;
        s.cfg.l2Assoc = 1;
        s.accesses = {
            {0, wordAddr(64, 0, 0), true, 0xc0},
            {63, wordAddr(64, 0, 1), false, 0},
            {7, wordAddr(64, 64, 0), true, 0xc1},
            {56, wordAddr(64, 128, 0), true, 0xc2},
            {63, wordAddr(64, 0, 0), false, 0},
        };
        lib.push_back(std::move(s));
    }

    {
        // Minimal 16x16 widest-mask smoke: cores 0 and 255 (bit 63 of
        // mask word 3) share then split one region. Keeps the
        // schedule space tiny — the point is that a 256-core Run
        // (65536 potential mesh channels, 4-word sharer sets) builds,
        // explores, and fingerprints correctly at the top of the
        // supported range.
        Scenario s;
        s.name = "wide-mask-16x16";
        s.note = "cores 0/255 share one word on a 16x16 mesh";
        s.stresses = {"swmr", "value", "large-mesh"};
        s.large = true;
        s.cfg.setMesh(16, 16);
        s.accesses = {
            {0, wordAddr(64, 0, 0), false, 0},
            {255, wordAddr(64, 0, 0), false, 0},
            {255, wordAddr(64, 0, 0), true, 0xff},
        };
        lib.push_back(std::move(s));
    }

    return lib;
}

} // namespace

const std::vector<Scenario> &
scenarioLibrary()
{
    static const std::vector<Scenario> lib = buildLibrary();
    return lib;
}

const Scenario *
findScenario(const std::string &name)
{
    for (const auto &s : scenarioLibrary()) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

} // namespace protozoa::check
