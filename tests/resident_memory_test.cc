/**
 * @file
 * Resident memory of a freshly built System.
 *
 * The worst-case tables a System reserves (directory tags, LRU stamps
 * and entry sidecars, the Amoeba L1 block slots, the mesh's per-pair
 * arrival table) live in FixedArrays, whose instances of 16 KiB or
 * more are page mappings of their own: the kernel backs a page only
 * once it is written. Building a Table-4 or 8x8 machine therefore
 * makes resident only what construction writes, a small fraction of
 * what it reserves, and the invariant check holds one L1 set's
 * regions at a time. Each case runs in a process of its own (ctest
 * runs one per case) so that no earlier System has dirtied heap
 * pages a new reservation could land on.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <fstream>

#include "protocol_driver.hh"

namespace protozoa {
namespace {

/** Resident set size of this process, from /proc/self/statm. */
std::uint64_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size_pages = 0;
    std::uint64_t resident_pages = 0;
    statm >> size_pages >> resident_pages;
    EXPECT_TRUE(statm.good()) << "cannot read /proc/self/statm";
    return resident_pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

TEST(ResidentMemory, Table4SystemIsResidentOnlyWhereWritten)
{
    const SystemConfig cfg;   // Table 4: 16 cores, 2 MB L2 per tile
    ASSERT_EQ(cfg.numCores, 16u);
    ASSERT_EQ(cfg.l2BytesPerTile, 2ull * 1024 * 1024);
    Workload wl = emptyWorkload(cfg.numCores);

    const std::uint64_t before = residentBytes();
    System sys(cfg, std::move(wl));
    const std::uint64_t grown = residentBytes() - before;
    EXPECT_LT(grown, 4ull << 20)
        << "building a 16-core System made " << (grown >> 10)
        << " KiB resident";
}

/** fig_scaling's 8x8 point: the Table-4 machine, 32 MB of L2 in all. */
SystemConfig
mesh8x8()
{
    SystemConfig cfg;
    cfg.setMesh(8, 8);
    cfg.l2BytesPerTile = (2ull * 1024 * 1024 * 16) / cfg.numCores;
    return cfg;
}

TEST(ResidentMemory, Mesh8x8SystemIsResidentOnlyWhereWritten)
{
    const SystemConfig cfg = mesh8x8();
    ASSERT_EQ(cfg.numCores, 64u);
    Workload wl = emptyWorkload(cfg.numCores);

    const std::uint64_t before = residentBytes();
    System sys(cfg, std::move(wl));
    const std::uint64_t grown = residentBytes() - before;
    EXPECT_LT(grown, 4ull << 20)
        << "building a 64-core System made " << (grown >> 10)
        << " KiB resident";
}

/**
 * Four full-region blocks fill each 288-byte L1 set, so 64 L1s of 256
 * sets hold 65,536 distinct regions. A check that folded them all
 * into one table would grow it to 131,072 slots; folded one set index
 * at a time it holds 256 regions.
 */
TEST(ResidentMemory, InvariantCheckHoldsOneSetOfRegions)
{
    const SystemConfig cfg = mesh8x8();
    System sys(cfg, emptyWorkload(cfg.numCores));
    const unsigned per_set =
        cfg.l1BytesPerSet / (kBlockTagBytes + cfg.regionBytes);
    ASSERT_EQ(per_set, 4u);

    for (CoreId c = 0; c < cfg.numCores; ++c) {
        for (unsigned set = 0; set < cfg.l1Sets; ++set) {
            for (unsigned j = 0; j < per_set; ++j) {
                const Addr index =
                    set + Addr(cfg.l1Sets) * (c * per_set + j);
                AmoebaBlock blk;
                blk.region = 0x40000000 + index * cfg.regionBytes;
                blk.range = WordRange::full(cfg.regionWords());
                blk.words.assign(blk.range.words(), 0);
                sys.l1(c).cacheStorage().insert(blk);
            }
        }
    }
    std::size_t blocks = 0;
    for (CoreId c = 0; c < cfg.numCores; ++c)
        blocks += sys.l1(c).cacheStorage().blockCount();
    ASSERT_EQ(blocks, 65'536u);

    const std::uint64_t before = residentBytes();
    EXPECT_EQ(sys.checkCoherenceInvariant(), std::nullopt);
    const std::uint64_t grown = residentBytes() - before;
    EXPECT_LT(grown, 1ull << 20)
        << "checking 65,536 resident regions made " << (grown >> 10)
        << " KiB resident";
}

} // namespace
} // namespace protozoa
