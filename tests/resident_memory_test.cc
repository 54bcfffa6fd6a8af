/**
 * @file
 * Resident memory of a freshly built System.
 *
 * The worst-case tables a System reserves (directory tags, LRU stamps
 * and entry sidecars, the Amoeba L1 block slots) live in FixedArrays,
 * whose large instances are page mappings of their own: the kernel
 * backs a page only once it is written. Building a Table-4 machine
 * therefore makes resident only what construction writes, a small
 * fraction of the more than 100 MB it reserves. The test runs in a
 * binary of its own so that no earlier System has dirtied heap pages
 * a new reservation could land on.
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

} // namespace
} // namespace protozoa
