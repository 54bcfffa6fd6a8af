/**
 * @file
 * Unit tests for KeyedFifo, the sorted per-key container behind the
 * directory's transactions and wait queues, the L1 writeback buffer
 * and the mesh's parked channels.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/keyed_fifo.hh"

namespace protozoa {
namespace {

using Fifo = KeyedFifo<std::uint64_t, int>;

/** Every item as (key, value), in walk order. */
std::vector<std::pair<std::uint64_t, int>>
items(const Fifo &f)
{
    std::vector<std::pair<std::uint64_t, int>> out;
    for (const auto &[key, value] : f)
        out.emplace_back(key, value);
    return out;
}

std::vector<int>
values(std::span<const Fifo::Item> run)
{
    std::vector<int> out;
    for (const auto &item : run)
        out.push_back(item.value);
    return out;
}

TEST(KeyedFifo, WalksInAscendingKeyOrder)
{
    Fifo f;
    f.push(0x300, 3);
    f.push(0x100, 1);
    f.push(0x400, 4);
    f.push(0x200, 2);
    const std::vector<std::pair<std::uint64_t, int>> want = {
        {0x100, 1}, {0x200, 2}, {0x300, 3}, {0x400, 4}};
    EXPECT_EQ(items(f), want);
    EXPECT_EQ(f.size(), 4u);
}

TEST(KeyedFifo, FifoWithinAKeyAcrossInterleavedKeys)
{
    Fifo f;
    f.push(0x200, 20);
    f.push(0x100, 10);
    f.push(0x200, 21);
    f.push(0x100, 11);
    f.push(0x200, 22);
    const std::vector<std::pair<std::uint64_t, int>> want = {
        {0x100, 10}, {0x100, 11}, {0x200, 20}, {0x200, 21}, {0x200, 22}};
    EXPECT_EQ(items(f), want);

    EXPECT_EQ(f.popFront(0x200), 20);
    EXPECT_EQ(f.popFront(0x100), 10);
    EXPECT_EQ(f.popFront(0x200), 21);
    EXPECT_EQ(values(f.run(0x100)), std::vector<int>{11});
    EXPECT_EQ(values(f.run(0x200)), std::vector<int>{22});
}

TEST(KeyedFifo, FrontRunAndPopOnPresentAndAbsentKeys)
{
    Fifo f;
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.front(0x100), nullptr);
    EXPECT_FALSE(f.contains(0x100));
    EXPECT_TRUE(f.run(0x100).empty());

    f.push(0x100, 1);
    f.push(0x100, 2);
    f.push(0x300, 3);
    ASSERT_NE(f.front(0x100), nullptr);
    EXPECT_EQ(*f.front(0x100), 1);
    EXPECT_TRUE(f.contains(0x300));
    // A key between, below and above the present ones.
    for (const std::uint64_t absent : {0x0ull, 0x200ull, 0x400ull}) {
        EXPECT_EQ(f.front(absent), nullptr);
        EXPECT_FALSE(f.contains(absent));
        EXPECT_TRUE(f.run(absent).empty());
    }
    EXPECT_EQ(values(f.run(0x100)), (std::vector<int>{1, 2}));

    // front() hands out the stored value itself.
    *f.front(0x300) = 30;
    EXPECT_EQ(f.popFront(0x300), 30);
    EXPECT_FALSE(f.contains(0x300));
    EXPECT_EQ(f.size(), 2u);
}

TEST(KeyedFifo, PushAfterAKeysLastItemWasPopped)
{
    Fifo f;
    f.push(0x100, 1);
    f.push(0x200, 2);
    EXPECT_EQ(f.popFront(0x100), 1);
    EXPECT_FALSE(f.contains(0x100));
    f.push(0x100, 5);
    f.push(0x100, 6);
    const std::vector<std::pair<std::uint64_t, int>> want = {
        {0x100, 5}, {0x100, 6}, {0x200, 2}};
    EXPECT_EQ(items(f), want);
    EXPECT_EQ(*f.front(0x100), 5);
}

TEST(KeyedFifo, ForEachRunVisitsEachKeyOnce)
{
    Fifo f;
    f.push(7, 70);
    f.push(3, 30);
    f.push(7, 71);
    std::vector<std::pair<std::uint64_t, std::vector<int>>> runs;
    f.forEachRun([&](std::uint64_t key, std::span<const Fifo::Item> run) {
        runs.emplace_back(key, values(run));
    });
    const std::vector<std::pair<std::uint64_t, std::vector<int>>> want = {
        {3, {30}}, {7, {70, 71}}};
    EXPECT_EQ(runs, want);
}

TEST(KeyedFifo, PushUniqueKeepsOneItemPerKey)
{
    Fifo f;
    f.pushUnique(0x200, 2);
    f.pushUnique(0x100, 1);
    EXPECT_EQ(f.size(), 2u);
    EXPECT_EQ(*f.front(0x100), 1);
    EXPECT_EQ(f.popFront(0x200), 2);
    f.pushUnique(0x200, 3);
    EXPECT_EQ(*f.front(0x200), 3);
}

TEST(KeyedFifoDeath, PushUniqueRefusesADuplicateKey)
{
    Fifo f;
    f.pushUnique(0x100, 1);
    EXPECT_DEATH(f.pushUnique(0x100, 2), "duplicate key");
}

TEST(KeyedFifoDeath, PopOfAnAbsentKeyPanics)
{
    Fifo f;
    f.push(0x100, 1);
    EXPECT_DEATH(f.popFront(0x200), "absent key");
}

} // namespace
} // namespace protozoa
