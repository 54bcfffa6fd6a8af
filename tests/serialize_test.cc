/**
 * @file
 * Unit tests for the Serializer's write cursor: the bytes it produces
 * must equal a plain append-only reference stream wherever the writes
 * fall relative to its growth steps and write windows, however its
 * buffer was obtained, and whatever is done with the image after.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/serialize.hh"

namespace protozoa {
namespace {

/** Appends the same fields as a Serializer, byte by byte. */
struct Reference
{
    std::vector<std::uint8_t> bytes;

    void
    append(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const std::uint8_t *>(p);
        bytes.insert(bytes.end(), b, b + n);
    }
};

/**
 * Write @p fields pseudo-random 1-, 4- and 8-byte fields, with a
 * string or a longer raw run every so often, to both @p s and @p ref.
 */
void
writeFields(Serializer &s, Reference &ref, std::uint64_t seed,
            unsigned fields)
{
    Rng rng(seed);
    for (unsigned i = 0; i < fields; ++i) {
        const std::uint64_t v = rng.next();
        switch (rng.below(5)) {
          case 0: {
            const auto b = static_cast<std::uint8_t>(v);
            s.writeU8(b);
            ref.append(&b, 1);
            break;
          }
          case 1: {
            const auto w = static_cast<std::uint32_t>(v);
            s.writeU32(w);
            ref.append(&w, 4);
            break;
          }
          case 2:
            s.writeU64(v);
            ref.append(&v, 8);
            break;
          case 3: {
            const std::string str(rng.below(40), char('a' + v % 26));
            s.writeString(str);
            const std::uint64_t n = str.size();
            ref.append(&n, 8);
            ref.append(str.data(), str.size());
            break;
          }
          default: {
            std::vector<std::uint8_t> run(rng.below(300));
            for (std::uint8_t &b : run)
                b = static_cast<std::uint8_t>(rng.next());
            s.writeBytes(run.data(), run.size());
            ref.append(run.data(), run.size());
            break;
          }
        }
        ASSERT_EQ(s.size(), ref.bytes.size()) << "after field " << i;
    }
}

TEST(Serializer, BytesMatchReferenceAcrossGrowth)
{
    // Enough fields to pass several doublings and many 4 KiB windows.
    Serializer s;
    Reference ref;
    writeFields(s, ref, 1, 20000);
    ASSERT_GT(s.size(), 16u * 4096);
    EXPECT_EQ(s.bytes(), ref.bytes);

    // bytes() drops the window; writing on grows it back.
    writeFields(s, ref, 2, 3000);
    EXPECT_EQ(s.bytes(), ref.bytes);
}

TEST(Serializer, FieldsReadBack)
{
    Serializer s;
    for (std::uint32_t i = 0; i < 5000; ++i) {
        s.writeU8(static_cast<std::uint8_t>(i));
        s.writeU32(i * 7);
        s.writeU64(std::uint64_t(i) << 33);
    }
    Deserializer d(s.bytes());
    for (std::uint32_t i = 0; i < 5000; ++i) {
        ASSERT_EQ(d.readU8(), static_cast<std::uint8_t>(i));
        ASSERT_EQ(d.readU32(), i * 7);
        ASSERT_EQ(d.readU64(), std::uint64_t(i) << 33);
    }
    EXPECT_TRUE(d.atEnd());
    EXPECT_FALSE(d.failed());
}

TEST(Serializer, RecycledBufferGivesSameBytes)
{
    Serializer fresh;
    Reference ref;
    writeFields(fresh, ref, 3, 2000);

    // A recycled buffer that held a shorter image, a longer one, and
    // bytes that are not an image at all.
    for (const std::size_t held : {std::size_t(0), std::size_t(100),
                                   ref.bytes.size() / 2,
                                   ref.bytes.size() * 3}) {
        std::vector<std::uint8_t> storage(held, 0xab);
        Serializer s(std::move(storage));
        EXPECT_EQ(s.size(), 0u);
        Reference again;
        writeFields(s, again, 3, 2000);
        EXPECT_EQ(s.bytes(), fresh.bytes()) << "buffer held " << held;
    }

    // The image moved out of one serializer, written over by the next.
    Serializer first;
    Reference r1;
    writeFields(first, r1, 4, 3000);
    Serializer second(first.take());
    Reference r2;
    writeFields(second, r2, 5, 500);
    EXPECT_EQ(second.bytes(), r2.bytes);
}

TEST(Serializer, TakeLeavesItEmptyAndReusable)
{
    Serializer s;
    Reference ref;
    writeFields(s, ref, 6, 1500);
    const std::vector<std::uint8_t> img = s.take();
    EXPECT_EQ(img, ref.bytes);
    EXPECT_EQ(s.size(), 0u);
    EXPECT_TRUE(s.bytes().empty());

    Reference next;
    writeFields(s, next, 7, 1500);
    EXPECT_EQ(s.bytes(), next.bytes);
    EXPECT_EQ(s.take(), next.bytes);

    // A moved-from serializer is empty and reusable too.
    Serializer a;
    a.writeU64(42);
    Serializer b(std::move(a));
    EXPECT_EQ(b.size(), 8u);
    EXPECT_EQ(a.size(), 0u);
    a.writeU32(7);
    EXPECT_EQ(a.size(), 4u);
}

TEST(Serializer, WriteLargerThanTheWindow)
{
    std::vector<std::uint8_t> big(3 * 4096 + 5);
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<std::uint8_t>(i * 31 + 1);

    // Into an empty serializer, and after a few bytes.
    Serializer s;
    s.writeBytes(big.data(), big.size());
    EXPECT_EQ(s.bytes(), big);

    Serializer t;
    t.writeU8(9);
    t.writeBytes(big.data(), big.size());
    t.writeBytes(big.data(), big.size());
    ASSERT_EQ(t.size(), 1 + 2 * big.size());
    EXPECT_EQ(t.bytes()[0], 9u);
    EXPECT_EQ(0, std::memcmp(t.bytes().data() + 1, big.data(), big.size()));
    EXPECT_EQ(0, std::memcmp(t.bytes().data() + 1 + big.size(), big.data(),
                             big.size()));

    // Zero-length writes change nothing.
    t.writeBytes(big.data(), 0);
    Serializer empty;
    empty.writeBytes(nullptr, 0);
    EXPECT_EQ(empty.size(), 0u);
    EXPECT_EQ(t.size(), 1 + 2 * big.size());
}

TEST(Serializer, WriteFileRoundTrips)
{
    Serializer s;
    Reference ref;
    writeFields(s, ref, 8, 4000);
    const std::string path = "serialize_test_roundtrip.bin";
    std::string err;
    ASSERT_TRUE(s.writeFile(path, &err)) << err;

    // The file holds exactly the written bytes, not the window.
    std::vector<std::uint8_t> back;
    ASSERT_TRUE(Deserializer::readFileInto(path, back, &err)) << err;
    EXPECT_EQ(back, ref.bytes);
    std::remove(path.c_str());

    Serializer empty;
    ASSERT_TRUE(empty.writeFile(path, &err)) << err;
    ASSERT_TRUE(Deserializer::readFileInto(path, back, &err)) << err;
    EXPECT_TRUE(back.empty());
    std::remove(path.c_str());
}

} // namespace
} // namespace protozoa
