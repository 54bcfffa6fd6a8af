/**
 * @file
 * Byte-level serialization primitives for the snapshot subsystem.
 *
 * Deliberately minimal: a Serializer appends raw little-endian bytes to
 * a growable buffer through a write cursor (one capacity compare and
 * one memcpy per field; growth is out of line), and a Deserializer
 * reads them back with bounds checking. No exceptions — a short or
 * corrupt input flips a sticky fail flag and every subsequent read
 * returns zeroed values, so callers validate once at the end (or at
 * section boundaries) and surface a clear error string instead of UB.
 *
 * Only trivially-copyable types may cross this boundary raw; anything
 * with internal pointers (flat tables, pools, SmallVecs) is serialized
 * element-wise by its owner. Format compatibility is governed by
 * kSnapshotVersion in snapshot_tags.hh: any layout change to a
 * serialized struct must bump it (see DESIGN.md §13).
 */

#ifndef PROTOZOA_COMMON_SERIALIZE_HH
#define PROTOZOA_COMMON_SERIALIZE_HH

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace protozoa {

class Serializer
{
  public:
    Serializer() = default;

    /**
     * Write into @p storage from its start, reusing its capacity; its
     * current bytes are the first write window.
     */
    explicit Serializer(std::vector<std::uint8_t> storage)
        : buf(std::move(storage))
    {
    }

    Serializer(const Serializer &) = default;
    Serializer &operator=(const Serializer &) = default;

    /** A moved-from serializer is empty and reusable. */
    Serializer(Serializer &&o) noexcept
        : buf(std::move(o.buf)), len(std::exchange(o.len, 0))
    {
    }

    Serializer &
    operator=(Serializer &&o) noexcept
    {
        buf = std::move(o.buf);
        len = std::exchange(o.len, 0);
        return *this;
    }

    void
    writeBytes(const void *p, std::size_t n)
    {
        if (n == 0)
            return;
        if (n > buf.size() - len)
            grow(n);
        std::memcpy(buf.data() + len, p, n);
        len += n;
    }

    /**
     * Append @p v's object bytes. Where the compiler can clear padding
     * (GCC 11+), padding bytes are written as zero: they hold whatever
     * the stack or heap last left there, and zeroing them lets two
     * identical runs save identical images.
     */
    template <typename T>
    void
    writeRaw(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "raw serialization needs a trivially copyable type");
#if __has_builtin(__builtin_clear_padding)
        if constexpr (!std::has_unique_object_representations_v<T>) {
            alignas(T) unsigned char bytes[sizeof(T)];
            std::memcpy(bytes, &v, sizeof(T));
            __builtin_clear_padding(reinterpret_cast<T *>(bytes));
            writeBytes(bytes, sizeof(T));
            return;
        }
#endif
        writeBytes(&v, sizeof(T));
    }

    void writeU8(std::uint8_t v) { writeRaw(v); }
    void writeU16(std::uint16_t v) { writeRaw(v); }
    void writeU32(std::uint32_t v) { writeRaw(v); }
    void writeU64(std::uint64_t v) { writeRaw(v); }

    void
    writeString(const std::string &s)
    {
        writeU64(s.size());
        writeBytes(s.data(), s.size());
    }

    /** Length-prefixed vector of trivially-copyable elements. */
    template <typename T>
    void
    writeVecRaw(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "raw serialization needs a trivially copyable type");
        writeU64(v.size());
        if constexpr (std::has_unique_object_representations_v<T>) {
            if (!v.empty())
                writeBytes(v.data(), v.size() * sizeof(T));
        } else {
            for (const T &e : v)
                writeRaw(e);
        }
    }

    /** The bytes written so far (the unwritten window is dropped). */
    const std::vector<std::uint8_t> &
    bytes() const
    {
        buf.resize(len);
        return buf;
    }

    std::size_t size() const { return len; }

    /** Move the image out; the serializer is left empty. */
    std::vector<std::uint8_t>
    take()
    {
        buf.resize(std::exchange(len, 0));
        return std::exchange(buf, {});
    }

    /** Atomically-ish persist the buffer (write temp + rename). */
    bool
    writeFile(const std::string &path, std::string *err = nullptr) const
    {
        const std::string tmp = path + ".tmp";
        std::FILE *f = std::fopen(tmp.c_str(), "wb");
        if (!f) {
            if (err)
                *err = "cannot open " + tmp + " for writing";
            return false;
        }
        const bool ok =
            len == 0 || std::fwrite(buf.data(), 1, len, f) == len;
        const bool closed = std::fclose(f) == 0;
        if (!ok || !closed) {
            if (err)
                *err = "short write to " + tmp;
            std::remove(tmp.c_str());
            return false;
        }
        if (std::rename(tmp.c_str(), path.c_str()) != 0) {
            if (err)
                *err = "cannot rename " + tmp + " to " + path;
            std::remove(tmp.c_str());
            return false;
        }
        return true;
    }

  private:
    /** Most bytes a growth zero-fills past the write that needed it. */
    static constexpr std::size_t kWindow = 4096;

    /**
     * Make room for @p n more bytes. Capacity grows as an appending
     * vector's does (to the written length plus the larger of it and
     * @p n), so a long image reallocates at the same lengths, and
     * peaks at the same memory, as before the write cursor. The
     * writable window extends past the write only by as much as the
     * buffer holds, and never by more than kWindow, so capacity
     * beyond it stays untouched memory. Out of line: the write path
     * stays one compare and one memcpy.
     */
    void grow(std::size_t n);

    /** [0, len) is written; [len, buf.size()) is the write window. */
    mutable std::vector<std::uint8_t> buf;
    std::size_t len = 0;
};

class Deserializer
{
  public:
    Deserializer(const std::uint8_t *data, std::size_t n)
        : base(data), len(n)
    {
    }

    explicit Deserializer(const std::vector<std::uint8_t> &v)
        : Deserializer(v.data(), v.size())
    {
    }

    static bool
    readFileInto(const std::string &path, std::vector<std::uint8_t> &out,
                 std::string *err = nullptr)
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        if (!f) {
            if (err)
                *err = "cannot open " + path;
            return false;
        }
        std::fseek(f, 0, SEEK_END);
        const long sz = std::ftell(f);
        std::fseek(f, 0, SEEK_SET);
        if (sz < 0) {
            std::fclose(f);
            if (err)
                *err = "cannot size " + path;
            return false;
        }
        out.resize(static_cast<std::size_t>(sz));
        const bool ok =
            out.empty() ||
            std::fread(out.data(), 1, out.size(), f) == out.size();
        std::fclose(f);
        if (!ok) {
            if (err)
                *err = "short read from " + path;
            return false;
        }
        return true;
    }

    bool
    readBytes(void *p, std::size_t n)
    {
        if (fail || n > len - pos) {
            fail = true;
            std::memset(p, 0, n);
            return false;
        }
        std::memcpy(p, base + pos, n);
        pos += n;
        return true;
    }

    template <typename T>
    bool
    readRaw(T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "raw serialization needs a trivially copyable type");
        return readBytes(&v, sizeof(T));
    }

    /**
     * readRaw that refuses the object unless every byte at
     * @p bool_offsets is 0 or 1: any other byte read back as a bool is
     * undefined behaviour. A refused object leaves @p v untouched and
     * fails the stream.
     */
    template <typename T>
    bool
    readRawChecked(T &v, std::initializer_list<std::size_t> bool_offsets)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "raw serialization needs a trivially copyable type");
        unsigned char raw[sizeof(T)];
        if (!readBytes(raw, sizeof(T)))
            return false;
        for (const std::size_t off : bool_offsets) {
            if (raw[off] > 1) {
                fail = true;
                return false;
            }
        }
        std::memcpy(static_cast<void *>(&v), raw, sizeof(T));
        return true;
    }

    std::uint8_t readU8() { std::uint8_t v = 0; readRaw(v); return v; }
    std::uint16_t readU16() { std::uint16_t v = 0; readRaw(v); return v; }
    std::uint32_t readU32() { std::uint32_t v = 0; readRaw(v); return v; }
    std::uint64_t readU64() { std::uint64_t v = 0; readRaw(v); return v; }

    bool
    readString(std::string &s)
    {
        const std::uint64_t n = readU64();
        if (fail || n > remaining()) {
            fail = true;
            s.clear();
            return false;
        }
        s.assign(reinterpret_cast<const char *>(base + pos),
                 static_cast<std::size_t>(n));
        pos += static_cast<std::size_t>(n);
        return true;
    }

    std::size_t remaining() const { return len - pos; }
    bool atEnd() const { return pos == len; }
    bool failed() const { return fail; }
    /** Mark the stream bad (caller-detected inconsistency). */
    void setFailed() { fail = true; }

  private:
    const std::uint8_t *base;
    std::size_t len;
    std::size_t pos = 0;
    bool fail = false;
};

} // namespace protozoa

#endif // PROTOZOA_COMMON_SERIALIZE_HH
