/**
 * @file
 * FixedArray: zero-filled storage for a number of elements fixed at
 * construction.
 *
 * The simulator's big tables (directory tags, LRU stamps and entry
 * sidecars, the Amoeba L1 block slots, the mesh's per-pair arrival
 * table) are sized for the worst case and mostly never touched. At
 * kMapThresholdBytes or more the array takes an anonymous private
 * mapping of its own: the kernel supplies zero pages lazily, so
 * resident memory follows the elements written, and destruction
 * unmaps it. A heap array is instead zero-filled whole at every
 * construction, which makes all of its pages resident (and faults
 * them in when the heap hands out fresh ones), and an untouched heap
 * reservation can land on pages an earlier System dirtied, so peak
 * RSS and construction time would follow the heap's history rather
 * than use. The threshold is 16 KiB, four pages. It maps the 8x8
 * machine's per-tile tag, LRU and sidecar-index tables (32-64 KiB)
 * and its mesh's 32 KiB arrival table, 10 MiB in 193 arrays that the
 * heap would zero at every construction, and the 16x16 tile's 16 KiB
 * tags and LRU stamps. Smaller arrays, such as most of the
 * state-space explorer's, stay on the heap: a mapping costs a few
 * microseconds of system calls, many times the memset of a small
 * block the heap recycles. A mapped array has no AddressSanitizer
 * redzones around it, so ASan's heap bounds checks do not see an
 * index past its end; arrays under the threshold keep them.
 *
 * Elements are neither constructed nor destroyed by the array. They
 * start as zero bytes, a valid value for the integer and plain
 * aggregate tables that use it directly; an owner storing any other
 * type constructs and destroys its elements in place.
 */

#ifndef PROTOZOA_COMMON_FIXED_ARRAY_HH
#define PROTOZOA_COMMON_FIXED_ARRAY_HH

#include <cstddef>
#include <utility>

namespace protozoa {

/** Arrays of at least this many bytes get their own mapping. */
constexpr std::size_t kMapThresholdBytes = 16 * 1024;

/** @p bytes of zeroed memory (nullptr for 0); fatal if unavailable. */
void *allocZeroed(std::size_t bytes);
/** Release memory from allocZeroed(@p bytes). */
void releaseZeroed(void *p, std::size_t bytes);

template <typename T>
class FixedArray
{
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "FixedArray storage is only new-aligned");

  public:
    FixedArray() = default;

    explicit FixedArray(std::size_t n)
        : ptr(static_cast<T *>(allocZeroed(n * sizeof(T)))), count(n)
    {
    }

    FixedArray(FixedArray &&o) noexcept
        : ptr(std::exchange(o.ptr, nullptr)),
          count(std::exchange(o.count, 0))
    {
    }

    FixedArray &
    operator=(FixedArray &&o) noexcept
    {
        std::swap(ptr, o.ptr);
        std::swap(count, o.count);
        return *this;
    }

    FixedArray(const FixedArray &) = delete;
    FixedArray &operator=(const FixedArray &) = delete;

    ~FixedArray() { releaseZeroed(ptr, count * sizeof(T)); }

    std::size_t size() const { return count; }
    T *data() { return ptr; }
    const T *data() const { return ptr; }
    T &operator[](std::size_t i) { return ptr[i]; }
    const T &operator[](std::size_t i) const { return ptr[i]; }

  private:
    T *ptr = nullptr;
    std::size_t count = 0;
};

} // namespace protozoa

#endif // PROTOZOA_COMMON_FIXED_ARRAY_HH
