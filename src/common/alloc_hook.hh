/**
 * @file
 * Heap-allocation counting hook for the zero-allocation regression
 * tests.
 *
 * A test binary opts in by placing PROTOZOA_DEFINE_COUNTING_NEW in one
 * translation unit: this replaces the global operator new/delete for
 * that binary with counting wrappers. The library itself never defines
 * the operators, so production binaries keep the system allocator
 * untouched.
 *
 * Counters are monotonically increasing; a test snapshots
 * allocCount() around a window of simulation and asserts the delta.
 */

#ifndef PROTOZOA_COMMON_ALLOC_HOOK_HH
#define PROTOZOA_COMMON_ALLOC_HOOK_HH

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace protozoa {

/** Allocation counters bumped by the interposed operators. */
struct AllocHook
{
    static std::atomic<std::uint64_t> news;
    static std::atomic<std::uint64_t> deletes;

    static std::uint64_t allocCount()
    {
        return news.load(std::memory_order_relaxed);
    }
};

} // namespace protozoa

/**
 * Define counting replacements of the global allocation functions.
 * Place exactly once, at namespace scope, in the test's main TU.
 *
 * The counting operator new and the four operator deletes are kept
 * out of line: inlined into a caller, GCC pairs the malloc of one with
 * the free of the other and reports a false -Wmismatched-new-delete.
 */
#define PROTOZOA_DEFINE_COUNTING_NEW                                      \
    std::atomic<std::uint64_t> protozoa::AllocHook::news{0};              \
    std::atomic<std::uint64_t> protozoa::AllocHook::deletes{0};           \
    __attribute__((noinline)) void *operator new(std::size_t sz)          \
    {                                                                     \
        protozoa::AllocHook::news.fetch_add(1,                            \
                                            std::memory_order_relaxed);   \
        if (void *p = std::malloc(sz ? sz : 1))                           \
            return p;                                                     \
        throw std::bad_alloc();                                           \
    }                                                                     \
    void *operator new[](std::size_t sz) { return ::operator new(sz); }   \
    __attribute__((noinline)) void operator delete(void *p) noexcept      \
    {                                                                     \
        protozoa::AllocHook::deletes.fetch_add(                           \
            1, std::memory_order_relaxed);                                \
        std::free(p);                                                     \
    }                                                                     \
    __attribute__((noinline)) void operator delete[](void *p) noexcept    \
    {                                                                     \
        protozoa::AllocHook::deletes.fetch_add(                           \
            1, std::memory_order_relaxed);                                \
        std::free(p);                                                     \
    }                                                                     \
    __attribute__((noinline)) void                                        \
    operator delete(void *p, std::size_t) noexcept                        \
    {                                                                     \
        protozoa::AllocHook::deletes.fetch_add(                           \
            1, std::memory_order_relaxed);                                \
        std::free(p);                                                     \
    }                                                                     \
    __attribute__((noinline)) void                                        \
    operator delete[](void *p, std::size_t) noexcept                      \
    {                                                                     \
        protozoa::AllocHook::deletes.fetch_add(                           \
            1, std::memory_order_relaxed);                                \
        std::free(p);                                                     \
    }

#endif // PROTOZOA_COMMON_ALLOC_HOOK_HH
