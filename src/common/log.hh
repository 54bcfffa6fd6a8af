/**
 * @file
 * Logging and error-reporting helpers, patterned after gem5's
 * panic()/fatal()/warn() trio.
 *
 *  - panic():  an internal simulator invariant was violated (a bug).
 *  - fatal():  the user supplied an impossible configuration.
 *  - warn():   something suspicious but survivable happened.
 *  - PROTO_DTRACE(): compiled-in debug tracing, gated by a runtime flag.
 */

#ifndef PROTOZOA_COMMON_LOG_HH
#define PROTOZOA_COMMON_LOG_HH

#include <atomic>
#include <cstdarg>
#include <string>

namespace protozoa {

[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

void warn(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Debug-trace control: when true, PROTO_DTRACE statements print.
 * Atomic so parallel sweep workers may race a toggle without UB
 * (trace lines themselves may still interleave).
 */
extern std::atomic<bool> debugTraceEnabled;

/** Print a debug-trace line (no-op unless debugTraceEnabled). */
void dtrace(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Lazy debug trace: the arguments are NOT evaluated unless tracing is
 * enabled. Hot paths must use this instead of calling dtrace()
 * directly — dtrace("%s", msg.toString().c_str()) would pay for the
 * string construction on every message even with tracing off.
 */
#define PROTO_DTRACE(...)                                                 \
    do {                                                                  \
        if (::protozoa::debugTraceEnabled.load(                           \
                std::memory_order_relaxed)) [[unlikely]]                  \
            ::protozoa::dtrace(__VA_ARGS__);                              \
    } while (0)

/**
 * Assert-like invariant check that survives NDEBUG builds.
 * Use for protocol invariants whose violation must never be silent.
 */
#define PROTO_ASSERT(cond, fmt, ...)                                      \
    do {                                                                  \
        if (!(cond))                                                      \
            ::protozoa::panic("assertion '%s' failed at %s:%d: " fmt,    \
                              #cond, __FILE__, __LINE__,                  \
                              ##__VA_ARGS__);                             \
    } while (0)

} // namespace protozoa

#endif // PROTOZOA_COMMON_LOG_HH
