#include "common/log.hh"

#include <cstdio>
#include <cstdlib>

namespace protozoa {

std::atomic<bool> debugTraceEnabled{false};

namespace {

void
vreport(const char *tag, const char *fmt, std::va_list ap)
{
    std::fprintf(stderr, "%s: ", tag);
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
}

} // namespace

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    vreport("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    vreport("fatal", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    vreport("warn", fmt, ap);
    va_end(ap);
}

void
dtrace(const char *fmt, ...)
{
    if (!debugTraceEnabled.load(std::memory_order_relaxed))
        return;
    std::va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    va_end(ap);
}

} // namespace protozoa
