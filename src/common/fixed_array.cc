#include "common/fixed_array.hh"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>
#include <new>

#include "common/log.hh"

namespace protozoa {

void *
allocZeroed(std::size_t bytes)
{
    if (bytes == 0)
        return nullptr;
    if (bytes < kMapThresholdBytes)
        return std::memset(::operator new(bytes), 0, bytes);
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        fatal("cannot map %zu bytes: %s", bytes, std::strerror(errno));
    return p;
}

void
releaseZeroed(void *p, std::size_t bytes)
{
    if (!p)
        return;
    if (bytes < kMapThresholdBytes)
        ::operator delete(p);
    else
        munmap(p, bytes);
}

} // namespace protozoa
