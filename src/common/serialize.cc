#include "common/serialize.hh"

#include <algorithm>

namespace protozoa {

void
Serializer::grow(std::size_t n)
{
    const std::size_t need = len + n;
    if (need > buf.capacity())
        buf.reserve(len + std::max(len, n));
    buf.resize(std::min(buf.capacity(), need + std::min(need, kWindow)));
}

} // namespace protozoa
