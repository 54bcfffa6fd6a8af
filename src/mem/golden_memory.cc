#include "mem/golden_memory.hh"

#include <algorithm>
#include <cstring>

namespace protozoa {

void
WordStore::readRange(Addr addr, std::uint64_t *dst, unsigned nwords) const
{
    Addr wa = wordAlign(addr);
    while (nwords > 0) {
        const unsigned w0 = wordIndex(wa);
        const unsigned chunk = std::min(nwords, kPageWords - w0);
        if (const Page *page = findPage(pageBase(wa))) {
            std::memcpy(dst, &page->words[w0],
                        std::size_t(chunk) * sizeof(std::uint64_t));
        } else {
            for (unsigned i = 0; i < chunk; ++i)
                dst[i] = initialValue(wa + Addr(i) * kWordBytes);
        }
        dst += chunk;
        wa += Addr(chunk) * kWordBytes;
        nwords -= chunk;
    }
}

void
WordStore::writeRange(Addr addr, const std::uint64_t *src, unsigned nwords)
{
    Addr wa = wordAlign(addr);
    while (nwords > 0) {
        const unsigned w0 = wordIndex(wa);
        const unsigned chunk = std::min(nwords, kPageWords - w0);
        Page &page = findOrCreatePage(pageBase(wa));
        std::memcpy(&page.words[w0], src,
                    std::size_t(chunk) * sizeof(std::uint64_t));
        static_assert(kPageWords <= 16,
                      "written bitmap narrower than a page");
        const unsigned run = chunk >= kPageWords
            ? 0xffffu
            : ((1u << chunk) - 1u) << w0;
        written += static_cast<std::size_t>(
            std::popcount(run & ~unsigned(page.written)));
        page.written |= static_cast<std::uint16_t>(run);
        src += chunk;
        wa += Addr(chunk) * kWordBytes;
        nwords -= chunk;
    }
}

} // namespace protozoa
