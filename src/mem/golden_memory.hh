/**
 * @file
 * Word-granularity value storage.
 *
 * WordStore is a sparse map from word-aligned addresses to 64-bit
 * values with a deterministic initial image (a hash of the address), so
 * untouched memory has a well-defined, reproducible content.
 *
 * Storage is paged at region granularity: an open-addressing table maps
 * the page base address to a 16-word payload. Compared to the former
 * per-word unordered_map this amortizes one table entry (and any growth
 * allocation) over a whole region, turns the store-commit and
 * load-check hot path into a single probe plus an array index, and —
 * because simulated footprints touch most words of each region — keeps
 * steady-state operation allocation-free once the working set's pages
 * exist.
 *
 * Two instances exist per simulation:
 *  - the MainMemory image behind the shared L2 (updated only by L2
 *    dirty evictions), and
 *  - the GoldenMemory oracle (updated at every store commit point),
 *    used to check that each load observes the most-recent store —
 *    i.e. that the protocol enforces word-level SWMR end to end.
 */

#ifndef PROTOZOA_MEM_GOLDEN_MEMORY_HH
#define PROTOZOA_MEM_GOLDEN_MEMORY_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "common/serialize.hh"
#include "common/types.hh"

namespace protozoa {

class WordStore
{
  public:
    /** Words per page; pages are aligned to kPageWords * kWordBytes. */
    static constexpr unsigned kPageWords = kMaxRegionWords;

    WordStore() { reset(64); }

    /** Deterministic initial content of a word (before any store). */
    static std::uint64_t
    initialValue(Addr word_addr)
    {
        std::uint64_t z = word_addr + 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Read the word containing @p addr. */
    std::uint64_t
    read(Addr addr) const
    {
        const Addr wa = wordAlign(addr);
        const Page *page = findPage(pageBase(wa));
        return page ? page->words[wordIndex(wa)] : initialValue(wa);
    }

    /** Write the word containing @p addr. */
    void
    write(Addr addr, std::uint64_t value)
    {
        const Addr wa = wordAlign(addr);
        Page &page = findOrCreatePage(pageBase(wa));
        const unsigned w = wordIndex(wa);
        if (!(page.written & (std::uint16_t(1) << w))) {
            page.written |= std::uint16_t(1) << w;
            ++written;
        }
        page.words[w] = value;
    }

    /**
     * Bulk-read @p nwords consecutive words starting at the word
     * containing @p addr. The common case — a region-sized range
     * inside one page — is a single probe plus one memcpy, replacing
     * the per-word read() loop of the directory fill path.
     */
    void readRange(Addr addr, std::uint64_t *dst, unsigned nwords) const;

    /**
     * Bulk-write @p nwords consecutive words starting at the word
     * containing @p addr: one probe, one memcpy, and one popcount
     * update of the written bitmap per touched page.
     */
    void writeRange(Addr addr, const std::uint64_t *src, unsigned nwords);

    /** Words ever written (not merely residing on a touched page). */
    std::size_t touchedWords() const { return written; }

    void clear() { reset(64); }

    /**
     * Visit every explicitly-written word as (addr, value), in
     * unspecified order. Reads of never-written words return the
     * deterministic initial image, so the written set IS the store's
     * entire observable state.
     */
    template <typename F>
    void forEachWritten(F &&fn) const;

    /** Serialize the written-word set (snapshot subsystem). */
    void
    saveState(Serializer &s) const
    {
        s.writeU64(touchedWords());
        forEachWritten([&](Addr a, std::uint64_t v) {
            s.writeU64(a);
            s.writeU64(v);
        });
    }

    /**
     * Restore into a fresh store. Replays the written set through
     * write(), which reproduces page population, the written bitmaps,
     * and touchedWords() exactly.
     */
    bool
    restoreState(Deserializer &d)
    {
        if (touchedWords() != 0)
            return false;
        std::uint64_t n = 0;
        if (!d.readRaw(n))
            return false;
        for (std::uint64_t i = 0; i < n; ++i) {
            std::uint64_t a = 0, v = 0;
            if (!d.readRaw(a) || !d.readRaw(v))
                return false;
            write(a, v);
        }
        return !d.failed();
    }

  private:
    struct Page
    {
        Addr base = 0;
        /** Bitmap of explicitly written words (touchedWords stat). */
        std::uint16_t written = 0;
        std::uint64_t words[kPageWords];
    };

    static Addr
    pageBase(Addr word_addr)
    {
        return word_addr & ~Addr(kPageWords * kWordBytes - 1);
    }

    static unsigned
    wordIndex(Addr word_addr)
    {
        return static_cast<unsigned>(
            (word_addr / kWordBytes) % kPageWords);
    }

    static std::uint64_t
    mix(Addr key)
    {
        std::uint64_t z = key + 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    std::size_t slotOf(Addr base) const
    {
        return static_cast<std::size_t>(mix(base)) & (pages.size() - 1);
    }

    const Page *
    findPage(Addr base) const
    {
        std::size_t i = slotOf(base);
        while (used[i]) {
            if (pages[i].base == base)
                return &pages[i];
            i = (i + 1) & (pages.size() - 1);
        }
        return nullptr;
    }

    Page &
    findOrCreatePage(Addr base)
    {
        if ((count + 1) * 10 >= pages.size() * 7)
            grow();
        std::size_t i = slotOf(base);
        while (used[i]) {
            if (pages[i].base == base)
                return pages[i];
            i = (i + 1) & (pages.size() - 1);
        }
        used[i] = 1;
        ++count;
        Page &page = pages[i];
        page.base = base;
        page.written = 0;
        // Pre-fill with the deterministic initial image so reads need
        // no per-word presence check.
        for (unsigned w = 0; w < kPageWords; ++w)
            page.words[w] = initialValue(base + w * kWordBytes);
        return page;
    }

    void
    grow()
    {
        std::vector<Page> old_pages = std::move(pages);
        std::vector<std::uint8_t> old_used = std::move(used);
        pages.assign(old_pages.size() * 2, Page());
        used.assign(old_used.size() * 2, 0);
        for (std::size_t i = 0; i < old_pages.size(); ++i) {
            if (!old_used[i])
                continue;
            std::size_t j = slotOf(old_pages[i].base);
            while (used[j])
                j = (j + 1) & (pages.size() - 1);
            used[j] = 1;
            pages[j] = old_pages[i];
        }
    }

    void
    reset(std::size_t capacity)
    {
        pages.assign(capacity, Page());
        used.assign(capacity, 0);
        count = 0;
        written = 0;
    }

    std::vector<Page> pages;
    std::vector<std::uint8_t> used;
    std::size_t count = 0;
    std::size_t written = 0;
};

template <typename F>
void
WordStore::forEachWritten(F &&fn) const
{
    for (std::size_t i = 0; i < pages.size(); ++i) {
        if (!used[i])
            continue;
        const Page &page = pages[i];
        for (unsigned w = 0; w < kPageWords; ++w) {
            if (page.written & (std::uint16_t(1) << w))
                fn(page.base + w * kWordBytes, page.words[w]);
        }
    }
}

/**
 * Oracle for load-value checking.
 *
 * Stores commit here at the instant the simulated core performs them;
 * loads are checked against the current oracle value. Violations are
 * counted (and optionally reported) rather than aborting, so tests can
 * assert on the violation count.
 */
class GoldenMemory
{
  public:
    void
    commitStore(Addr addr, std::uint64_t value)
    {
        store.write(addr, value);
    }

    /** @return true if @p observed matches the oracle for @p addr. */
    bool
    checkLoad(Addr addr, std::uint64_t observed)
    {
        const std::uint64_t expect = store.read(addr);
        if (expect == observed)
            return true;
        ++violationCount;
        lastBadAddr = addr;
        lastExpect = expect;
        lastObserved = observed;
        return false;
    }

    std::uint64_t expected(Addr addr) const { return store.read(addr); }

    std::uint64_t violations() const { return violationCount; }
    Addr lastViolationAddr() const { return lastBadAddr; }
    std::uint64_t lastExpectedValue() const { return lastExpect; }
    std::uint64_t lastObservedValue() const { return lastObserved; }

    /** Serialize the oracle image and violation record. */
    void
    saveState(Serializer &s) const
    {
        store.saveState(s);
        s.writeU64(violationCount);
        s.writeU64(lastBadAddr);
        s.writeU64(lastExpect);
        s.writeU64(lastObserved);
    }

    /** Restore into a fresh oracle. */
    bool
    restoreState(Deserializer &d)
    {
        if (!store.restoreState(d))
            return false;
        violationCount = d.readU64();
        lastBadAddr = d.readU64();
        lastExpect = d.readU64();
        lastObserved = d.readU64();
        return !d.failed();
    }

  private:
    WordStore store;
    std::uint64_t violationCount = 0;
    Addr lastBadAddr = 0;
    std::uint64_t lastExpect = 0;
    std::uint64_t lastObserved = 0;
};

} // namespace protozoa

#endif // PROTOZOA_MEM_GOLDEN_MEMORY_HH
