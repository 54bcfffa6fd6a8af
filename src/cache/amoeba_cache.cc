#include "cache/amoeba_cache.hh"

#include <algorithm>
#include <bit>
#include <new>

// The poisoning macros are no-ops outside AddressSanitizer builds.
#include <sanitizer/asan_interface.h>

#include "common/log.hh"

namespace protozoa {

const char *
blockStateName(BlockState s)
{
    switch (s) {
      case BlockState::S: return "S";
      case BlockState::E: return "E";
      case BlockState::M: return "M";
    }
    return "?";
}

unsigned
AmoebaBlock::touchedWords() const
{
    return static_cast<unsigned>(
        std::popcount(touched & range.mask()));
}

AmoebaCache::AmoebaCache(const SystemConfig &cfg)
    : numSets(cfg.l1Sets), setsDiv(numSets),
      setBudget(cfg.l1BytesPerSet),
      regionBytes(cfg.regionBytes),
      regionShift(std::countr_zero(cfg.regionBytes)),
      // Worst case for the slot pool: the set packed with minimum-size
      // (one-word) blocks, so every later insert/evict is
      // allocation-free.
      slotCap(cfg.l1SlotsPerSet())
{
    PROTO_ASSERT(setBudget >= blockCost(WordRange::full(cfg.regionWords())),
                 "set budget cannot hold a full region");
    PROTO_ASSERT(slotCap >= 1 && slotCap <= kMaxL1SetSlots,
                 "set slot capacity %u out of range", slotCap);
    const std::size_t n = std::size_t(numSets) * slotCap;
    PROTO_ASSERT(n <= 0xffffffffu, "%zu L1 slots do not fit a u32", n);
    blocks = FixedArray<AmoebaBlock>(n);
    static_assert(sizeof(SlotTag) % alignof(std::uint64_t) == 0);
    slotIndex.reset(new std::byte[n * (sizeof(SlotTag) +
                                       sizeof(std::uint64_t) +
                                       sizeof(std::uint16_t))]);
    tags = reinterpret_cast<SlotTag *>(slotIndex.get());
    blockLru = reinterpret_cast<std::uint64_t *>(tags + n);
    order = reinterpret_cast<std::uint16_t *>(blockLru + n);
    meta = std::make_unique<SetMeta[]>(numSets);
}

AmoebaCache::~AmoebaCache()
{
    for (unsigned set = 0; set < numSets; ++set)
        for (const std::uint16_t s : liveOrder(set))
            blockAt(base(set) + s).~AmoebaBlock();
    // Only blocks claimed at some point can be poisoned; clear them,
    // as the memory may next serve an unrelated allocation.
    ASAN_UNPOISON_MEMORY_REGION(
        blocks.data(),
        std::max(blocksClaimed, blocksEverClaimed) * sizeof(AmoebaBlock));
}

unsigned
AmoebaCache::blockCost(const WordRange &r)
{
    return kBlockTagBytes + r.bytes();
}

unsigned
AmoebaCache::setOf(Addr region) const
{
    return static_cast<unsigned>(setsDiv.mod(region >> regionShift));
}

AmoebaBlock *
AmoebaCache::findCovering(Addr region, unsigned word)
{
    const unsigned set = setOf(region);
    if (!((meta[set].coverage >> word) & 1))
        return nullptr;
    const std::size_t b = base(set);
    for (const std::uint16_t s : liveOrder(set)) {
        const SlotTag &t = tags[b + s];
        if (t.region == region && ((t.cover >> word) & 1))
            return &blocks[t.block];
    }
    return nullptr;
}

void
AmoebaCache::blocksOfRegion(Addr region, BlockPtrs &out)
{
    const unsigned set = setOf(region);
    const std::size_t b = base(set);
    for (const std::uint16_t s : liveOrder(set)) {
        if (tags[b + s].region == region)
            out.push_back(&blockAt(b + s));
    }
}

void
AmoebaCache::overlapping(Addr region, const WordRange &r, BlockPtrs &out)
{
    const unsigned set = setOf(region);
    const WordMask m = r.mask();
    if (!(meta[set].coverage & m))
        return;
    const std::size_t b = base(set);
    for (const std::uint16_t s : liveOrder(set)) {
        const SlotTag &t = tags[b + s];
        if (t.region == region && (t.cover & m))
            out.push_back(&blocks[t.block]);
    }
}

bool
AmoebaCache::hasRegion(Addr region)
{
    const unsigned set = setOf(region);
    const std::size_t b = base(set);
    for (const std::uint16_t s : liveOrder(set)) {
        if (tags[b + s].region == region)
            return true;
    }
    return false;
}

bool
AmoebaCache::hasDirtyRegion(Addr region)
{
    const unsigned set = setOf(region);
    const std::size_t b = base(set);
    for (const std::uint16_t s : liveOrder(set)) {
        if (tags[b + s].region == region && blockAt(b + s).dirty())
            return true;
    }
    return false;
}

bool
AmoebaCache::hasWritableRegion(Addr region)
{
    const unsigned set = setOf(region);
    const std::size_t b = base(set);
    for (const std::uint16_t s : liveOrder(set)) {
        if (tags[b + s].region == region &&
            blockAt(b + s).state != BlockState::S)
            return true;
    }
    return false;
}

void
AmoebaCache::destroyBlock(AmoebaBlock *blk)
{
    blk->~AmoebaBlock();
    // Under AddressSanitizer a freed block stays poisoned until a block
    // is constructed there again, so a stale AmoebaBlock* kept across
    // removeExact, an eviction or a restore faults on its next use
    // instead of reading a destroyed object.
    ASAN_POISON_MEMORY_REGION(blk, sizeof(AmoebaBlock));
}

AmoebaBlock
AmoebaCache::takeAt(unsigned set, unsigned pos)
{
    SetMeta &m = meta[set];
    const std::size_t b = base(set);
    std::uint16_t *run = order + b;
    const std::uint16_t s = run[pos];
    AmoebaBlock *blk = &blockAt(b + s);
    AmoebaBlock out = std::move(*blk);
    destroyBlock(blk);

    std::copy(run + pos + 1, run + m.live, run + pos);
    --m.live;
    // Push onto the free stack at the back of the run.
    run[slotCap - m.freeDepth()] = s;
    m.bytesUsed -= blockCost(out.range);
    // Coverage has no per-bit refcount; rebuild it from the compact
    // masks of the survivors (removal is off the steady-state path).
    WordMask cov = 0;
    for (const std::uint16_t live : liveOrder(set))
        cov |= tags[b + live].cover;
    m.coverage = cov;
    return out;
}

void
AmoebaCache::makeRoom(Addr region, const WordRange &r, Evicted &out)
{
    const unsigned set = setOf(region);
    const SetMeta &m = meta[set];
    const unsigned need = blockCost(r);

    while (m.bytesUsed + need > setBudget) {
        PROTO_ASSERT(m.live > 0, "set over budget while empty");
        const std::size_t b = base(set);
        const std::span<const std::uint16_t> live = liveOrder(set);
        unsigned victim = 0;
        std::uint64_t oldest = blockLru[tags[b + live[0]].block];
        for (unsigned i = 1; i < live.size(); ++i) {
            const std::uint64_t stamp = blockLru[tags[b + live[i]].block];
            if (stamp < oldest) {
                victim = i;
                oldest = stamp;
            }
        }
        out.push_back(takeAt(set, victim));
    }
}

AmoebaBlock *
AmoebaCache::insert(AmoebaBlock blk)
{
    const unsigned set = setOf(blk.region);
    PROTO_ASSERT(blk.words.size() == blk.range.words(),
                 "block data size mismatch");
    const WordMask m = blk.range.mask();
    if (meta[set].coverage & m) {
        const std::size_t b = base(set);
        for (const std::uint16_t s : liveOrder(set)) {
            PROTO_ASSERT(tags[b + s].region != blk.region ||
                         !(tags[b + s].cover & m),
                         "overlapping insert into region %llx",
                         static_cast<unsigned long long>(blk.region));
        }
    }
    blk.lruStamp = ++lruClock;
    return placeBlock(std::move(blk));
}

AmoebaBlock
AmoebaCache::removeExact(Addr region, const WordRange &r)
{
    const unsigned set = setOf(region);
    const WordMask m = r.mask();
    const std::size_t b = base(set);
    const std::span<const std::uint16_t> live = liveOrder(set);
    for (unsigned pos = 0; pos < live.size(); ++pos) {
        const SlotTag &t = tags[b + live[pos]];
        // A contiguous mask determines its range, so cover equality
        // is exact-range equality.
        if (t.region == region && t.cover == m)
            return takeAt(set, pos);
    }
    panic("removeExact: block %llx %s not resident",
          static_cast<unsigned long long>(region), r.toString().c_str());
}

void
AmoebaCache::touchLru(AmoebaBlock *blk)
{
    blk->lruStamp = ++lruClock;
    blockLru[static_cast<std::size_t>(blk - blocks.data())] =
        blk->lruStamp;
}

std::size_t
AmoebaCache::blockCount() const
{
    std::size_t n = 0;
    for (unsigned set = 0; set < numSets; ++set)
        n += meta[set].live;
    return n;
}

unsigned
AmoebaCache::setOccupancyBytes(unsigned set_index) const
{
    return meta[set_index].bytesUsed;
}

AmoebaBlock *
AmoebaCache::placeBlock(AmoebaBlock blk)
{
    const unsigned set = setOf(blk.region);
    SetMeta &m = meta[set];
    const unsigned cost = blockCost(blk.range);
    PROTO_ASSERT(m.bytesUsed + cost <= setBudget,
                 "insert without room (set %u)", set);
    PROTO_ASSERT(m.freeDepth() > 0 || m.highWater < slotCap,
                 "set slot pool exhausted");
    const std::size_t b = base(set);
    std::uint16_t *run = order + b;
    // The most recently freed slot first, else the next never-used
    // one, which claims the next block of the cache-wide pool.
    const bool fresh = m.freeDepth() == 0;
    const std::uint16_t s =
        fresh ? m.highWater++ : run[slotCap - m.freeDepth()];
    if (fresh)
        tags[b + s].block = blocksClaimed++;
    run[m.live++] = s;
    SlotTag &t = tags[b + s];
    t.region = blk.region;
    t.cover = blk.range.mask();
    blockLru[t.block] = blk.lruStamp;
    m.coverage |= t.cover;
    m.bytesUsed += cost;
    AmoebaBlock *slot = &blocks[t.block];
    ASAN_UNPOISON_MEMORY_REGION(slot, sizeof(AmoebaBlock));
    return ::new (static_cast<void *>(slot)) AmoebaBlock(std::move(blk));
}

void
AmoebaCache::saveState(Serializer &s) const
{
    s.writeU64(lruClock);
    s.writeU32(numSets);
    for (unsigned set = 0; set < numSets; ++set) {
        s.writeU32(meta[set].live);
        // Walk in insertion order so restore reproduces the order
        // array (and hence every scan/victim tie-break) exactly.
        for (const std::uint16_t slot : liveOrder(set)) {
            const AmoebaBlock &b = blockAt(base(set) + slot);
            s.writeU64(b.region);
            s.writeRaw(b.range);
            s.writeU8(static_cast<std::uint8_t>(b.state));
            s.writeU64(b.touched);
            s.writeU64(b.fetchPc);
            s.writeU8(b.missWord);
            s.writeU64(b.lruStamp);
            s.writeU32(static_cast<std::uint32_t>(b.words.size()));
            for (std::uint32_t w = 0; w < b.words.size(); ++w)
                s.writeU64(b.words[w]);
        }
    }
}

bool
AmoebaCache::restoreState(Deserializer &d)
{
    // Empty the cache in place: destroy the live blocks and give every
    // set its constructed bookkeeping back, so the restored blocks
    // claim slots and block storage in the order a new cache would.
    for (unsigned set = 0; set < numSets; ++set) {
        for (const std::uint16_t s : liveOrder(set))
            destroyBlock(&blockAt(base(set) + s));
        meta[set] = SetMeta{};
    }
    blocksEverClaimed = std::max(blocksEverClaimed, blocksClaimed);
    blocksClaimed = 0;

    lruClock = d.readU64();
    if (d.readU32() != numSets)
        return false;
    for (unsigned si = 0; si < numSets; ++si) {
        const std::uint32_t n = d.readU32();
        if (d.failed() || n > slotCap)
            return false;
        for (std::uint32_t i = 0; i < n; ++i) {
            AmoebaBlock b;
            b.region = d.readU64();
            d.readRaw(b.range);
            const std::uint8_t state = d.readU8();
            b.state = static_cast<BlockState>(state);
            const std::uint64_t touched = d.readU64();
            b.touched = static_cast<WordMask>(touched);
            b.fetchPc = d.readU64();
            b.missWord = d.readU8();
            b.lruStamp = d.readU64();
            const std::uint32_t nw = d.readU32();
            const unsigned region_words = regionBytes / kWordBytes;
            const WordMask region = WordRange::full(region_words).mask();
            if (d.failed() || state > std::uint8_t(BlockState::M) ||
                !b.range.within(region_words) ||
                (touched & ~std::uint64_t(region)) != 0 ||
                b.missWord >= region_words || nw != b.range.words() ||
                setOf(b.region) != si)
                return false;
            b.words.assign(nw, 0);
            for (std::uint32_t w = 0; w < nw; ++w)
                b.words[w] = d.readU64();
            placeBlock(std::move(b));
        }
    }
    return !d.failed();
}

} // namespace protozoa
