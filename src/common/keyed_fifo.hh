/**
 * @file
 * KeyedFifo<K, V>: the controllers' per-key bookkeeping in one sorted
 * vector.
 *
 * Items are (key, value) pairs kept in ascending key order and in
 * arrival order among equal keys, so each key's items form one FIFO
 * run. It serves the directory's active transactions (one item per
 * region) and wait queues, the L1 writeback buffer and the mesh's
 * parked channels. Those lists are tiny: a directory tile holds one or
 * two transactions on average and an L1 at most two pending
 * writebacks, so a binary search and a short move are all a lookup,
 * push or pop costs.
 *
 * Every walk is in key order. The state fingerprint, the snapshot and
 * the deadlock watchdog therefore read a canonical order without
 * sorting. The vector reserves its initial capacity up front, so the
 * steady state performs no allocation. A value reference stays valid
 * only until the next push or pop.
 */

#ifndef PROTOZOA_COMMON_KEYED_FIFO_HH
#define PROTOZOA_COMMON_KEYED_FIFO_HH

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/log.hh"

namespace protozoa {

template <typename K, typename V>
class KeyedFifo
{
  public:
    struct Item
    {
        K key;
        V value;
    };

    explicit KeyedFifo(std::size_t reserve = 16) { items.reserve(reserve); }

    bool empty() const { return items.empty(); }
    std::size_t size() const { return items.size(); }
    void clear() { items.clear(); }

    /** Append @p value behind the last item of @p key. */
    void
    push(K key, V value)
    {
        const auto at = std::upper_bound(
            items.begin(), items.end(), key,
            [](const K &k, const Item &i) { return k < i.key; });
        items.insert(at, Item{key, std::move(value)});
    }

    /** Insert the only item of @p key, which must be absent. */
    void
    pushUnique(K key, V value)
    {
        const auto at = lowerBound(key);
        PROTO_ASSERT(at == items.end() || at->key != key,
                     "KeyedFifo: duplicate key");
        items.insert(at, Item{key, std::move(value)});
    }

    /** The oldest item of @p key, or nullptr. */
    V *
    front(K key)
    {
        const auto at = lowerBound(key);
        return at != items.end() && at->key == key ? &at->value : nullptr;
    }

    const V *
    front(K key) const
    {
        return const_cast<KeyedFifo *>(this)->front(key);
    }

    bool contains(K key) const { return front(key) != nullptr; }

    /** Every item of @p key, oldest first; empty when absent. */
    std::span<const Item>
    run(K key) const
    {
        const auto lo = const_cast<KeyedFifo *>(this)->lowerBound(key);
        auto hi = lo;
        while (hi != items.end() && hi->key == key)
            ++hi;
        return {lo, hi};
    }

    /** Remove and return the oldest item of @p key, which must exist. */
    V
    popFront(K key)
    {
        const auto at = lowerBound(key);
        PROTO_ASSERT(at != items.end() && at->key == key,
                     "KeyedFifo: popping an absent key");
        V out = std::move(at->value);
        items.erase(at);
        return out;
    }

    /** Every item, in ascending key order and FIFO within a key. */
    auto begin() const { return items.cbegin(); }
    auto end() const { return items.cend(); }

    /** Visit each key's run as fn(key, span of its items). */
    template <typename F>
    void
    forEachRun(F &&fn) const
    {
        for (auto lo = items.begin(); lo != items.end();) {
            auto hi = lo + 1;
            while (hi != items.end() && hi->key == lo->key)
                ++hi;
            fn(lo->key, std::span<const Item>(lo, hi));
            lo = hi;
        }
    }

  private:
    typename std::vector<Item>::iterator
    lowerBound(const K &key)
    {
        return std::lower_bound(
            items.begin(), items.end(), key,
            [](const Item &i, const K &k) { return i.key < k; });
    }

    std::vector<Item> items;
};

} // namespace protozoa

#endif // PROTOZOA_COMMON_KEYED_FIFO_HH
