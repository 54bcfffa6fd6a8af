/**
 * @file
 * Flat hash containers for the controllers' hot-path bookkeeping.
 *
 *  - AddrTable<V>: an open-addressing map from Addr to V with linear
 *    probing and backshift deletion (no tombstones). Replaces the
 *    per-node unordered_map instances of the directory (active
 *    transactions, waiting queues) and the L1 writeback buffer, whose
 *    node allocations dominated the steady-state heap traffic.
 *
 *  - PooledFifo<T>: an arena of singly-linked FIFO nodes shared by many
 *    queues (one Queue handle per table entry). Nodes recycle through a
 *    free list, so steady-state push/pop performs no allocation.
 *
 * Both containers grow geometrically when they outgrow their initial
 * capacity; growth is a warmup cost, not a steady-state one.
 */

#ifndef PROTOZOA_COMMON_FLAT_TABLE_HH
#define PROTOZOA_COMMON_FLAT_TABLE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace protozoa {

template <typename V>
class AddrTable
{
  public:
    explicit AddrTable(std::size_t initial_capacity = 16)
    {
        std::size_t cap = 8;
        while (cap < initial_capacity * 2)
            cap *= 2;
        slots.resize(cap);
        states.assign(cap, 0);
    }

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    V *
    find(Addr key)
    {
        std::size_t i = indexOf(key);
        while (states[i]) {
            if (slots[i].first == key)
                return &slots[i].second;
            i = (i + 1) & (slots.size() - 1);
        }
        return nullptr;
    }

    const V *
    find(Addr key) const
    {
        return const_cast<AddrTable *>(this)->find(key);
    }

    bool contains(Addr key) const { return find(key) != nullptr; }

    /**
     * Insert (key, value); the key must not be present.
     * @return pointer to the stored value (valid until the next
     *         insert/erase on this table).
     */
    V *
    emplace(Addr key, V value)
    {
        maybeGrow();
        std::size_t i = indexOf(key);
        while (states[i]) {
            PROTO_ASSERT(slots[i].first != key,
                         "AddrTable: duplicate key");
            i = (i + 1) & (slots.size() - 1);
        }
        states[i] = 1;
        slots[i].first = key;
        slots[i].second = std::move(value);
        ++count;
        return &slots[i].second;
    }

    /** Find the value for @p key, default-constructing it if absent. */
    V *
    findOrCreate(Addr key)
    {
        if (V *v = find(key))
            return v;
        return emplace(key, V());
    }

    /** Remove @p key (must be present). Backshift keeps probes intact. */
    void
    erase(Addr key)
    {
        std::size_t i = indexOf(key);
        while (states[i]) {
            if (slots[i].first == key)
                break;
            i = (i + 1) & (slots.size() - 1);
        }
        PROTO_ASSERT(states[i], "AddrTable: erasing absent key");

        const std::size_t mask = slots.size() - 1;
        std::size_t hole = i;
        std::size_t j = (i + 1) & mask;
        while (states[j]) {
            const std::size_t home = indexOf(slots[j].first);
            // Shift j back into the hole iff the hole lies within j's
            // probe path (cyclic interval [home, j)).
            const bool in_path = hole <= j
                ? (home <= hole || home > j)
                : (home <= hole && home > j);
            if (in_path) {
                slots[hole] = std::move(slots[j]);
                hole = j;
            }
            j = (j + 1) & mask;
        }
        states[hole] = 0;
        slots[hole].second = V();
        --count;
    }

    /** Visit every (key, value); iteration order is unspecified. */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        for (std::size_t i = 0; i < slots.size(); ++i) {
            if (states[i])
                fn(slots[i].first, slots[i].second);
        }
    }

  private:
    std::size_t
    indexOf(Addr key) const
    {
        return static_cast<std::size_t>(mix64(key)) & (slots.size() - 1);
    }

    void
    maybeGrow()
    {
        if ((count + 1) * 10 < slots.size() * 7)
            return;
        std::vector<std::pair<Addr, V>> old = std::move(slots);
        std::vector<std::uint8_t> old_states = std::move(states);
        slots.clear();
        slots.resize(old.size() * 2);
        states.assign(old.size() * 2, 0);
        count = 0;
        for (std::size_t i = 0; i < old.size(); ++i) {
            if (old_states[i])
                emplace(old[i].first, std::move(old[i].second));
        }
    }

    std::vector<std::pair<Addr, V>> slots;
    std::vector<std::uint8_t> states;
    std::size_t count = 0;
};

/**
 * Arena of FIFO nodes shared by many queues. A Queue is a plain handle
 * (head/tail indices into the pool) that can live inside an AddrTable
 * value and be relocated freely.
 */
template <typename T>
class PooledFifo
{
  public:
    static constexpr std::uint32_t kNil = ~std::uint32_t(0);

    struct Queue
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
        std::uint32_t count = 0;

        bool empty() const { return count == 0; }
        std::size_t size() const { return count; }
    };

    explicit PooledFifo(std::size_t initial_nodes = 16)
    {
        nodes.reserve(initial_nodes);
    }

    void
    push(Queue &q, T item)
    {
        const std::uint32_t n = acquire(std::move(item));
        if (q.tail == kNil)
            q.head = n;
        else
            nodes[q.tail].next = n;
        q.tail = n;
        ++q.count;
    }

    T
    popFront(Queue &q)
    {
        PROTO_ASSERT(q.count > 0, "popFront on empty pooled FIFO");
        const std::uint32_t n = q.head;
        q.head = nodes[n].next;
        if (q.head == kNil)
            q.tail = kNil;
        --q.count;
        T out = std::move(nodes[n].item);
        release(n);
        return out;
    }

    const T &front(const Queue &q) const { return nodes[q.head].item; }

    /** Visit the queue front to back. */
    template <typename F>
    void
    forEach(const Queue &q, F &&fn) const
    {
        for (std::uint32_t n = q.head; n != kNil; n = nodes[n].next)
            fn(nodes[n].item);
    }

  private:
    struct Node
    {
        T item;
        std::uint32_t next = kNil;
    };

    std::uint32_t
    acquire(T &&item)
    {
        if (freeHead != kNil) {
            const std::uint32_t n = freeHead;
            freeHead = nodes[n].next;
            nodes[n].item = std::move(item);
            nodes[n].next = kNil;
            return n;
        }
        nodes.push_back(Node{std::move(item), kNil});
        return static_cast<std::uint32_t>(nodes.size() - 1);
    }

    void
    release(std::uint32_t n)
    {
        nodes[n].item = T();
        nodes[n].next = freeHead;
        freeHead = n;
    }

    std::vector<Node> nodes;
    std::uint32_t freeHead = kNil;
};

} // namespace protozoa

#endif // PROTOZOA_COMMON_FLAT_TABLE_HH
