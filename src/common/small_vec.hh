/**
 * @file
 * SmallVec: a vector with inline storage for the first N elements.
 *
 * The simulator's hot-path containers (Amoeba block payloads, snoop
 * scratch buffers, MSHR files) hold a small, statically-bounded number
 * of elements; SmallVec keeps them in-object so the steady-state loop
 * performs no heap allocation. Growth past the inline capacity spills
 * to the heap transparently, so correctness never depends on the
 * bound — only the zero-allocation property does.
 */

#ifndef PROTOZOA_COMMON_SMALL_VEC_HH
#define PROTOZOA_COMMON_SMALL_VEC_HH

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <type_traits>
#include <utility>

#include "common/log.hh"

namespace protozoa {

template <typename T, unsigned N>
class SmallVec
{
  public:
    using value_type = T;
    using iterator = T *;
    using const_iterator = const T *;

    SmallVec() = default;

    SmallVec(std::initializer_list<T> init)
    {
        for (const T &v : init)
            push_back(v);
    }

    SmallVec(const SmallVec &o) { appendAll(o); }

    SmallVec(SmallVec &&o) noexcept { stealOrMove(std::move(o)); }

    SmallVec &
    operator=(const SmallVec &o)
    {
        if (this != &o) {
            clear();
            appendAll(o);
        }
        return *this;
    }

    SmallVec &
    operator=(SmallVec &&o) noexcept
    {
        if (this != &o) {
            destroyAll();
            stealOrMove(std::move(o));
        }
        return *this;
    }

    ~SmallVec() { destroyAll(); }

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    std::size_t capacity() const { return cap; }
    /** True while the elements still live in the inline buffer. */
    bool inlined() const { return data_ == inlineData(); }

    T *data() { return data_; }
    const T *data() const { return data_; }
    iterator begin() { return data_; }
    iterator end() { return data_ + count; }
    const_iterator begin() const { return data_; }
    const_iterator end() const { return data_ + count; }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }
    T &front() { return data_[0]; }
    const T &front() const { return data_[0]; }
    T &back() { return data_[count - 1]; }
    const T &back() const { return data_[count - 1]; }

    void
    push_back(const T &v)
    {
        emplace_back(v);
    }

    void
    push_back(T &&v)
    {
        emplace_back(std::move(v));
    }

    template <typename... Args>
    T &
    emplace_back(Args &&...args)
    {
        if (count == cap)
            grow(cap * 2);
        T *slot = data_ + count;
        ::new (static_cast<void *>(slot)) T(std::forward<Args>(args)...);
        ++count;
        return *slot;
    }

    void
    pop_back()
    {
        PROTO_ASSERT(count > 0, "pop_back on empty SmallVec");
        data_[--count].~T();
    }

    void
    clear()
    {
        for (std::size_t i = 0; i < count; ++i)
            data_[i].~T();
        count = 0;
    }

    void
    assign(std::size_t n, const T &v)
    {
        clear();
        reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            push_back(v);
    }

    void
    resize(std::size_t n, const T &v = T())
    {
        while (count > n)
            pop_back();
        reserve(n);
        while (count < n)
            push_back(v);
    }

    void
    reserve(std::size_t n)
    {
        if (n > cap)
            grow(n);
    }

    bool
    operator==(const SmallVec &o) const
    {
        if (count != o.count)
            return false;
        for (std::size_t i = 0; i < count; ++i) {
            if (!(data_[i] == o.data_[i]))
                return false;
        }
        return true;
    }

  private:
    T *inlineData() { return std::launder(reinterpret_cast<T *>(buf)); }
    const T *
    inlineData() const
    {
        return std::launder(reinterpret_cast<const T *>(buf));
    }

    void
    appendAll(const SmallVec &o)
    {
        reserve(o.count);
        for (std::size_t i = 0; i < o.count; ++i)
            push_back(o.data_[i]);
    }

    /** Take o's heap buffer, or move elements out of its inline one. */
    void
    stealOrMove(SmallVec &&o) noexcept
    {
        if (!o.inlined()) {
            data_ = o.data_;
            count = o.count;
            cap = o.cap;
            o.data_ = o.inlineData();
            o.count = 0;
            o.cap = N;
            return;
        }
        data_ = inlineData();
        count = o.count;
        cap = N;
        for (std::size_t i = 0; i < count; ++i) {
            ::new (static_cast<void *>(data_ + i))
                T(std::move(o.data_[i]));
            o.data_[i].~T();
        }
        o.count = 0;
    }

    void
    destroyAll()
    {
        clear();
        if (!inlined())
            ::operator delete(data_);
        data_ = inlineData();
        cap = N;
    }

    void
    grow(std::size_t new_cap)
    {
        if (new_cap < count + 1)
            new_cap = count + 1;
        T *fresh = static_cast<T *>(
            ::operator new(new_cap * sizeof(T)));
        for (std::size_t i = 0; i < count; ++i) {
            ::new (static_cast<void *>(fresh + i))
                T(std::move(data_[i]));
            data_[i].~T();
        }
        if (!inlined())
            ::operator delete(data_);
        data_ = fresh;
        cap = new_cap;
    }

    alignas(T) unsigned char buf[N * sizeof(T)];
    T *data_ = inlineData();
    std::size_t count = 0;
    std::size_t cap = N;
};

} // namespace protozoa

#endif // PROTOZOA_COMMON_SMALL_VEC_HH
