/**
 * @file
 * Test harness: the calendar queue driving closures. Each record is an
 * index into a side table of std::function, so the bare-kernel tests
 * can state ordering properties with lambdas while exercising exactly
 * the CalendarQueue code the simulator runs.
 */

#ifndef PROTOZOA_TESTS_CALLBACK_QUEUE_HH
#define PROTOZOA_TESTS_CALLBACK_QUEUE_HH

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/event_queue.hh"

namespace protozoa {

class CallbackQueue
{
  public:
    using Queue = CalendarQueue<std::uint32_t>;
    static constexpr unsigned kRingHorizon = Queue::kRingHorizon;

    Cycle now() const { return q.now(); }
    bool empty() const { return q.empty(); }
    const KernelStats &kernelStats() const { return q.kernelStats(); }

    void
    schedule(Cycle delay, std::function<void()> fn)
    {
        q.schedule(delay, add(std::move(fn)));
    }

    void
    scheduleAt(Cycle when, std::function<void()> fn)
    {
        q.scheduleAt(when, add(std::move(fn)));
    }

    bool
    step()
    {
        return q.step([this](std::uint32_t i) { fire(i); });
    }

    void
    run(Cycle max_cycles = ~Cycle(0))
    {
        q.run([this](std::uint32_t i) { fire(i); }, max_cycles);
    }

  private:
    std::uint32_t
    add(std::function<void()> fn)
    {
        if (freeSlots.empty()) {
            fns.push_back(std::move(fn));
            return static_cast<std::uint32_t>(fns.size() - 1);
        }
        const std::uint32_t i = freeSlots.back();
        freeSlots.pop_back();
        fns[i] = std::move(fn);
        return i;
    }

    void
    fire(std::uint32_t i)
    {
        std::function<void()> fn = std::move(fns[i]);
        freeSlots.push_back(i);
        fn();
    }

    Queue q;
    std::vector<std::function<void()>> fns;
    std::vector<std::uint32_t> freeSlots;
};

} // namespace protozoa

#endif // PROTOZOA_TESTS_CALLBACK_QUEUE_HH
