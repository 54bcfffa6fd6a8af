/**
 * @file
 * Span recorder for the benchmark's traced run.
 *
 * A span is one timed interval of the benchmark's own code: the whole
 * run, one operation (a System, a checkpoint round trip, a scenario/
 * protocol pair) or one call into a layer's public function. Spans
 * nest strictly, because the benchmark is single-threaded, so a span's
 * self time is its duration minus the durations of its direct
 * children. Spans live in memory and are written out when the run
 * ends.
 *
 * With tracing off, begin() and end() return at once: the untraced
 * runs that give the end-to-end metrics pay one branch per call.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Host seconds on the monotonic clock. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Counter deltas a span records at its closing boundary. */
struct SpanCounters
{
    std::uint64_t events = 0;
    std::uint64_t accesses = 0;
    std::uint64_t bytes = 0;
};

struct Span
{
    /** Layer call ("sim.ctor"), operation ("op") or "run". */
    const char *name = "";
    /** Operation label, e.g. "apache/MESI"; empty for layer calls. */
    std::string label;
    /** Index of the enclosing span; -1 for the root. */
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
    SpanCounters counters;
};

class Tracer
{
  public:
    explicit Tracer(bool on) : enabled(on)
    {
        if (enabled)
            all.reserve(1 << 16);
    }

    bool on() const { return enabled; }

    /** Open a span at @p start under the innermost open span. */
    int
    begin(const char *name, double start, std::string label = {})
    {
        if (!enabled)
            return -1;
        Span s;
        s.name = name;
        s.label = std::move(label);
        s.parent = stack.empty() ? -1 : stack.back();
        s.start = start;
        all.push_back(std::move(s));
        stack.push_back(static_cast<int>(all.size()) - 1);
        return stack.back();
    }

    /** Close span @p id (the innermost open one) at @p end. */
    void
    end(int id, double end, const SpanCounters &c = {})
    {
        if (!enabled)
            return;
        all[id].end = end;
        all[id].counters = c;
        stack.pop_back();
    }

    /** Set the counters of closed span @p id (known after it ends). */
    void
    annotate(int id, const SpanCounters &c)
    {
        if (enabled)
            all[id].counters = c;
    }

    const std::vector<Span> &spans() const { return all; }

    /** Self seconds of every span (duration minus its children's). */
    std::vector<double>
    selfTimes() const
    {
        std::vector<double> self(all.size());
        for (std::size_t i = 0; i < all.size(); ++i)
            self[i] = all[i].end - all[i].start;
        for (const Span &s : all) {
            if (s.parent >= 0)
                self[s.parent] -= s.end - s.start;
        }
        return self;
    }

    /** Self seconds and call count summed per span name. */
    struct LayerTotal
    {
        double self = 0.0;
        std::uint64_t calls = 0;
    };
    std::map<std::string, LayerTotal>
    byLayer() const
    {
        const std::vector<double> self = selfTimes();
        std::map<std::string, LayerTotal> out;
        for (std::size_t i = 0; i < all.size(); ++i) {
            LayerTotal &t = out[all[i].name];
            t.self += self[i];
            ++t.calls;
        }
        return out;
    }

    /**
     * Write every span as one JSON object per line: name, label,
     * parent index, start and end relative to the first span, and the
     * counter deltas. @return false when the file cannot be written.
     */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        const double t0 = all.empty() ? 0.0 : all.front().start;
        for (std::size_t i = 0; i < all.size(); ++i) {
            const Span &s = all[i];
            std::fprintf(f,
                         "{\"id\": %zu, \"name\": \"%s\", \"label\": "
                         "\"%s\", \"parent\": %d, \"start_s\": %.9f, "
                         "\"end_s\": %.9f, \"events\": %llu, "
                         "\"accesses\": %llu, \"bytes\": %llu}\n",
                         i, s.name, s.label.c_str(), s.parent,
                         s.start - t0, s.end - t0,
                         static_cast<unsigned long long>(s.counters.events),
                         static_cast<unsigned long long>(
                             s.counters.accesses),
                         static_cast<unsigned long long>(s.counters.bytes));
        }
        return std::fclose(f) == 0;
    }

  private:
    bool enabled;
    std::vector<Span> all;
    std::vector<int> stack;
};

/**
 * One timed call: reads the clock, opens a span, and on stop() closes
 * it and returns the elapsed host seconds. The same two clock reads
 * feed the untraced metrics and the span, so self times and metrics
 * agree.
 */
class Timed
{
  public:
    Timed(Tracer &tr, const char *name, std::string label = {})
        : tracer(tr), t0(now()),
          spanId(tr.begin(name, t0, std::move(label)))
    {
    }

    double
    stop(const SpanCounters &c = {})
    {
        const double t1 = now();
        tracer.end(spanId, t1, c);
        return t1 - t0;
    }

    /** Span index (-1 with tracing off). */
    int id() const { return spanId; }

  private:
    Tracer &tracer;
    double t0;
    int spanId;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
