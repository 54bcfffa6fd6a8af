/**
 * @file
 * Trace records and trace sources: the execution front end.
 *
 * The paper drives GEMS with Pin traces of real applications; we drive
 * the same protocol machinery with deterministic synthetic traces (see
 * DESIGN.md for the substitution argument). A TraceRecord is one
 * memory reference plus the number of non-memory instructions retired
 * since the previous one.
 */

#ifndef PROTOZOA_WORKLOAD_TRACE_HH
#define PROTOZOA_WORKLOAD_TRACE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"

namespace protozoa {

/** One memory reference in a core's instruction stream. */
struct TraceRecord
{
    Addr addr = 0;
    Pc pc = 0;
    bool isWrite = false;
    /** Non-memory instructions executed before this reference. */
    std::uint16_t gapInstrs = 2;
};

/** Pull-based source of trace records for one core. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** @return false when the trace is exhausted. */
    virtual bool next(TraceRecord &out) = 0;

    /** Records consumed so far (the snapshot cursor). */
    virtual std::uint64_t cursor() const { return 0; }

    /**
     * Reposition so the next() call returns record @p n of the stream.
     * Used by snapshot restore to resume a trace mid-stream.
     * @return false when the source cannot seek.
     */
    virtual bool seekTo(std::uint64_t n) { return n == 0; }
};

/** A trace fully materialized in memory. */
class VectorTrace : public TraceSource
{
  public:
    explicit VectorTrace(std::vector<TraceRecord> recs)
        : records(std::move(recs))
    {
    }

    bool
    next(TraceRecord &out) override
    {
        if (pos >= records.size())
            return false;
        out = records[pos++];
        return true;
    }

    std::uint64_t cursor() const override { return pos; }

    bool
    seekTo(std::uint64_t n) override
    {
        if (n > records.size())
            return false;
        pos = static_cast<std::size_t>(n);
        return true;
    }

    std::size_t size() const { return records.size(); }

  private:
    std::vector<TraceRecord> records;
    std::size_t pos = 0;
};

/** Per-core traces for a whole system run. */
using Workload = std::vector<std::unique_ptr<TraceSource>>;

/**
 * One empty trace per core, for a System whose accesses are issued
 * from outside (the explorer's runs and the tests' ProtocolDriver).
 */
inline Workload
emptyWorkload(unsigned cores)
{
    Workload wl;
    for (unsigned c = 0; c < cores; ++c)
        wl.push_back(
            std::make_unique<VectorTrace>(std::vector<TraceRecord>{}));
    return wl;
}

} // namespace protozoa

#endif // PROTOZOA_WORKLOAD_TRACE_HH
