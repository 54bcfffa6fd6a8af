/**
 * @file
 * In-order core model (Table 4: 16-way, 3 GHz, in order).
 *
 * Retires one non-memory instruction per cycle and blocks on every
 * memory reference until the L1 completes it. Store values are unique
 * per (core, store-sequence) so the golden-memory checker can detect
 * any stale or misrouted data.
 */

#ifndef PROTOZOA_SIM_CORE_MODEL_HH
#define PROTOZOA_SIM_CORE_MODEL_HH

#include <cstdint>

#include "common/serialize.hh"
#include "common/types.hh"
#include "protocol/event.hh"
#include "workload/trace.hh"

namespace protozoa {

class CoreModel
{
  public:
    CoreModel(CoreId id, EventQueue &eq, TraceSource &trace);

    /** Begin executing the trace. */
    void start();

    /**
     * Fetch and decode the next trace record and schedule its
     * gap-delayed issue to the L1 (a CoreIssue event). Runs for the
     * core's CoreStep and for each completion of its access.
     * @return false once the trace is drained (the core finished).
     */
    bool step();

    bool done() const { return finished; }
    std::uint64_t instructions() const { return instrCount; }
    Cycle finishCycle() const { return finishedAt; }

    /** Serialize progress state (the trace cursor rides along). */
    void saveState(Serializer &s) const;
    bool restoreState(Deserializer &d);

  private:
    CoreId coreId;
    EventQueue &eventq;
    TraceSource &trace;

    std::uint64_t instrCount = 0;
    std::uint64_t storeSeq = 0;
    bool finished = false;
    Cycle finishedAt = 0;
};

} // namespace protozoa

#endif // PROTOZOA_SIM_CORE_MODEL_HH
