#include "sim/core_model.hh"

namespace protozoa {

CoreModel::CoreModel(CoreId id, EventQueue &eq, TraceSource &tr)
    : coreId(id), eventq(eq), trace(tr)
{
}

void
CoreModel::start()
{
    eventq.schedule(0, Event::of(EventKind::CoreStep, coreId));
}

void
CoreModel::saveState(Serializer &s) const
{
    s.writeU64(instrCount);
    s.writeU64(storeSeq);
    s.writeU8(finished ? 1 : 0);
    s.writeU64(finishedAt);
    s.writeU64(trace.cursor());
}

bool
CoreModel::restoreState(Deserializer &d)
{
    instrCount = d.readU64();
    storeSeq = d.readU64();
    finished = d.readU8() != 0;
    finishedAt = d.readU64();
    const std::uint64_t cur = d.readU64();
    if (d.failed())
        return false;
    return trace.seekTo(cur);
}

bool
CoreModel::step()
{
    TraceRecord rec;
    if (!trace.next(rec)) {
        finished = true;
        finishedAt = eventq.now();
        return false;
    }

    instrCount += rec.gapInstrs + 1;

    MemAccess acc;
    acc.addr = rec.addr;
    acc.isWrite = rec.isWrite;
    acc.pc = rec.pc;
    if (rec.isWrite) {
        // Unique store value: (core, sequence) tagged for the checker.
        acc.storeValue =
            (static_cast<std::uint64_t>(coreId) << 48) | ++storeSeq;
    }

    eventq.schedule(rec.gapInstrs,
                    Event::of(EventKind::CoreIssue, coreId, acc));
    return true;
}

} // namespace protozoa
