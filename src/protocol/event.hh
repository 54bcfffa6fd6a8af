/**
 * @file
 * Event: the one record the simulator's calendar queue carries.
 *
 * Every event is plain data: its EventKind, the core or tile it
 * belongs to, and a payload that is a MemAccess, a value or region,
 * or a CoherenceMsg. Components schedule records; System runs each one
 * through a single dispatch switch; the snapshot writes the pending
 * records as they are (snapshot.cc), so a restore has nothing to bind
 * back to the components.
 */

#ifndef PROTOZOA_PROTOCOL_EVENT_HH
#define PROTOZOA_PROTOCOL_EVENT_HH

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/event_queue.hh"
#include "common/serialize.hh"
#include "common/snapshot_tags.hh"
#include "common/types.hh"
#include "protocol/coherence_msg.hh"

namespace protozoa {

/** One core-issued memory access (always within a single word). */
struct MemAccess
{
    Addr addr = 0;
    bool isWrite = false;
    Pc pc = 0;
    /** Value to store (writes only). */
    std::uint64_t storeValue = 0;

    /** Read one access saved as its object bytes, refusing an
     *  isWrite byte other than 0 or 1. */
    bool
    load(Deserializer &d)
    {
        return d.readRawChecked(*this, {offsetof(MemAccess, isWrite)});
    }
};

/**
 * A test's own code, run at one point of a System's timeline
 * (EventKind::TestHook). It points into the running process, so
 * saveSnapshot refuses an image while one is pending.
 */
struct TestHook
{
    void (*fn)(void *ctx);
    void *ctx;
};

struct Event
{
    EventKind kind = EventKind::CoreStep;
    /** Core (CoreStep, CoreIssue, L1Complete, L1Send) or tile
     *  (DirSend, DirFill); 0 for the other kinds. */
    std::uint16_t id = 0;
    union
    {
        /** L1Complete: the loaded value; DirFill: the region. */
        std::uint64_t value;
        /** CoreIssue. */
        MemAccess acc;
        /** L1Send, DirSend, Deliver. */
        CoherenceMsg msg;
        /** TestHook. */
        TestHook hook;
    };

    Event() : value(0) {}

    /** A record of @p kind for core or tile @p id (0 if it has none),
     *  with no payload or the one its kind carries. */
    static Event
    of(EventKind kind, std::uint16_t id = 0)
    {
        Event e;
        e.kind = kind;
        e.id = id;
        return e;
    }

    static Event
    of(EventKind kind, std::uint16_t id, std::uint64_t value)
    {
        Event e = of(kind, id);
        e.value = value;
        return e;
    }

    static Event
    of(EventKind kind, std::uint16_t id, const MemAccess &acc)
    {
        Event e = of(kind, id);
        e.acc = acc;
        return e;
    }

    static Event
    of(EventKind kind, std::uint16_t id, const CoherenceMsg &msg)
    {
        Event e = of(kind, id);
        e.msg = msg;
        return e;
    }

    static Event
    testHook(void (*fn)(void *), void *ctx)
    {
        Event e = of(EventKind::TestHook);
        e.hook = TestHook{fn, ctx};
        return e;
    }
};

static_assert(std::is_trivially_copyable_v<Event>,
              "an event is a plain record");

/** The simulator's calendar queue. */
using EventQueue = CalendarQueue<Event>;

} // namespace protozoa

#endif // PROTOZOA_PROTOCOL_EVENT_HH
