/**
 * @file
 * Shared tags for the snapshot subsystem.
 *
 * Lives in common/ so that every component can tag the events it
 * schedules without depending on src/snapshot/ (the snapshot layer
 * depends on the components, never the other way around).
 *
 * Versioning rule: kSnapshotVersion must be bumped whenever the byte
 * layout of any serialized section changes — a snapshot is a raw
 * binary image, not a schema'd document, so cross-version reads are
 * rejected outright rather than migrated (DESIGN.md §13).
 */

#ifndef PROTOZOA_COMMON_SNAPSHOT_TAGS_HH
#define PROTOZOA_COMMON_SNAPSHOT_TAGS_HH

#include <cstdint>

namespace protozoa {

/** Snapshot file magic: "PZSN". */
constexpr std::uint32_t kSnapshotMagic = 0x4e535a50u;

/** Bump on any serialized-layout change (v8: no windowed-stats
 *  section). */
constexpr std::uint32_t kSnapshotVersion = 8;

/**
 * Kind of every event the simulator schedules (protocol/event.hh).
 * The snapshot (snapshot.cc) writes a pending event as its kind byte
 * followed by its id and payload, and reads it back into the same
 * record; 7 and 11 belonged to removed kinds and are refused.
 */
enum class EventKind : std::uint8_t {
    CoreStep = 1,      ///< core issue-loop trampoline        {coreId}
    CoreIssue = 2,     ///< gap-delayed access issue           {coreId, MemAccess}
    L1Complete = 3,    ///< L1 fires its parked completion     {coreId, value}
    L1Send = 4,        ///< L1 pipeline handing msg to router  {coreId, CoherenceMsg}
    DirSend = 5,       ///< directory pipeline ditto           {tileId, CoherenceMsg}
    DirFill = 6,       ///< memory fill completing at the dir  {tileId, region}
    Deliver = 8,       ///< in-flight mesh message delivery    {CoherenceMsg}
    InvariantTick = 9, ///< periodic coherence sweep           {}
    WatchdogTick = 10, ///< deadlock watchdog scan             {}
    TestHook = 12,     ///< a test's own code; never saved
};

} // namespace protozoa

#endif // PROTOZOA_COMMON_SNAPSHOT_TAGS_HH
