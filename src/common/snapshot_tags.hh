/**
 * @file
 * Shared tags for the snapshot subsystem.
 *
 * Lives in common/ so that every component can tag its saveable events
 * without depending on src/snapshot/ (the snapshot layer depends on
 * the components, never the other way around).
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

/** Bump on any serialized-layout change. */
constexpr std::uint32_t kSnapshotVersion = 5;

/**
 * Discriminator for every event class that can be in flight at a
 * checkpoint. Each saveable event struct writes its kind byte followed
 * by a fixed POD payload; the restore factory (snapshot.cc) switches
 * on the kind and rebinds the payload to the freshly-built system.
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
    WindowTick = 11,   ///< windowed-stats epoch rollover      {}
};

} // namespace protozoa

#endif // PROTOZOA_COMMON_SNAPSHOT_TAGS_HH
