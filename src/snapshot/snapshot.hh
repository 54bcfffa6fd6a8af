/**
 * @file
 * Full-system checkpoint/restore (DESIGN.md §13).
 *
 * A snapshot is a dense little-endian binary image of every piece of
 * mutable simulation state: header (magic, format version, config
 * fingerprint), the two value stores, conformance coverage, every
 * core / L1 / directory tile, the mesh, the windowed stats series, and
 * finally the calendar queue — clock, sequence counter, kernel stats,
 * and every pending event as a (when, seq, EventKind, payload) record
 * sorted by (when, seq).
 *
 * The contract is digest-locked resumption: save at cycle C, restore
 * into a freshly constructed System (same SystemConfig, nothing run
 * yet), run to completion, and the stats digest is bit-identical to
 * the uninterrupted run. Snapshots are only taken at quiescent points
 * (between events at a runTo() stop boundary), so no C++ closure is
 * ever on the wire: every pending event is one of the saveable named
 * event structs tagged in common/snapshot_tags.hh, and the restore
 * factory here rebinds each record to the fresh system's components.
 *
 * Corrupt, truncated, or version-skewed images are rejected with a
 * clear error string; nothing is partially applied to a system whose
 * restore failed (callers discard the System on failure).
 *
 * The entry points live on System (saveSnapshot / restoreSnapshot and
 * the *File convenience wrappers); this file only adds the config
 * fingerprint used in the header.
 */

#ifndef PROTOZOA_SNAPSHOT_SNAPSHOT_HH
#define PROTOZOA_SNAPSHOT_SNAPSHOT_HH

#include <cstdint>

#include "common/config.hh"

namespace protozoa {

/**
 * Order-sensitive hash of every SystemConfig field that shapes
 * serialized state. A snapshot can only be restored into a system
 * whose fingerprint matches — geometry or protocol skew would
 * otherwise deserialize garbage into mismatched tables.
 */
std::uint64_t configFingerprint(const SystemConfig &cfg);

} // namespace protozoa

#endif // PROTOZOA_SNAPSHOT_SNAPSHOT_HH
