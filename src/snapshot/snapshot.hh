/**
 * @file
 * Full-system checkpoint/restore (DESIGN.md §13).
 *
 * A snapshot is a dense little-endian binary image of every piece of
 * mutable simulation state: header (magic, format version, config
 * fingerprint), the two value stores, conformance coverage, every
 * core / L1 / directory tile, the mesh, and finally the calendar
 * queue — clock, sequence counter, kernel stats, and every pending
 * event as a (when, seq, EventKind, payload) record sorted by (when,
 * seq).
 *
 * The contract is digest-locked resumption: save at cycle C, restore
 * into any System built from the same SystemConfig — freshly
 * constructed or already run to some other cycle — run to completion,
 * and the stats digest is bit-identical to the uninterrupted run.
 * Restore overwrites in place: each section first resets whatever its
 * encoding leaves implicit (invalid L2 slots, empty L1 sets, zero
 * matrix cells, an empty event queue), in time proportional to what
 * the component holds, so an image restored into a used System
 * re-saves byte for byte as one restored into a fresh System. This is
 * how the explorer backtracks (check/explorer.hh). Snapshots are only
 * taken at quiescent points (between events at a runTo() stop
 * boundary). Every pending event is already a plain record
 * (protocol/event.hh), written and read back as is; a test hook,
 * which points into the running process, is the one record refused.
 *
 * Corrupt, truncated, or version-skewed images are rejected with a
 * clear error string. The header (magic, version, config) is checked
 * before anything is touched; a failure in a later section leaves the
 * System half-restored, and callers discard it.
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
