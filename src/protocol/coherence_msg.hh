/**
 * @file
 * Coherence message vocabulary shared by the L1 and directory
 * controllers.
 *
 * The set matches a 4-hop MESI CMP directory protocol plus the Protozoa
 * additions of Table 3: variable-granularity probes (a probe names the
 * WordRange it applies to), the non-overlapping acknowledgment ACK_S,
 * and the PUT/PUT_LAST writeback pair that lets multiple blocks of one
 * region retire independently.
 */

#ifndef PROTOZOA_PROTOCOL_COHERENCE_MSG_HH
#define PROTOZOA_PROTOCOL_COHERENCE_MSG_HH

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/log.hh"
#include "common/serialize.hh"
#include "common/small_vec.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "common/word_range.hh"

namespace protozoa {

enum class MsgType : std::uint8_t
{
    // L1 -> directory requests
    GETS,       ///< read miss: request words for reading
    GETX,       ///< write miss: request words for writing
    PUT,        ///< eviction writeback of one dirty block
    UNBLOCK,    ///< requester signals transaction completion

    // directory -> L1 probes
    FWD_GETS,   ///< downgrade probe on behalf of a reader
    FWD_GETX,   ///< invalidate/writeback probe on behalf of a writer
    INV,        ///< invalidate probe to a (clean) sharer

    // L1 -> directory probe responses
    WB_RESP,    ///< probe response carrying dirty data
    ACK,        ///< probe invalidated data; nothing retained
    ACK_S,      ///< probe acknowledged; non-overlapping data retained
    NACK,       ///< probe found nothing (stale sharer/owner info)

    // directory -> L1 responses
    DATA,       ///< miss response with words and a grant state
    WB_ACK,     ///< acknowledges an eviction PUT
};

/** Number of MsgType values. */
constexpr unsigned kNumMsgTypes = static_cast<unsigned>(MsgType::WB_ACK) + 1;

const char *msgTypeName(MsgType t);

/** Permission granted with a DATA response. */
enum class GrantState : std::uint8_t { S, E, M };

/** Inline word buffer sized for the largest region (no heap). */
using WordsVec = SmallVec<std::uint64_t, kMaxRegionWords>;

/** A contiguous run of words with payload, within one region. */
struct DataSegment
{
    WordRange range;
    WordsVec words;

    DataSegment() = default;
    DataSegment(WordRange r, WordsVec w) : range(r), words(std::move(w))
    {
    }
};

/**
 * Message payload: the carried words of one region, as a validity mask
 * plus a region-indexed word array.
 *
 * Replaces the former vector<DataSegment>: the segments of any one
 * message are pairwise disjoint (concurrently resident blocks never
 * overlap, and an in-flight writeback's range cannot overlap a block
 * filled later, because its WB_ACK is ordered before that DATA on the
 * same directory->L1 channel), so a flat mask loses no information and
 * needs no per-segment heap storage. setRange() asserts the invariant.
 */
struct MsgData
{
    WordMask valid = 0;
    std::array<std::uint64_t, kMaxRegionWords> words;

    bool empty() const { return valid == 0; }

    unsigned
    count() const
    {
        return static_cast<unsigned>(std::popcount(valid));
    }

    void clear() { valid = 0; }

    bool has(unsigned w) const { return (valid >> w) & 1; }

    std::uint64_t
    at(unsigned w) const
    {
        PROTO_ASSERT(has(w), "reading absent payload word %u", w);
        return words[w];
    }

    void
    set(unsigned w, std::uint64_t v)
    {
        PROTO_ASSERT(w < kMaxRegionWords, "payload word out of range");
        PROTO_ASSERT(!has(w), "overlapping payload segments (word %u)",
                     w);
        words[w] = v;
        valid |= WordMask(1) << w;
    }

    /**
     * Bulk-add a contiguous run; @p src is indexed from r.start. The
     * disjointness invariant is validated once against the whole run
     * mask, and the payload words are copied with a single memcpy —
     * the per-word set() loop this replaces validated and copied one
     * word at a time.
     */
    void
    setRange(const WordRange &r, const std::uint64_t *src)
    {
        if (r.empty())
            return;
        const WordMask m = r.mask();
        PROTO_ASSERT(r.end < kMaxRegionWords, "payload run out of range");
        PROTO_ASSERT((valid & m) == 0,
                     "overlapping payload segments (run %u-%u)",
                     r.start, r.end);
        std::memcpy(&words[r.start], src,
                    std::size_t(r.words()) * sizeof(std::uint64_t));
        valid |= m;
    }

    /**
     * Bulk-copy the carried words of @p r into @p dst (indexed from
     * r.start). Every word of the range must be present; validated
     * once against the run mask.
     */
    void
    copyOut(const WordRange &r, std::uint64_t *dst) const
    {
        if (r.empty())
            return;
        PROTO_ASSERT((valid & r.mask()) == r.mask(),
                     "reading absent payload run %u-%u", r.start, r.end);
        std::memcpy(dst, &words[r.start],
                    std::size_t(r.words()) * sizeof(std::uint64_t));
    }

    /**
     * Mask-OR merge of another payload. The carried word sets must be
     * disjoint (validated with one AND); each of @p o's runs lands
     * with a single memcpy.
     */
    void
    mergeFrom(const MsgData &o)
    {
        PROTO_ASSERT((valid & o.valid) == 0,
                     "overlapping payload merge (masks %x & %x)",
                     valid, o.valid);
        forEachMaskRun(o.valid, [&](const WordRange &run) {
            std::memcpy(&words[run.start], &o.words[run.start],
                        std::size_t(run.words()) *
                            sizeof(std::uint64_t));
        });
        valid |= o.valid;
    }

    /** Visit every carried (word, value), ascending word order. */
    template <typename F>
    void
    forEachWord(F &&fn) const
    {
        WordMask rest = valid;
        while (rest) {
            const unsigned w =
                static_cast<unsigned>(std::countr_zero(rest));
            rest &= rest - 1;
            fn(w, words[w]);
        }
    }

    /**
     * Visit every carried maximal contiguous run as (range, src)
     * where @p src is indexed from range.start — the bulk-copy
     * counterpart of forEachWord.
     */
    template <typename F>
    void
    forEachRun(F &&fn) const
    {
        forEachMaskRun(valid, [&](const WordRange &run) {
            fn(run, &words[run.start]);
        });
    }
};

struct CoherenceMsg
{
    MsgType type = MsgType::ACK;

    /** Mesh node of the sender / receiver. */
    unsigned srcNode = 0;
    unsigned dstNode = 0;
    /** True when the destination is a directory tile, not an L1. */
    bool dstIsDir = false;

    /** L1 that sent the message (valid for L1-originated types). */
    CoreId sender = 0;
    /** Original requester a probe acts on behalf of. */
    CoreId requester = 0;

    Addr region = 0;
    /** Request / probe / data range. */
    WordRange range;

    /** Payload for DATA / WB_RESP / PUT. */
    MsgData data;

    // Probe semantics (directory -> L1).
    /** Keep blocks that do not overlap `range` (Protozoa-MW / SW+MR). */
    bool keepNonOverlap = false;
    /** Write back and clean *all* dirty blocks (SW+MR single-writer). */
    bool revokeWritePerm = false;
    /**
     * 3-hop mode: supply DATA for `reqFetchRange` directly to the
     * requester if the resident blocks cover it (Sec. 6).
     */
    bool tryDirect = false;
    /** The requester's fetch range (may differ from the probe range). */
    WordRange reqFetchRange;

    // Probe-response info (L1 -> directory).
    /** The probed L1 sent DATA straight to the requester (3-hop). */
    bool suppliedDirect = false;
    /** Sender still holds dirty block(s) of the region. */
    bool stillOwner = false;
    /** Sender still holds some block of the region. */
    bool stillSharer = false;

    /**
     * GETX only: the requester holds the words in S and asks for
     * permission alone; the directory answers with a payload-free DATA
     * when the requester is still a tracked reader.
     */
    bool upgrade = false;

    // PUT flags.
    /** No block of the region remains at the sender. */
    bool last = false;
    /** No dirty block remains: demote sender from writer to reader. */
    bool demoteOwner = false;

    /** Grant carried by DATA. */
    GrantState grant = GrantState::S;

    /** Total payload words across all segments. */
    unsigned dataWords() const;

    /** On-wire size: control header plus payload. */
    unsigned sizeBytes(unsigned control_bytes) const;

    /** Stats class of the header/control portion (Fig. 10). */
    CtrlClass ctrlClass() const;

    /**
     * Canonical 64-bit content hash: every protocol-visible field,
     * including the payload words. Two in-flight messages that would
     * behave identically on delivery hash equal (protocheck uses this
     * for the in-flight part of the state fingerprint).
     */
    std::uint64_t fingerprint() const;

    /**
     * Append the message to a snapshot image as its object bytes,
     * with the payload words outside data.valid written as zero: they
     * are never read and hold whatever the storage last held, so
     * identical runs save identical images.
     */
    void save(Serializer &s) const;

    /**
     * Read one message written by save(), failing closed (false, and
     * @p d failed) on a flag byte other than 0 or 1, a MsgType or
     * GrantState out of range, a srcNode, dstNode, sender or
     * requester at or above @p nodes, a non-empty range or
     * reqFetchRange outside a region of @p region_words words, or a
     * payload word marked valid outside that region.
     */
    bool load(Deserializer &d, unsigned nodes, unsigned region_words);

    std::string toString() const;
};

} // namespace protozoa

#endif // PROTOZOA_PROTOCOL_COHERENCE_MSG_HH
