#include "protocol/conformance.hh"

#include <algorithm>
#include <bit>
#include <iterator>
#include <sstream>

#include "common/log.hh"

namespace protozoa {

const char *
l1StateName(L1State s)
{
    switch (s) {
      case L1State::I: return "I";
      case L1State::S: return "S";
      case L1State::E: return "E";
      case L1State::M: return "M";
      case L1State::IS: return "IS";
      case L1State::IM: return "IM";
      case L1State::SM: return "SM";
      case L1State::SM_B: return "SM_B";
    }
    return "?";
}

const char *
l1EventName(L1Event e)
{
    switch (e) {
      case L1Event::Load: return "Load";
      case L1Event::Store: return "Store";
      case L1Event::Data: return "Data";
      case L1Event::DataUpgrade: return "DataUpgrade";
      case L1Event::FwdGetS: return "FwdGetS";
      case L1Event::FwdGetX: return "FwdGetX";
      case L1Event::Inv: return "Inv";
      case L1Event::Revoke: return "Revoke";
      case L1Event::Evict: return "Evict";
      case L1Event::FillReplace: return "FillReplace";
    }
    return "?";
}

const char *
dirStateName(DirState s)
{
    switch (s) {
      case DirState::NP: return "NP";
      case DirState::I: return "I";
      case DirState::R: return "R";
      case DirState::W: return "W";
      case DirState::WR: return "WR";
      case DirState::MW: return "MW";
    }
    return "?";
}

const char *
dirEventName(DirEvent e)
{
    switch (e) {
      case DirEvent::GetS: return "GetS";
      case DirEvent::GetX: return "GetX";
      case DirEvent::Upgrade: return "Upgrade";
      case DirEvent::Put: return "Put";
      case DirEvent::PutDemote: return "PutDemote";
      case DirEvent::PutLast: return "PutLast";
      case DirEvent::PutStale: return "PutStale";
      case DirEvent::Recall: return "Recall";
    }
    return "?";
}

unsigned
protocolBit(ProtocolKind kind)
{
    switch (kind) {
      case ProtocolKind::MESI: return P_MESI;
      case ProtocolKind::ProtozoaSW: return P_SW;
      case ProtocolKind::ProtozoaSWMR: return P_SWMR;
      case ProtocolKind::ProtozoaMW: return P_MW;
    }
    panic("unknown protocol kind");
}

const char *
knobProfileName(KnobProfile p)
{
    switch (p) {
      case KnobProfile::Base: return "base";
      case KnobProfile::ThreeHop: return "3hop";
      case KnobProfile::BloomDir: return "bloom";
      case KnobProfile::ThreeHopBloom: return "3hop+bloom";
    }
    return "?";
}

KnobProfile
knobProfileOf(const SystemConfig &cfg)
{
    const bool bloom = cfg.directory == DirectoryKind::TaglessBloom;
    if (cfg.threeHop)
        return bloom ? KnobProfile::ThreeHopBloom : KnobProfile::ThreeHop;
    return bloom ? KnobProfile::BloomDir : KnobProfile::Base;
}

namespace {

using S = L1State;
using E = L1Event;
using D = DirState;
using V = DirEvent;

/**
 * The documented L1 transition inventory (implementation-level
 * Table 2). Rows with a note are only reached by specific races; the
 * note is the "explained-unreachable" text for runs that miss them.
 */
const L1TransitionDoc kL1Inventory[] = {
    // --- hits ---
    {S::S, E::Load, S::S, P_ALL, ""},
    {S::E, E::Load, S::E, P_ALL, ""},
    {S::M, E::Load, S::M, P_ALL, ""},
    {S::E, E::Store, S::M, P_ALL, ""},   // silent E->M upgrade
    {S::M, E::Store, S::M, P_ALL, ""},
    // --- misses ---
    {S::I, E::Load, S::IS, P_ALL, ""},
    {S::I, E::Store, S::IM, P_ALL, ""},
    {S::S, E::Store, S::SM, P_ALL, ""},  // permission-only upgrade
    // --- fills ---
    {S::IS, E::Data, S::S, P_ALL, ""},
    {S::IS, E::Data, S::E, P_ALL, ""},
    {S::IM, E::Data, S::M, P_ALL, ""},
    {S::SM, E::DataUpgrade, S::M, P_ALL, ""},
    {S::SM_B, E::DataUpgrade, S::IM, P_ALL,
     "probe invalidated the upgrade target mid-flight; the payload-free "
     "grant is consumed and the miss retries as a full GETX"},
    {S::SM, E::Data, S::M, P_ALL,
     "upgrade denied the dataless grant (requester not in readers: lost "
     "an upgrade race, or writer-tracked after a secondary GETS), so "
     "DATA carries a payload while the S target is still resident"},
    {S::SM_B, E::Data, S::M, P_ALL,
     "upgrade denied the dataless grant AND broken by a probe before the "
     "payload DATA arrived (under MESI the upgrade-race loser always "
     "lands here: the winner's INV precedes the payload in FIFO order)"},
    {S::S, E::FillReplace, S::I, P_ALL,
     "incoming fill overlaps a resident clean block: the denied-upgrade "
     "payload drops its own S target (under MESI via three-hop "
     "forwarding, whose DATA can overtake the directory's INV)"},
    // --- evictions ---
    {S::S, E::Evict, S::I, P_ALL, ""},
    {S::E, E::Evict, S::I, P_ALL, ""},
    {S::M, E::Evict, S::I, P_ALL, ""},
    // --- forwarded read probes ---
    {S::M, E::FwdGetS, S::S, P_ALL, ""},
    {S::E, E::FwdGetS, S::S, P_ALL, ""},
    {S::S, E::FwdGetS, S::S, P_ALL,
     "writer-tracked core holding only S blocks in the probed range "
     "(partial blocks, or a Bloom false probe)"},
    {S::I, E::FwdGetS, S::I, P_ALL,
     "stale probe: the blocks left before it arrived (answered from the "
     "writeback buffer or NACKed)"},
    // --- invalidating probes ---
    {S::S, E::Inv, S::I, P_ALL, ""},
    {S::E, E::Inv, S::I, P_ALL,
     "INV reaches an exclusive owner only via an inclusive-eviction "
     "recall (request INVs target tracked readers)"},
    {S::M, E::Inv, S::I, P_ALL,
     "INV reaches a dirty owner only via an inclusive-eviction recall"},
    {S::S, E::FwdGetX, S::I, P_ALL,
     "writer-tracked core holding S blocks in the probed range"},
    {S::E, E::FwdGetX, S::I, P_ALL, ""},
    {S::M, E::FwdGetX, S::I, P_ALL, ""},
    {S::SM, E::Inv, S::SM_B, P_ALL, ""},
    {S::SM, E::FwdGetX, S::SM_B, P_ALL,
     "upgrade broken while the upgrader was tracked as a writer (the "
     "denied-dataless window), or by a Bloom false probe"},
    {S::I, E::Inv, S::I, P_ALL,
     "stale INV: the reader's blocks were already evicted"},
    {S::I, E::FwdGetX, S::I, P_ALL,
     "stale FWD_GETX: the owner's blocks were already written back"},
    // --- write-permission revocation (SW+MR single-writer slot) ---
    {S::E, E::Revoke, S::S, P_SWMR, ""},
    {S::M, E::Revoke, S::S, P_SWMR, ""},
};

/**
 * The documented directory transition inventory (implementation-level
 * Table 3). Request rows are transaction-granular: the from-state is
 * sampled when the request begins, the to-state after respond().
 */
const DirTransitionDoc kDirInventory[] = {
    // --- GETS ---
    {D::NP, V::GetS, D::W, P_ALL, ""},    // miss fill, exclusive grant
    {D::I, V::GetS, D::W, P_ALL,
     "entry resident with no sharers (all writebacks collected)"},
    {D::R, V::GetS, D::R, P_ALL, ""},
    {D::W, V::GetS, D::R, P_ALL, ""},     // owner demoted by the probe
    {D::W, V::GetS, D::WR, P_ADAPT,
     "owner keeps write permission on non-overlapping blocks"},
    {D::W, V::GetS, D::W, P_ALL,
     "tracked owner was stale (NACKed the probe) so the requester is "
     "granted E, or a secondary GETS from the owner itself"},
    {D::WR, V::GetS, D::WR, P_ADAPT, ""},
    {D::WR, V::GetS, D::R, P_ADAPT,
     "owner demoted by an overlapping GETS"},
    {D::MW, V::GetS, D::MW, P_MW, ""},
    {D::MW, V::GetS, D::WR, P_MW,
     "one of the concurrent writers demoted by an overlapping GETS"},
    {D::MW, V::GetS, D::R, P_MW,
     "every concurrent writer demoted by an overlapping GETS"},
    {D::MW, V::GetS, D::W, P_MW,
     "secondary GETS from one writer while the other's probe found no "
     "blocks (eviction PUT in flight), clearing its tracking"},
    // --- GETX (full fetch) ---
    {D::NP, V::GetX, D::W, P_ALL, ""},
    {D::I, V::GetX, D::W, P_ALL, ""},
    {D::R, V::GetX, D::W, P_ALL, ""},
    {D::R, V::GetX, D::WR, P_ADAPT,
     "readers with non-overlapping blocks survive the partial INV"},
    {D::W, V::GetX, D::W, P_ALL, ""},
    {D::W, V::GetX, D::WR, P_ADAPT,
     "old owner keeps non-overlapping blocks as a reader (SW+MR "
     "revocation, or MW with surviving S blocks)"},
    {D::W, V::GetX, D::MW, P_MW,
     "non-overlapping second writer joins the writer set"},
    {D::WR, V::GetX, D::W, P_ADAPT, ""},
    {D::WR, V::GetX, D::WR, P_ADAPT, ""},
    {D::WR, V::GetX, D::MW, P_MW, ""},
    {D::MW, V::GetX, D::W, P_MW,
     "request range overlapped every other writer's blocks"},
    {D::MW, V::GetX, D::WR, P_MW, ""},
    {D::MW, V::GetX, D::MW, P_MW, ""},
    // --- GETX flagged as upgrade ---
    {D::R, V::Upgrade, D::W, P_ALL, ""},
    {D::R, V::Upgrade, D::WR, P_ADAPT, ""},
    {D::NP, V::Upgrade, D::W, P_ALL,
     "entry recalled while the upgrade was in flight; served as a full "
     "fill (the L1 side retries via SM_B)"},
    {D::I, V::Upgrade, D::W, P_ALL,
     "upgrader's reader tracking was cleared by a racing transaction "
     "before the upgrade arrived"},
    {D::W, V::Upgrade, D::W, P_ALL,
     "upgrader not in readers (lost an upgrade race, or writer-tracked "
     "after a secondary GETS); denied the dataless grant and served with "
     "a payload"},
    {D::W, V::Upgrade, D::WR, P_ADAPT,
     "denied upgrade partially overlapped the existing writer, demoting "
     "it to reader"},
    {D::W, V::Upgrade, D::MW, P_MW,
     "denied upgrade whose range missed the existing writer's blocks, "
     "adding a second concurrent writer"},
    {D::WR, V::Upgrade, D::W, P_ADAPT, ""},
    {D::WR, V::Upgrade, D::WR, P_ADAPT, ""},
    {D::WR, V::Upgrade, D::MW, P_MW,
     "a tracked reader's upgrade range missed the existing writer's "
     "blocks, adding a second concurrent writer"},
    {D::MW, V::Upgrade, D::W, P_MW,
     "upgrade overlapped every other writer's blocks"},
    {D::MW, V::Upgrade, D::WR, P_MW, ""},
    {D::MW, V::Upgrade, D::MW, P_MW, ""},
    // --- writebacks ---
    {D::W, V::PutLast, D::I, P_ALL, ""},
    {D::W, V::PutDemote, D::R, P_PARTIAL,
     "writer evicted its last writable block but keeps S blocks"},
    {D::W, V::Put, D::W, P_PARTIAL,
     "writer evicted one dirty block and keeps write permission"},
    {D::WR, V::PutLast, D::R, P_ADAPT, ""},
    {D::WR, V::PutDemote, D::R, P_ADAPT, ""},
    {D::WR, V::Put, D::WR, P_ADAPT, ""},
    {D::WR, V::PutDemote, D::WR, P_ADAPT,
     "demote PUT from a core a racing probe already demoted to reader; "
     "a different core is the tracked writer"},
    {D::WR, V::PutLast, D::W, P_ADAPT,
     "last-block PUT from the region's only tracked reader (demoted by "
     "a racing probe before the PUT arrived)"},
    {D::WR, V::PutLast, D::WR, P_ADAPT,
     "last-block PUT from one of several tracked readers (demoted by a "
     "racing probe before the PUT arrived)"},
    {D::MW, V::PutLast, D::W, P_MW, ""},
    {D::MW, V::PutLast, D::WR, P_MW, ""},
    {D::MW, V::PutLast, D::MW, P_MW,
     "three or more concurrent writers, or the PUT came from a core a "
     "racing probe demoted to reader"},
    {D::MW, V::PutDemote, D::WR, P_MW, ""},
    {D::MW, V::PutDemote, D::MW, P_MW,
     "three or more concurrent writers, or the PUT came from a core a "
     "racing probe demoted to reader"},
    {D::MW, V::Put, D::MW, P_MW, ""},
    {D::R, V::PutLast, D::I, P_ALL,
     "PUT raced with a probe that demoted the writer to reader; it was "
     "the only sharer"},
    {D::R, V::PutLast, D::R, P_ALL,
     "PUT raced with a demoting probe; other readers remain"},
    {D::R, V::PutDemote, D::R, P_ALL,
     "demote PUT arriving after a probe already demoted the writer"},
    {D::R, V::Put, D::R, P_ALL,
     "non-final PUT arriving after a probe already demoted the writer"},
    // --- stale writebacks (untracked sender; the data was already
    // --- collected from the writeback buffer by a forwarded probe) ---
    {D::NP, V::PutStale, D::NP, P_ALL,
     "region recalled while the PUT was in flight"},
    {D::I, V::PutStale, D::I, P_ALL,
     "sender's tracking fully cleared while the PUT was in flight"},
    {D::R, V::PutStale, D::R, P_ALL,
     "sender invalidated by a probe while the PUT was in flight"},
    {D::W, V::PutStale, D::W, P_ALL,
     "another core took ownership while the PUT was in flight"},
    {D::WR, V::PutStale, D::WR, P_ADAPT,
     "sender's buffered writeback was collected by an overlapping "
     "probe that cleared its tracking; other writers and readers "
     "remain"},
    {D::MW, V::PutStale, D::MW, P_MW,
     "sender's buffered writeback was collected by an overlapping "
     "probe that cleared its tracking; multiple writers remain"},
    // --- inclusive-eviction recalls ---
    {D::I, V::Recall, D::NP, P_ALL,
     "victim entry with no tracked sharers"},
    {D::R, V::Recall, D::NP, P_ALL, ""},
    {D::W, V::Recall, D::NP, P_ALL, ""},
    {D::WR, V::Recall, D::NP, P_ADAPT, ""},
    {D::MW, V::Recall, D::NP, P_MW, ""},
};

} // namespace

const L1TransitionDoc *
ConformanceCoverage::l1Inventory(std::size_t &count)
{
    count = sizeof(kL1Inventory) / sizeof(kL1Inventory[0]);
    return kL1Inventory;
}

const DirTransitionDoc *
ConformanceCoverage::dirInventory(std::size_t &count)
{
    count = sizeof(kDirInventory) / sizeof(kDirInventory[0]);
    return kDirInventory;
}

ConformanceCoverage::ConformanceCoverage(ProtocolKind protocol,
                                         KnobProfile knob_profile)
    : proto(protocol), profile(knob_profile)
{
    const unsigned bit = protocolBit(proto);
    for (const auto &row : kL1Inventory) {
        if (row.protocols & bit)
            l1Doc[idx(row.from)][idx(row.ev)][idx(row.to)] = true;
    }
    for (const auto &row : kDirInventory) {
        if (row.protocols & bit)
            dirDoc[idx(row.from)][idx(row.ev)][idx(row.to)] = true;
    }
}

void
ConformanceCoverage::recordL1(L1State from, L1Event ev, L1State to)
{
    if (!l1Doc[idx(from)][idx(ev)][idx(to)])
        panic("undocumented L1 transition under %s: (%s, %s) -> %s",
              protocolName(proto), l1StateName(from), l1EventName(ev),
              l1StateName(to));
    seen[idx(profile)] = true;
    l1.add(l1Cell(idx(profile), from, ev, to), 1);
}

void
ConformanceCoverage::recordDir(DirState from, DirEvent ev, DirState to)
{
    if (!dirDoc[idx(from)][idx(ev)][idx(to)])
        panic("undocumented directory transition under %s: "
              "(%s, %s) -> %s",
              protocolName(proto), dirStateName(from), dirEventName(ev),
              dirStateName(to));
    seen[idx(profile)] = true;
    dir.add(dirCell(idx(profile), from, ev, to), 1);
}

void
ConformanceCoverage::merge(const ConformanceCoverage &other)
{
    PROTO_ASSERT(other.proto == proto,
                 "merging coverage across protocols");
    for (unsigned p = 0; p < kNumKnobProfiles; ++p)
        seen[p] = seen[p] || other.seen[p];
    other.l1.forEachNonZero(
        [&](unsigned c) { l1.add(c, other.l1.counts[c]); });
    other.dir.forEachNonZero(
        [&](unsigned c) { dir.add(c, other.dir.counts[c]); });
}

template <unsigned Cells>
void
ConformanceCoverage::Matrix<Cells>::save(Serializer &s) const
{
    unsigned n = 0;
    for (const std::uint64_t w : nonZero)
        n += static_cast<unsigned>(std::popcount(w));
    s.writeU32(Cells);
    s.writeU32(n);
    forEachNonZero([&](unsigned c) {
        s.writeU32(c);
        s.writeU64(counts[c]);
    });
}

template <unsigned Cells>
bool
ConformanceCoverage::Matrix<Cells>::restore(Deserializer &d)
{
    forEachNonZero([&](unsigned c) { counts[c] = 0; });
    std::fill(std::begin(nonZero), std::end(nonZero), 0);
    const std::uint32_t cells = d.readU32();
    const std::uint32_t n = d.readU32();
    if (d.failed() || cells != Cells || n > Cells)
        return false;
    std::uint64_t next = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t c = d.readU32();
        const std::uint64_t count = d.readU64();
        if (d.failed() || c < next || c >= Cells || count == 0)
            return false;
        next = std::uint64_t(c) + 1;
        add(c, count);
    }
    return true;
}

void
ConformanceCoverage::saveState(Serializer &s) const
{
    for (const bool b : seen)
        s.writeU8(b ? 1 : 0);
    l1.save(s);
    dir.save(s);
}

bool
ConformanceCoverage::restoreState(Deserializer &d)
{
    for (bool &b : seen) {
        const std::uint8_t v = d.readU8();
        if (d.failed() || v > 1)
            return false;
        b = v != 0;
    }
    return l1.restore(d) && dir.restore(d);
}

unsigned
ConformanceCoverage::documentedRows() const
{
    const unsigned bit = protocolBit(proto);
    unsigned n = 0;
    for (const auto &row : kL1Inventory)
        n += (row.protocols & bit) ? 1 : 0;
    for (const auto &row : kDirInventory)
        n += (row.protocols & bit) ? 1 : 0;
    return n;
}

unsigned
ConformanceCoverage::hitRows() const
{
    const unsigned bit = protocolBit(proto);
    unsigned n = 0;
    for (const auto &row : kL1Inventory) {
        if ((row.protocols & bit) &&
            l1Count(row.from, row.ev, row.to) > 0)
            ++n;
    }
    for (const auto &row : kDirInventory) {
        if ((row.protocols & bit) &&
            dirCount(row.from, row.ev, row.to) > 0)
            ++n;
    }
    return n;
}

unsigned
ConformanceCoverage::hitRowsAt(KnobProfile p) const
{
    const unsigned bit = protocolBit(proto);
    unsigned n = 0;
    for (const auto &row : kL1Inventory) {
        if ((row.protocols & bit) &&
            l1CountAt(p, row.from, row.ev, row.to) > 0)
            ++n;
    }
    for (const auto &row : kDirInventory) {
        if ((row.protocols & bit) &&
            dirCountAt(p, row.from, row.ev, row.to) > 0)
            ++n;
    }
    return n;
}

unsigned
ConformanceCoverage::unexplainedMisses() const
{
    const unsigned bit = protocolBit(proto);
    unsigned n = 0;
    for (const auto &row : kL1Inventory) {
        if ((row.protocols & bit) && row.note[0] == '\0' &&
            l1Count(row.from, row.ev, row.to) == 0)
            ++n;
    }
    for (const auto &row : kDirInventory) {
        if ((row.protocols & bit) && row.note[0] == '\0' &&
            dirCount(row.from, row.ev, row.to) == 0)
            ++n;
    }
    return n;
}

std::string
ConformanceCoverage::report(bool verbose) const
{
    const unsigned bit = protocolBit(proto);
    std::ostringstream os;
    os << "transition coverage [" << protocolName(proto) << "]: "
       << hitRows() << "/" << documentedRows() << " documented rows hit";
    const unsigned bad = unexplainedMisses();
    if (bad > 0)
        os << " (" << bad << " missed without explanation)";
    os << "\n";

    // Per-knob-profile breakdown, for the profiles that actually ran.
    for (unsigned p = 0; p < kNumKnobProfiles; ++p) {
        const auto kp = static_cast<KnobProfile>(p);
        if (!profileSeen(kp))
            continue;
        os << "  knobs " << knobProfileName(kp) << ": "
           << hitRowsAt(kp) << "/" << documentedRows()
           << " documented rows hit\n";
    }

    auto emitL1 = [&](bool hit) {
        for (const auto &row : kL1Inventory) {
            if (!(row.protocols & bit))
                continue;
            const std::uint64_t n = l1Count(row.from, row.ev, row.to);
            if ((n > 0) != hit)
                continue;
            os << "  L1  (" << l1StateName(row.from) << ", "
               << l1EventName(row.ev) << ") -> "
               << l1StateName(row.to);
            if (hit) {
                os << "  x" << n << "\n";
            } else {
                os << "  MISSED";
                if (row.note[0] != '\0')
                    os << " [explained: " << row.note << "]";
                os << "\n";
            }
        }
    };
    auto emitDir = [&](bool hit) {
        for (const auto &row : kDirInventory) {
            if (!(row.protocols & bit))
                continue;
            const std::uint64_t n = dirCount(row.from, row.ev, row.to);
            if ((n > 0) != hit)
                continue;
            os << "  dir (" << dirStateName(row.from) << ", "
               << dirEventName(row.ev) << ") -> "
               << dirStateName(row.to);
            if (hit) {
                os << "  x" << n << "\n";
            } else {
                os << "  MISSED";
                if (row.note[0] != '\0')
                    os << " [explained: " << row.note << "]";
                os << "\n";
            }
        }
    };

    if (verbose) {
        emitL1(true);
        emitDir(true);
    }
    emitL1(false);
    emitDir(false);
    return os.str();
}

} // namespace protozoa
