#include "protocol/coherence_msg.hh"

#include <cstddef>
#include <sstream>

#include "common/rng.hh"

namespace protozoa {

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::GETS:     return "GETS";
      case MsgType::GETX:     return "GETX";
      case MsgType::PUT:      return "PUT";
      case MsgType::UNBLOCK:  return "UNBLOCK";
      case MsgType::FWD_GETS: return "FWD_GETS";
      case MsgType::FWD_GETX: return "FWD_GETX";
      case MsgType::INV:      return "INV";
      case MsgType::WB_RESP:  return "WB_RESP";
      case MsgType::ACK:      return "ACK";
      case MsgType::ACK_S:    return "ACK_S";
      case MsgType::NACK:     return "NACK";
      case MsgType::DATA:     return "DATA";
      case MsgType::WB_ACK:   return "WB_ACK";
    }
    return "?";
}

unsigned
CoherenceMsg::dataWords() const
{
    return data.count();
}

unsigned
CoherenceMsg::sizeBytes(unsigned control_bytes) const
{
    return control_bytes + dataWords() * kWordBytes;
}

CtrlClass
CoherenceMsg::ctrlClass() const
{
    switch (type) {
      case MsgType::GETS:
      case MsgType::GETX:
        return CtrlClass::Req;
      case MsgType::FWD_GETS:
      case MsgType::FWD_GETX:
        return CtrlClass::Fwd;
      case MsgType::INV:
        return CtrlClass::Inv;
      case MsgType::ACK:
      case MsgType::ACK_S:
      case MsgType::WB_ACK:
      case MsgType::UNBLOCK:
        return CtrlClass::Ack;
      case MsgType::NACK:
        return CtrlClass::Nack;
      case MsgType::DATA:
      case MsgType::WB_RESP:
      case MsgType::PUT:
        return CtrlClass::DataHdr;
    }
    return CtrlClass::Ack;
}

std::string
CoherenceMsg::toString() const
{
    std::ostringstream os;
    os << msgTypeName(type) << " region=0x" << std::hex << region
       << std::dec << " range=" << range.toString()
       << " sender=" << sender << " req=" << requester
       << " words=" << dataWords();
    if (type == MsgType::DATA)
        os << " grant=" << static_cast<int>(grant);
    return os.str();
}

std::uint64_t
CoherenceMsg::fingerprint() const
{
    std::uint64_t h = 0x70726f746f636865ULL;  // "protoche"
    hashFold(h, static_cast<std::uint64_t>(type));
    hashFold(h, (std::uint64_t(srcNode) << 32) | dstNode);
    hashFold(h, (std::uint64_t(sender) << 17) | requester);
    hashFold(h, region);
    hashFold(h, (std::uint64_t(range.start) << 8) | range.end);
    hashFold(h, (std::uint64_t(reqFetchRange.start) << 8) | reqFetchRange.end);
    std::uint64_t flags = 0;
    flags |= std::uint64_t(dstIsDir) << 0;
    flags |= std::uint64_t(keepNonOverlap) << 1;
    flags |= std::uint64_t(revokeWritePerm) << 2;
    flags |= std::uint64_t(tryDirect) << 3;
    flags |= std::uint64_t(suppliedDirect) << 4;
    flags |= std::uint64_t(stillOwner) << 5;
    flags |= std::uint64_t(stillSharer) << 6;
    flags |= std::uint64_t(upgrade) << 7;
    flags |= std::uint64_t(last) << 8;
    flags |= std::uint64_t(demoteOwner) << 9;
    flags |= std::uint64_t(static_cast<unsigned>(grant)) << 10;
    hashFold(h, flags);
    hashFold(h, data.valid);
    data.forEachWord([&](unsigned w, std::uint64_t v) {
        hashFold(h, (std::uint64_t(w) << 56) ^ v);
    });
    return h;
}

void
CoherenceMsg::save(Serializer &s) const
{
    CoherenceMsg canon = *this;
    for (unsigned w = 0; w < kMaxRegionWords; ++w) {
        if (!canon.data.has(w))
            canon.data.words[w] = 0;
    }
    s.writeRaw(canon);
}

bool
CoherenceMsg::load(Deserializer &d, unsigned nodes, unsigned region_words)
{
    if (!d.readRawChecked(
            *this, {offsetof(CoherenceMsg, dstIsDir),
                    offsetof(CoherenceMsg, keepNonOverlap),
                    offsetof(CoherenceMsg, revokeWritePerm),
                    offsetof(CoherenceMsg, tryDirect),
                    offsetof(CoherenceMsg, suppliedDirect),
                    offsetof(CoherenceMsg, stillOwner),
                    offsetof(CoherenceMsg, stillSharer),
                    offsetof(CoherenceMsg, upgrade),
                    offsetof(CoherenceMsg, last),
                    offsetof(CoherenceMsg, demoteOwner)}))
        return false;
    // An empty range (the {1,0} default included) is legal; a
    // non-empty one must lie inside the region.
    const auto in_region = [region_words](const WordRange &r) {
        return r.empty() || r.within(region_words);
    };
    const bool ok = static_cast<unsigned>(type) < kNumMsgTypes &&
                    grant <= GrantState::M && srcNode < nodes &&
                    dstNode < nodes && sender < nodes &&
                    requester < nodes && in_region(range) &&
                    in_region(reqFetchRange) &&
                    (data.valid & ~WordRange::full(region_words).mask()) == 0;
    if (!ok)
        d.setFailed();
    return ok;
}

} // namespace protozoa
