/**
 * @file
 * Unit tests for coherence message sizing and stats classification
 * (the basis of the Fig. 9/10 traffic accounting).
 */

#include <gtest/gtest.h>

#include <vector>

#include "protocol/coherence_msg.hh"

namespace protozoa {
namespace {

TEST(CoherenceMsg, ControlMessagesAreHeaderOnly)
{
    CoherenceMsg msg;
    msg.type = MsgType::GETS;
    EXPECT_EQ(msg.dataWords(), 0u);
    EXPECT_EQ(msg.sizeBytes(8), 8u);
    EXPECT_EQ(msg.sizeBytes(16), 16u);
}

TEST(CoherenceMsg, DataSizeCountsAllSegments)
{
    CoherenceMsg msg;
    msg.type = MsgType::WB_RESP;
    const std::uint64_t run1[] = {1, 2, 3};
    const std::uint64_t run2[] = {4, 5};
    msg.data.setRange(WordRange(0, 2), run1);
    msg.data.setRange(WordRange(5, 6), run2);
    EXPECT_EQ(msg.dataWords(), 5u);
    EXPECT_EQ(msg.sizeBytes(8), 8u + 5 * 8u);
}

TEST(MsgData, SetAtAndVisitAscending)
{
    MsgData data;
    EXPECT_TRUE(data.empty());
    data.set(6, 60);
    data.set(1, 10);
    data.set(3, 30);
    EXPECT_EQ(data.count(), 3u);
    EXPECT_TRUE(data.has(3));
    EXPECT_FALSE(data.has(2));
    EXPECT_EQ(data.at(6), 60u);

    std::vector<unsigned> order;
    data.forEachWord([&](unsigned w, std::uint64_t v) {
        order.push_back(w);
        EXPECT_EQ(v, w * 10u);
    });
    EXPECT_EQ(order, (std::vector<unsigned>{1, 3, 6}));
}

TEST(MsgDataDeath, OverlappingRunsPanic)
{
    MsgData data;
    const std::uint64_t run[] = {1, 2, 3};
    data.setRange(WordRange(0, 2), run);
    EXPECT_DEATH(data.setRange(WordRange(2, 4), run),
                 "overlapping payload segments");
}

TEST(CoherenceMsg, CtrlClassMapping)
{
    auto classOf = [](MsgType t) {
        CoherenceMsg m;
        m.type = t;
        return m.ctrlClass();
    };
    EXPECT_EQ(classOf(MsgType::GETS), CtrlClass::Req);
    EXPECT_EQ(classOf(MsgType::GETX), CtrlClass::Req);
    EXPECT_EQ(classOf(MsgType::FWD_GETS), CtrlClass::Fwd);
    EXPECT_EQ(classOf(MsgType::FWD_GETX), CtrlClass::Fwd);
    EXPECT_EQ(classOf(MsgType::INV), CtrlClass::Inv);
    EXPECT_EQ(classOf(MsgType::ACK), CtrlClass::Ack);
    EXPECT_EQ(classOf(MsgType::ACK_S), CtrlClass::Ack);
    EXPECT_EQ(classOf(MsgType::WB_ACK), CtrlClass::Ack);
    EXPECT_EQ(classOf(MsgType::UNBLOCK), CtrlClass::Ack);
    EXPECT_EQ(classOf(MsgType::NACK), CtrlClass::Nack);
    EXPECT_EQ(classOf(MsgType::DATA), CtrlClass::DataHdr);
    EXPECT_EQ(classOf(MsgType::WB_RESP), CtrlClass::DataHdr);
    EXPECT_EQ(classOf(MsgType::PUT), CtrlClass::DataHdr);
}

TEST(CoherenceMsg, NamesAreStable)
{
    EXPECT_STREQ(msgTypeName(MsgType::GETS), "GETS");
    EXPECT_STREQ(msgTypeName(MsgType::FWD_GETX), "FWD_GETX");
    EXPECT_STREQ(msgTypeName(MsgType::ACK_S), "ACK_S");
    EXPECT_STREQ(msgTypeName(MsgType::WB_ACK), "WB_ACK");
}

TEST(CoherenceMsg, ToStringMentionsKeyFields)
{
    CoherenceMsg msg;
    msg.type = MsgType::FWD_GETX;
    msg.region = 0xabc0;
    msg.range = WordRange(2, 5);
    msg.sender = 3;
    msg.requester = 7;
    const std::string s = msg.toString();
    EXPECT_NE(s.find("FWD_GETX"), std::string::npos);
    EXPECT_NE(s.find("abc0"), std::string::npos);
    EXPECT_NE(s.find("[2-5]"), std::string::npos);
    EXPECT_NE(s.find("req=7"), std::string::npos);
}

TEST(DataSegment, ConstructsWithRangeAndWords)
{
    DataSegment seg(WordRange(1, 3), {7, 8, 9});
    EXPECT_EQ(seg.range.words(), 3u);
    EXPECT_EQ(seg.words.size(), 3u);
}

} // namespace
} // namespace protozoa
