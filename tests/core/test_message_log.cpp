#include "core/message_log.hpp"

#include <gtest/gtest.h>

namespace mobichk::core {
namespace {

TEST(MessageLog, OutOfOrderSendIdsAsTheShardedMergeNotesThem) {
  // The barrier merge notes each shard's sends in turn, so final ids
  // arrive interleaved and with gaps still open.
  MessageLog log;
  log.note_send(4, 0, 1, 10);
  log.note_send(1, 1, 0, 3);
  log.note_send(6, 2, 1, 7);
  EXPECT_EQ(log.sends_recorded(), 3u);
  log.note_send(2, 0, 2, 4);  // fills a gap below the highest id
  log.note_send(3, 1, 2, 5);
  EXPECT_EQ(log.sends_recorded(), 5u);
  log.note_receive(6, 20, 9);
  log.note_receive(2, 21, 0);
  ASSERT_EQ(log.deliveries().size(), 2u);
  const MessageLog::Delivery& d = log.deliveries()[0];
  EXPECT_EQ(d.msg_id, 6u);
  EXPECT_EQ(d.src, 2u);
  EXPECT_EQ(d.dst, 1u);
  EXPECT_EQ(d.send_pos, 7u);
  EXPECT_EQ(d.recv_pos, 20u);
  EXPECT_EQ(d.sn, 9u);
  EXPECT_EQ(log.deliveries()[1].send_pos, 4u);
  EXPECT_EQ(log.undelivered(), 3u);
}

TEST(MessageLog, ForeignIdsAreIgnored) {
  MessageLog log;
  log.note_send(3, 0, 1, 5);
  log.note_receive(0, 1, 0);    // id 0 means "no message"
  log.note_receive(2, 1, 0);    // a hole below a noted id
  log.note_receive(99, 1, 0);   // past every noted id
  EXPECT_TRUE(log.deliveries().empty());
  EXPECT_EQ(log.sends_recorded(), 1u);
  EXPECT_EQ(log.undelivered(), 1u);
}

TEST(MessageLog, RepeatedSendNoteKeepsTheFirst) {
  MessageLog log;
  log.note_send(1, 0, 1, 5);
  log.note_send(1, 1, 0, 9);
  EXPECT_EQ(log.sends_recorded(), 1u);
  log.note_receive(1, 6, 0);
  ASSERT_EQ(log.deliveries().size(), 1u);
  EXPECT_EQ(log.deliveries()[0].src, 0u);
  EXPECT_EQ(log.deliveries()[0].send_pos, 5u);
}

TEST(MessageLog, UndeliveredCountsDistinctIdsUnderDuplicates) {
  // At-least-once transport with dedup off: one id delivered three times
  // still leaves exactly the never-delivered sends undelivered.
  MessageLog log;
  for (u64 id = 1; id <= 4; ++id) log.note_send(id, 0, 1, id);
  log.note_receive(2, 10, 0);
  log.note_receive(2, 11, 0);
  log.note_receive(4, 12, 0);
  log.note_receive(2, 13, 0);
  EXPECT_EQ(log.deliveries().size(), 4u);
  EXPECT_EQ(log.undelivered(), 2u);  // ids 1 and 3
}

}  // namespace
}  // namespace mobichk::core
