#include "core/recovery.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace mobichk::core {
namespace {

CheckpointRecord make(net::HostId host, u64 sn, u64 pos,
                      CheckpointKind kind = CheckpointKind::kBasic) {
  CheckpointRecord rec;
  rec.host = host;
  rec.sn = sn;
  rec.event_pos = pos;
  rec.kind = kind;
  return rec;
}

TEST(IndexRecoveryLine, SameIndexMembers) {
  CheckpointLog log(2);
  log.append(make(0, 0, 0, CheckpointKind::kInitial));
  log.append(make(1, 0, 0, CheckpointKind::kInitial));
  log.append(make(0, 1, 10));
  log.append(make(1, 1, 12));
  const auto cut = index_recovery_line(log, 1, IndexLineRule::kFirstAtLeast, {50, 50});
  EXPECT_EQ(cut.pos[0], 10u);
  EXPECT_EQ(cut.pos[1], 12u);
  EXPECT_EQ(cut.virtual_members(), 0u);
}

TEST(IndexRecoveryLine, JumpTakesFirstGreater) {
  CheckpointLog log(2);
  log.append(make(0, 0, 0));
  log.append(make(1, 0, 0));
  log.append(make(0, 3, 10));  // host 0 jumped 1 and 2
  log.append(make(1, 1, 8));
  const auto cut = index_recovery_line(log, 1, IndexLineRule::kFirstAtLeast, {50, 50});
  EXPECT_EQ(cut.members[0]->sn, 3u);  // first with sn >= 1
  EXPECT_EQ(cut.members[1]->sn, 1u);
}

TEST(IndexRecoveryLine, MissingIndexYieldsVirtualMember) {
  CheckpointLog log(2);
  log.append(make(0, 0, 0));
  log.append(make(1, 0, 0));
  log.append(make(0, 5, 20));
  const auto cut = index_recovery_line(log, 5, IndexLineRule::kFirstAtLeast, {99, 42});
  EXPECT_EQ(cut.members[0]->sn, 5u);
  EXPECT_EQ(cut.members[1], nullptr);
  EXPECT_EQ(cut.pos[1], 42u);  // the host's current state
  EXPECT_EQ(cut.virtual_members(), 1u);
}

TEST(IndexRecoveryLine, QbcRuleUsesLastReplacement) {
  CheckpointLog log(1);
  log.append(make(0, 0, 0, CheckpointKind::kInitial));
  log.append(make(0, 0, 7));   // equivalence replacement
  log.append(make(0, 0, 15));  // another replacement
  log.append(make(0, 1, 20));
  const auto first = index_recovery_line(log, 0, IndexLineRule::kFirstAtLeast, {30});
  const auto last = index_recovery_line(log, 0, IndexLineRule::kLastEqual, {30});
  EXPECT_EQ(first.pos[0], 0u);
  EXPECT_EQ(last.pos[0], 15u);  // the freshest equivalent checkpoint
}

TEST(IndexRecoveryLine, QbcRuleFallsBackToFirstGreater) {
  CheckpointLog log(1);
  log.append(make(0, 0, 0));
  log.append(make(0, 4, 9));
  const auto cut = index_recovery_line(log, 2, IndexLineRule::kLastEqual, {30});
  EXPECT_EQ(cut.members[0]->sn, 4u);
}

TEST(IndexRecoveryLine, RejectsSizeMismatch) {
  CheckpointLog log(2);
  EXPECT_THROW(index_recovery_line(log, 0, IndexLineRule::kFirstAtLeast, {1}),
               std::invalid_argument);
}

TEST(TpRecoveryLine, FollowsDependencyVectors) {
  CheckpointLog log(3);
  log.append(make(0, 0, 0, CheckpointKind::kInitial));
  log.append(make(1, 0, 0, CheckpointKind::kInitial));
  log.append(make(2, 0, 0, CheckpointKind::kInitial));
  log.append(make(1, 1, 14));
  // Needs its own #1, host 1's #1 and host 2's #0 (an absent entry).
  const DepEntry deps[] = {{0, 1, 0}, {1, 1, 0}};
  const CheckpointRecord& stored = log.append(make(0, 1, 10), deps, 3);
  const auto cut = tp_recovery_line(log, stored, {20, 20, 20});
  EXPECT_EQ(cut.pos[0], 10u);
  EXPECT_EQ(cut.pos[1], 14u);
  EXPECT_EQ(cut.pos[2], 0u);
}

TEST(TpRecoveryLine, MissingRequiredCheckpointIsVirtual) {
  CheckpointLog log(2);
  log.append(make(0, 0, 0, CheckpointKind::kInitial));
  log.append(make(1, 0, 0, CheckpointKind::kInitial));
  const DepEntry deps[] = {{0, 1, 0}, {1, 1, 0}};  // host 1's #1 does not exist yet
  const CheckpointRecord& stored = log.append(make(0, 1, 10), deps, 2);
  const auto cut = tp_recovery_line(log, stored, {10, 33});
  EXPECT_EQ(cut.members[1], nullptr);
  EXPECT_EQ(cut.pos[1], 33u);
}

TEST(TpRecoveryLine, RequiresDependencyVectors) {
  CheckpointLog log(2);
  const CheckpointRecord& anchor = log.append(make(0, 0, 0));
  EXPECT_THROW(tp_recovery_line(log, anchor, {0, 0}), std::invalid_argument);
}

TEST(FindOrphans, DetectsExactlyTheCrossingMessages) {
  MessageLog messages;
  messages.note_send(1, 0, 1, 5);
  messages.note_receive(1, 6, 0);  // inside-inside
  messages.note_send(2, 0, 1, 15);
  messages.note_receive(2, 8, 0);  // sent after cut[0]=10, received before cut[1]=10: orphan
  messages.note_send(3, 1, 0, 12);
  messages.note_receive(3, 20, 0);  // sent after, received after: in transit, fine
  GlobalCheckpoint cut;
  cut.pos = {10, 10};
  cut.members = {nullptr, nullptr};
  const auto orphans = find_orphans(messages, cut);
  ASSERT_EQ(orphans.size(), 1u);
  EXPECT_EQ(orphans[0]->msg_id, 2u);
  EXPECT_FALSE(describe_orphan(*orphans[0], cut).empty());
}

TEST(FindOrphans, BoundaryPositionsCountAsInside) {
  MessageLog messages;
  // Received exactly at the cut position: inside. Sent exactly at the cut
  // position: inside (not orphan).
  messages.note_send(1, 0, 1, 10);
  messages.note_receive(1, 10, 0);
  GlobalCheckpoint cut;
  cut.pos = {10, 10};
  cut.members = {nullptr, nullptr};
  EXPECT_TRUE(find_orphans(messages, cut).empty());
  // Sent one past the cut: orphan.
  messages.note_send(2, 0, 1, 11);
  messages.note_receive(2, 10, 0);
  EXPECT_EQ(find_orphans(messages, cut).size(), 1u);
}

TEST(Rollback, NoOrphansMeansLatestCheckpoints) {
  CheckpointLog log(2);
  log.append(make(0, 0, 0, CheckpointKind::kInitial));
  log.append(make(1, 0, 0, CheckpointKind::kInitial));
  log.append(make(0, 1, 10));
  log.append(make(1, 1, 12));
  MessageLog messages;
  messages.note_send(1, 0, 1, 4);
  messages.note_receive(1, 5, 0);
  const auto result = rollback_to_consistent(log, messages, {20, 20});
  EXPECT_EQ(result.line.pos[0], 10u);
  EXPECT_EQ(result.line.pos[1], 12u);
  EXPECT_EQ(result.total_discarded(), 0u);
  EXPECT_EQ(result.undone_events(), 10u + 8u);
}

TEST(Rollback, SingleOrphanRollsReceiverOnce) {
  CheckpointLog log(2);
  log.append(make(0, 0, 0, CheckpointKind::kInitial));
  log.append(make(1, 0, 0, CheckpointKind::kInitial));
  log.append(make(0, 1, 10));
  log.append(make(1, 1, 10));
  MessageLog messages;
  // Sent by 0 after its last checkpoint, received by 1 before its last
  // checkpoint: 1 must roll back to its initial checkpoint.
  messages.note_send(1, 0, 1, 12);
  messages.note_receive(1, 8, 0);
  const auto result = rollback_to_consistent(log, messages, {15, 15});
  EXPECT_EQ(result.line.pos[0], 10u);
  EXPECT_EQ(result.line.pos[1], 0u);
  EXPECT_EQ(result.checkpoints_discarded[1], 1u);
  EXPECT_TRUE(find_orphans(messages, result.line).empty());
}

TEST(Rollback, DominoEffectCascadesToInitialCheckpoints) {
  CheckpointLog log(2);
  log.append(make(0, 0, 0, CheckpointKind::kInitial));
  log.append(make(1, 0, 0, CheckpointKind::kInitial));
  log.append(make(0, 1, 10));
  log.append(make(1, 1, 10));
  log.append(make(0, 2, 20));
  log.append(make(1, 2, 20));
  MessageLog messages;
  // A chain of crossings that unravels everything (the domino effect).
  messages.note_send(1, 0, 1, 21);
  messages.note_receive(1, 19, 0);  // rolls 1 to pos 10
  messages.note_send(2, 1, 0, 12);
  messages.note_receive(2, 15, 0);  // rolls 0 to pos 10
  messages.note_send(3, 0, 1, 11);
  messages.note_receive(3, 9, 0);  // rolls 1 to pos 0
  messages.note_send(4, 1, 0, 1);
  messages.note_receive(4, 5, 0);  // rolls 0 to pos 0
  const auto result = rollback_to_consistent(log, messages, {25, 25});
  EXPECT_EQ(result.line.pos[0], 0u);
  EXPECT_EQ(result.line.pos[1], 0u);
  EXPECT_EQ(result.checkpoints_discarded[0], 2u);
  EXPECT_EQ(result.checkpoints_discarded[1], 2u);
  EXPECT_EQ(result.undone_events(), 50u);
  EXPECT_TRUE(find_orphans(messages, result.line).empty());
  EXPECT_GE(result.iterations, 2u);
}

TEST(Rollback, StartsFromFailurePositionsNotEnd) {
  CheckpointLog log(2);
  log.append(make(0, 0, 0, CheckpointKind::kInitial));
  log.append(make(1, 0, 0, CheckpointKind::kInitial));
  log.append(make(0, 1, 10));
  log.append(make(0, 2, 20));
  MessageLog messages;
  // Failure of host 0 at pos 15: its pos-20 checkpoint is in the future
  // and must not be used.
  const auto result = rollback_to_consistent(log, messages, {15, 5});
  EXPECT_EQ(result.line.pos[0], 10u);
  EXPECT_EQ(result.line.pos[1], 0u);
}

TEST(Rollback, ReceiveAtPositionZeroCannotUnderflow) {
  // Regression: an orphan received at recv_pos == 0 used to compute
  // recv_pos - 1 on u64, wrapping to ~0 — last_at_or_before_pos then
  // returned the host's *newest* checkpoint instead of one below the
  // receive. The fixed code treats "no event strictly before the
  // receive" as "cannot roll further": the fixpoint terminates and the
  // receiver's cut position is left alone.
  CheckpointLog log(2);
  log.append(make(0, 0, 0, CheckpointKind::kInitial));
  log.append(make(1, 0, 0, CheckpointKind::kInitial));
  log.append(make(0, 1, 10));
  MessageLog messages;
  messages.note_send(1, 0, 1, 11);  // sent beyond host 0's recovery line...
  messages.note_receive(1, 0, 0);   // ...received at host 1's position 0
  const auto result = rollback_to_consistent(log, messages, {11, 5}, net::HostId{0});
  EXPECT_EQ(result.line.pos[0], 10u);
  EXPECT_EQ(result.line.pos[1], 5u);  // cannot roll under a pos-0 receive
  EXPECT_EQ(result.undone_events(), 1u);
  EXPECT_LE(result.iterations, 2u);  // terminates instead of looping
}

TEST(Rollback, SurvivorOnlyLineRollsNobodyBack) {
  // A failure whose victim restores right at its last checkpoint, with no
  // orphan: every survivor keeps its current state (virtual member).
  CheckpointLog log(3);
  for (net::HostId h = 0; h < 3; ++h) log.append(make(h, 0, 0, CheckpointKind::kInitial));
  log.append(make(0, 1, 10));
  MessageLog messages;
  const auto result = rollback_to_consistent(log, messages, {10, 7, 3}, net::HostId{0});
  EXPECT_EQ(result.line.pos[0], 10u);
  EXPECT_EQ(result.line.pos[1], 7u);
  EXPECT_EQ(result.line.pos[2], 3u);
  EXPECT_EQ(result.line.virtual_members(), 2u);
  EXPECT_EQ(result.undone_events(), 0u);
  EXPECT_EQ(result.total_discarded(), 0u);
}

TEST(Rollback, MultiVictimMaskForcesEveryVictimOntoStoredCheckpoints) {
  CheckpointLog log(3);
  for (net::HostId h = 0; h < 3; ++h) log.append(make(h, 0, 0, CheckpointKind::kInitial));
  log.append(make(0, 1, 10));
  log.append(make(1, 1, 8));
  MessageLog messages;
  const auto result =
      rollback_to_consistent(log, messages, {14, 9, 6}, std::vector<bool>{true, true, false});
  EXPECT_EQ(result.line.pos[0], 10u);  // victim: last stored <= 14
  EXPECT_EQ(result.line.pos[1], 8u);   // victim: last stored <= 9
  EXPECT_EQ(result.line.pos[2], 6u);   // survivor: current state
  EXPECT_EQ(result.line.virtual_members(), 1u);
}

TEST(Rollback, MaskSizeMismatchThrows) {
  CheckpointLog log(2);
  log.append(make(0, 0, 0, CheckpointKind::kInitial));
  log.append(make(1, 0, 0, CheckpointKind::kInitial));
  MessageLog messages;
  EXPECT_THROW(rollback_to_consistent(log, messages, {5, 5}, std::vector<bool>{true}),
               std::invalid_argument);
  EXPECT_THROW(rollback_to_consistent(log, messages, {5, 5}, net::HostId{7}),
               std::invalid_argument);
}

TEST(Rollback, ZeroHostLogYieldsEmptyResult) {
  CheckpointLog log(0);
  MessageLog messages;
  const auto generic = rollback_to_consistent(log, messages, {});
  EXPECT_EQ(generic.undone_events(), 0u);
  EXPECT_EQ(generic.total_discarded(), 0u);
  const auto indexed = index_rollback(log, IndexLineRule::kFirstAtLeast, {}, kAllHostsFailed);
  EXPECT_EQ(indexed.undone_events(), 0u);
  EXPECT_EQ(indexed.iterations, 1u);
}

TEST(Rollback, SingleHostLogRollsToItsLatestCheckpoint) {
  CheckpointLog log(1);
  log.append(make(0, 0, 0, CheckpointKind::kInitial));
  log.append(make(0, 1, 6));
  MessageLog messages;
  const auto result = rollback_to_consistent(log, messages, {9}, net::HostId{0});
  EXPECT_EQ(result.line.pos[0], 6u);
  EXPECT_EQ(result.undone_events(), 3u);
  EXPECT_EQ(result.checkpoints_discarded[0], 0u);
}

TEST(Rollback, UndoneEventsThrowsWhenLineIsAboveTheFailureCut) {
  // The fail_pos >= line.pos invariant must surface in release builds
  // too: a hand-built result violating it throws instead of wrapping.
  RollbackResult bad;
  bad.line.pos = {5};
  bad.line.members = {nullptr};
  bad.fail_pos = {3};  // cut below the line: inconsistent inputs
  bad.checkpoints_discarded = {0};
  EXPECT_THROW(bad.undone_events(), std::logic_error);
  RollbackResult mismatched;
  mismatched.line.pos = {5, 5};
  mismatched.fail_pos = {5};
  EXPECT_THROW(mismatched.undone_events(), std::logic_error);
}

TEST(IndexRollback, UsesFailedHostsMaxIndex) {
  CheckpointLog log(3);
  for (net::HostId h = 0; h < 3; ++h) log.append(make(h, 0, 0, CheckpointKind::kInitial));
  log.append(make(0, 1, 10));
  log.append(make(1, 1, 11));
  log.append(make(1, 2, 22));
  // Host 0 fails: its max index is 1.
  const auto result = index_rollback(log, IndexLineRule::kFirstAtLeast, {18, 30, 7}, 0);
  EXPECT_EQ(result.line.index, 1u);
  EXPECT_EQ(result.line.pos[0], 10u);
  EXPECT_EQ(result.line.pos[1], 11u);
  // Host 2 never reached index 1: survives at its current state.
  EXPECT_EQ(result.line.pos[2], 7u);
  EXPECT_EQ(result.undone_events(), 8u + 19u + 0u);
}

TEST(IndexRollback, AllHostsFailedTakesTheMinimumMaxIndex) {
  // Regression: the kAllHostsFailed sentinel used to be passed straight
  // into log.max_sn(failed_host), indexing out of range. A total failure
  // must use M = the highest index *every* host reached.
  CheckpointLog log(3);
  for (net::HostId h = 0; h < 3; ++h) log.append(make(h, 0, 0, CheckpointKind::kInitial));
  log.append(make(0, 1, 10));
  log.append(make(1, 1, 11));
  log.append(make(1, 2, 22));
  log.append(make(2, 1, 9));
  const auto result =
      index_rollback(log, IndexLineRule::kFirstAtLeast, {18, 30, 12}, kAllHostsFailed);
  EXPECT_EQ(result.line.index, 1u);  // min(1, 2, 1)
  EXPECT_EQ(result.line.pos[0], 10u);
  EXPECT_EQ(result.line.pos[1], 11u);
  EXPECT_EQ(result.line.pos[2], 9u);
  EXPECT_EQ(result.line.virtual_members(), 0u);  // total failure: all stored
  EXPECT_EQ(result.checkpoints_discarded[1], 1u);  // host 1 loses sn 2
}

TEST(IndexRollback, MultiVictimMaskUsesTheVictimsSharedIndex) {
  CheckpointLog log(3);
  for (net::HostId h = 0; h < 3; ++h) log.append(make(h, 0, 0, CheckpointKind::kInitial));
  log.append(make(0, 2, 10));
  log.append(make(1, 1, 11));
  log.append(make(2, 5, 9));
  // Hosts 0 and 1 fail: M = min(2, 1) = 1; host 2's max index is ignored.
  const auto result = index_rollback(log, IndexLineRule::kFirstAtLeast, {18, 30, 12},
                                     std::vector<bool>{true, true, false});
  EXPECT_EQ(result.line.index, 1u);
  EXPECT_EQ(result.line.pos[0], 10u);  // first sn >= 1 is the jump to 2
  EXPECT_EQ(result.line.pos[1], 11u);
  EXPECT_EQ(result.line.pos[2], 9u);
}

TEST(IndexRollback, NoFailedHostOnNonEmptyLogThrows) {
  CheckpointLog log(2);
  log.append(make(0, 0, 0, CheckpointKind::kInitial));
  log.append(make(1, 0, 0, CheckpointKind::kInitial));
  EXPECT_THROW(
      index_rollback(log, IndexLineRule::kFirstAtLeast, {5, 5}, std::vector<bool>{false, false}),
      std::invalid_argument);
}

TEST(IndexRollback, MemberBeyondTheFailureCutIsClampedBack) {
  CheckpointLog log(2);
  log.append(make(0, 0, 0, CheckpointKind::kInitial));
  log.append(make(1, 0, 0, CheckpointKind::kInitial));
  log.append(make(0, 1, 10));
  log.append(make(1, 1, 20));
  // Host 0 fails at 12; host 1's index-1 member sits at pos 20, beyond
  // its own failure position 15 — the defensive clamp must pull it back
  // to its last stored checkpoint at or before 15 (the initial one).
  const auto result =
      index_rollback(log, IndexLineRule::kFirstAtLeast, {12, 15}, net::HostId{0});
  EXPECT_EQ(result.line.pos[0], 10u);
  EXPECT_EQ(result.line.pos[1], 0u);
  ASSERT_NE(result.line.members[1], nullptr);
  EXPECT_EQ(result.line.members[1]->sn, 0u);
  EXPECT_NO_THROW(result.undone_events());
}

TEST(IndexRollback, DiscardedCheckpointsCountOrdinalsAboveTheLine) {
  CheckpointLog log(1);
  log.append(make(0, 0, 0, CheckpointKind::kInitial));
  log.append(make(0, 1, 5));
  log.append(make(0, 2, 9));
  log.append(make(0, 3, 14));
  // Failure at pos 15 with every checkpoint stored: rolling to index 3
  // discards nothing; the count is relative to the latest usable one.
  const auto all = index_rollback(log, IndexLineRule::kFirstAtLeast, {15}, net::HostId{0});
  EXPECT_EQ(all.total_discarded(), 0u);
  // Failure at pos 10: the pos-14 checkpoint is unusable (in the future),
  // the line lands on sn 2 at pos 9 and nothing below it is discarded.
  const auto mid = index_rollback(log, IndexLineRule::kFirstAtLeast, {10}, net::HostId{0});
  EXPECT_EQ(mid.line.pos[0], 9u);
  EXPECT_EQ(mid.total_discarded(), 0u);
}

}  // namespace
}  // namespace mobichk::core
