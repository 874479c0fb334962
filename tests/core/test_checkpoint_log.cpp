#include "core/checkpoint_log.hpp"

#include <gtest/gtest.h>

#include <vector>

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

TEST(CheckpointLog, AssignsOrdinalsPerHost) {
  CheckpointLog log(2);
  EXPECT_EQ(log.append(make(0, 0, 0)).ordinal, 0u);
  EXPECT_EQ(log.append(make(1, 0, 0)).ordinal, 0u);
  EXPECT_EQ(log.append(make(0, 1, 5)).ordinal, 1u);
  EXPECT_EQ(log.count(0), 2u);
  EXPECT_EQ(log.count(1), 1u);
}

TEST(CheckpointLog, CountsByKind) {
  CheckpointLog log(1);
  log.append(make(0, 0, 0, CheckpointKind::kInitial));
  log.append(make(0, 1, 2, CheckpointKind::kBasic));
  log.append(make(0, 2, 4, CheckpointKind::kForced));
  log.append(make(0, 3, 6, CheckpointKind::kForced));
  EXPECT_EQ(log.total(), 4u);
  EXPECT_EQ(log.initial(), 1u);
  EXPECT_EQ(log.basic(), 1u);
  EXPECT_EQ(log.forced(), 2u);
  EXPECT_EQ(log.n_tot(), 3u);  // excludes initial
}

TEST(CheckpointLog, ByOrdinal) {
  CheckpointLog log(1);
  log.append(make(0, 0, 0));
  log.append(make(0, 3, 9));
  EXPECT_EQ(log.by_ordinal(0, 1)->sn, 3u);
  EXPECT_EQ(log.by_ordinal(0, 2), nullptr);
}

TEST(CheckpointLog, FirstWithSnAtLeastHandlesJumps) {
  CheckpointLog log(1);
  log.append(make(0, 0, 0));
  log.append(make(0, 2, 4));  // jump over 1
  log.append(make(0, 5, 8));
  EXPECT_EQ(log.first_with_sn_at_least(0, 0)->sn, 0u);
  EXPECT_EQ(log.first_with_sn_at_least(0, 1)->sn, 2u);  // first greater
  EXPECT_EQ(log.first_with_sn_at_least(0, 2)->sn, 2u);
  EXPECT_EQ(log.first_with_sn_at_least(0, 3)->sn, 5u);
  EXPECT_EQ(log.first_with_sn_at_least(0, 6), nullptr);
}

TEST(CheckpointLog, LastWithSnFindsReplacements) {
  CheckpointLog log(1);
  log.append(make(0, 0, 0));
  log.append(make(0, 0, 3));  // QBC-style replacement
  log.append(make(0, 0, 7));
  log.append(make(0, 1, 9));
  EXPECT_EQ(log.last_with_sn(0, 0)->event_pos, 7u);
  EXPECT_EQ(log.last_with_sn(0, 1)->event_pos, 9u);
  EXPECT_EQ(log.last_with_sn(0, 2), nullptr);
}

TEST(CheckpointLog, LastAtOrBeforePos) {
  CheckpointLog log(1);
  log.append(make(0, 0, 0));
  log.append(make(0, 1, 10));
  log.append(make(0, 2, 20));
  EXPECT_EQ(log.last_at_or_before_pos(0, 0)->sn, 0u);
  EXPECT_EQ(log.last_at_or_before_pos(0, 9)->sn, 0u);
  EXPECT_EQ(log.last_at_or_before_pos(0, 10)->sn, 1u);
  EXPECT_EQ(log.last_at_or_before_pos(0, 100)->sn, 2u);
}

TEST(CheckpointLog, MaxSnPerHostAndGlobal) {
  CheckpointLog log(3);
  log.append(make(0, 4, 1));
  log.append(make(1, 7, 1));
  EXPECT_EQ(log.max_sn(0), 4u);
  EXPECT_EQ(log.max_sn(1), 7u);
  EXPECT_EQ(log.max_sn(2), 0u);
  EXPECT_EQ(log.max_sn(), 7u);
}

TEST(CheckpointLog, PromoteSnRelabelsLast) {
  CheckpointLog log(1);
  log.append(make(0, 1, 5));
  log.promote_sn(0, 4);
  EXPECT_EQ(log.of(0).back().sn, 4u);
  EXPECT_EQ(log.last_with_sn(0, 4)->event_pos, 5u);
  EXPECT_EQ(log.first_with_sn_at_least(0, 2)->sn, 4u);
}

TEST(CheckpointLog, DenseAndSparseDependenciesReadBackIdentically) {
  // The same dependency information recorded twice: with all n entries
  // (dense TP, stored as n pairs) and with only the non-zero ones (sparse
  // TP, stored as sorted triples). Through the log they must agree on
  // every index, absent entries and out-of-range indices reading 0.
  constexpr u32 kRank = 6;
  const DepEntry dense[kRank] = {{0, 3, 2}, {1, 0, 0}, {2, 7, 4}, {3, 0, 0}, {4, 0, 0}, {5, 1, 1}};
  const DepEntry sparse[] = {{0, 3, 2}, {2, 7, 4}, {5, 1, 1}};
  CheckpointLog log(2);
  const CheckpointRecord a = log.append(make(0, 0, 0), dense, kRank);
  const CheckpointRecord b = log.append(make(1, 0, 0), sparse, kRank);
  EXPECT_EQ(a.dep_len, kRank);
  EXPECT_EQ(b.dep_len, 3u);
  ASSERT_TRUE(a.has_deps());
  ASSERT_TRUE(b.has_deps());
  EXPECT_EQ(a.deps_rank(), b.deps_rank());
  for (u32 j = 0; j < kRank + 2; ++j) {
    EXPECT_EQ(log.dep_ckpt_at(a, j), log.dep_ckpt_at(b, j)) << "ckpt " << j;
    EXPECT_EQ(log.dep_loc_at(a, j), log.dep_loc_at(b, j)) << "loc " << j;
  }
  EXPECT_EQ(log.dep_ckpt_at(b, 2), 7u);
  EXPECT_EQ(log.dep_loc_at(b, 2), 4u);
  EXPECT_EQ(log.dep_ckpt_at(b, 1), 0u);
  EXPECT_EQ(log.dep_ckpt_at(a, kRank), 0u);
}

TEST(CheckpointLog, DependencyArenasArePerHostAndAppendOnly) {
  // Interleaved appends for two hosts: each record keeps pointing at its
  // own entries as the arenas grow, and records without dependencies
  // (other protocols, or TP records read through the wrong host) read 0.
  CheckpointLog log(2);
  std::vector<CheckpointRecord> recs;
  for (u32 k = 0; k < 40; ++k) {
    const net::HostId h = k % 2;
    const DepEntry deps[] = {{h, k, 10 + k}, {2, 100 + k, 0}};
    recs.push_back(log.append(make(h, k, k), deps, 4));
  }
  for (u32 k = 0; k < 40; ++k) {
    const net::HostId h = k % 2;
    EXPECT_EQ(log.dep_ckpt_at(recs[k], h), k);
    EXPECT_EQ(log.dep_loc_at(recs[k], h), 10 + k);
    EXPECT_EQ(log.dep_ckpt_at(recs[k], 2), 100 + k);
    EXPECT_EQ(log.dep_ckpt_at(recs[k], 3), 0u);
  }
  const CheckpointRecord& plain = log.append(make(0, 40, 40));
  EXPECT_FALSE(plain.has_deps());
  EXPECT_EQ(log.dep_ckpt_at(plain, 0), 0u);
  EXPECT_EQ(log.dep_loc_at(plain, 0), 0u);
}

}  // namespace
}  // namespace mobichk::core
