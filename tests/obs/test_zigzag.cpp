// The Z-cycle engine: the linear SCC pass (find_z_cycles / on_z_cycle)
// checked against the per-checkpoint reference search (z_path_exists) on
// hand-built interval graphs.
#include "obs/zigzag.hpp"

#include <gtest/gtest.h>

namespace mobichk::obs {
namespace {

/// Every checkpoint's flag equals the reference search's verdict.
void expect_flags_match_reference(const ZigzagGraph& g, u32 n_hosts) {
  for (u32 h = 0; h < n_hosts; ++h) {
    for (u64 x = 0; x < g.intervals(h); ++x) {
      EXPECT_EQ(g.on_z_cycle(h, x), x > 0 && g.z_path_exists(h, x, h, x))
          << "checkpoint host " << h << " #" << x;
    }
  }
}

TEST(ZigzagGraph, ClassicZCycle) {
  // m1: (0,1) -> (1,1); m2: (1,1) -> (0,0). The zigzag m1, m2 returns
  // before C_{0,1}, so C_{0,1} is useless; C_{1,1} is not.
  ZigzagGraph g({2, 2});
  g.add_message(0, 1, 1, 1);
  g.add_message(1, 1, 0, 0);
  EXPECT_EQ(g.find_z_cycles(), 1u);
  EXPECT_TRUE(g.on_z_cycle(0, 1));
  EXPECT_FALSE(g.on_z_cycle(1, 1));
  expect_flags_match_reference(g, 2);
}

TEST(ZigzagGraph, SendBeforeReceiveInOneIntervalStillZigzags) {
  // Host 1 sends m2 before it receives m1, both in interval 1: no causal
  // path, but the interval graph (which ignores intra-interval order)
  // has the same edges as the classic cycle, and so the same verdict.
  ZigzagGraph g({3, 2});
  g.add_message(1, 1, 0, 0);  // m2, sent first
  g.add_message(0, 1, 1, 1);  // m1, received after m2 left
  EXPECT_EQ(g.find_z_cycles(), 1u);
  EXPECT_TRUE(g.on_z_cycle(0, 1));
  EXPECT_FALSE(g.on_z_cycle(0, 2));  // sends after C_{0,2} never come back
  expect_flags_match_reference(g, 2);
}

TEST(ZigzagGraph, ThreeHostTransitivePath) {
  // (0,1) -> (1,1) -> (2,0): a Z-path from C_{0,1} to C_{2,1}, but no
  // cycle anywhere.
  ZigzagGraph g({2, 2, 2});
  g.add_message(0, 1, 1, 1);
  g.add_message(1, 1, 2, 0);
  EXPECT_TRUE(g.z_path_exists(0, 1, 2, 1));
  EXPECT_FALSE(g.z_path_exists(2, 1, 0, 1));
  EXPECT_EQ(g.find_z_cycles(), 0u);
  expect_flags_match_reference(g, 3);
  // Closing the loop from (2,1) back into host 0's first interval makes
  // C_{0,1} and C_{2,1} useless, but not C_{1,1}: nothing returns into
  // host 1's first interval.
  g.add_message(2, 1, 0, 0);
  EXPECT_EQ(g.find_z_cycles(), 2u);
  EXPECT_TRUE(g.on_z_cycle(0, 1));
  EXPECT_TRUE(g.on_z_cycle(2, 1));
  EXPECT_FALSE(g.on_z_cycle(1, 1));
  expect_flags_match_reference(g, 3);
}

TEST(ZigzagGraph, NoMessagesNoZCycles) {
  ZigzagGraph g({4, 1, 3});
  EXPECT_EQ(g.find_z_cycles(), 0u);
  EXPECT_FALSE(g.z_path_exists(0, 0, 0, 3));  // forward-only reach is not a Z-path
  expect_flags_match_reference(g, 3);
}

TEST(ZigzagGraph, HostWithZeroIntervals) {
  // Host 1 never checkpointed: it has no nodes, edges touching it are
  // dropped, and its neighbours' layout is unaffected.
  ZigzagGraph g({2, 0, 2});
  EXPECT_EQ(g.intervals(1), 0u);
  g.add_message(0, 1, 1, 0);  // dropped
  g.add_message(1, 0, 0, 0);  // dropped
  g.add_message(0, 1, 2, 1);
  g.add_message(2, 1, 0, 0);
  EXPECT_EQ(g.find_z_cycles(), 1u);
  EXPECT_TRUE(g.on_z_cycle(0, 1));
  EXPECT_FALSE(g.on_z_cycle(1, 0));
  EXPECT_FALSE(g.on_z_cycle(2, 1));
  expect_flags_match_reference(g, 3);
}

TEST(ZigzagGraph, DeepChainNeedsNoNativeStack) {
  // One host, 10^6 intervals, one message from the last interval back to
  // the first: every non-initial checkpoint is on the cycle. The DFS is
  // 10^6 frames deep, which a recursive Tarjan would not survive.
  constexpr u64 kIntervals = 1'000'000;
  ZigzagGraph g({kIntervals});
  g.add_message(0, kIntervals - 1, 0, 0);
  EXPECT_EQ(g.find_z_cycles(), kIntervals - 1);
  EXPECT_FALSE(g.on_z_cycle(0, 0));
  EXPECT_TRUE(g.on_z_cycle(0, 1));
  EXPECT_TRUE(g.on_z_cycle(0, kIntervals - 1));
  EXPECT_TRUE(g.z_path_exists(0, kIntervals - 1, 0, kIntervals - 1));
}

}  // namespace
}  // namespace mobichk::obs
