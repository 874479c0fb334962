// SoA host arena and location directory: unit properties plus a
// randomized differential against brute-force oracles at n in {1, 2,
// 1000}, and a live-network consistency check after scripted mobility.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "des/distributions.hpp"
#include "des/rng.hpp"
#include "des/simulator.hpp"
#include "net/handler.hpp"
#include "net/host_arena.hpp"
#include "net/location_directory.hpp"
#include "net/network.hpp"

namespace mobichk::net {
namespace {

// ---------------------------------------------------------------------------
// Mailbox
// ---------------------------------------------------------------------------

AppMessage make_msg(u64 id) {
  AppMessage m;
  m.id = id;
  return m;
}

TEST(Mailbox, FifoOrderAndSizes) {
  Mailbox box;
  EXPECT_TRUE(box.empty());
  for (u64 i = 1; i <= 5; ++i) box.push(make_msg(i));
  EXPECT_EQ(box.size(), 5u);
  for (u64 i = 1; i <= 5; ++i) EXPECT_EQ(box.pop().id, i);
  EXPECT_TRUE(box.empty());
}

TEST(Mailbox, RewindsAndReusesCapacityWhenDrained) {
  Mailbox box;
  // Steady-state cycles: after each full drain the head rewinds, so the
  // vector never grows past the high-water mark of one burst.
  for (int round = 0; round < 100; ++round) {
    for (u64 i = 0; i < 4; ++i) box.push(make_msg(i));
    for (u64 i = 0; i < 4; ++i) EXPECT_EQ(box.pop().id, i);
    EXPECT_TRUE(box.empty());
  }
}

TEST(Mailbox, InterleavedPushPopKeepsFifo) {
  Mailbox box;
  u64 next_in = 0, next_out = 0;
  des::RngStream rng(3, "mailbox-fuzz");
  for (int step = 0; step < 2000; ++step) {
    if (box.empty() || rng.uniform01() < 0.55) {
      box.push(make_msg(next_in++));
    } else {
      ASSERT_EQ(box.pop().id, next_out++);
    }
    ASSERT_EQ(box.size(), next_in - next_out);
  }
  while (!box.empty()) ASSERT_EQ(box.pop().id, next_out++);
}

TEST(Mailbox, DrainVisitsInOrderAndEmpties) {
  Mailbox box;
  for (u64 i = 0; i < 6; ++i) box.push(make_msg(i));
  ASSERT_EQ(box.pop().id, 0u);  // a consumed head must not be re-drained
  std::vector<u64> seen;
  box.drain([&seen](AppMessage&& m) { seen.push_back(m.id); });
  EXPECT_EQ(seen, (std::vector<u64>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(box.empty());
}

// ---------------------------------------------------------------------------
// MSS-held buffers
// ---------------------------------------------------------------------------

std::vector<u64> ids(const std::vector<AppMessage>& msgs) {
  std::vector<u64> out;
  for (const AppMessage& m : msgs) out.push_back(m.id);
  return out;
}

TEST(HostArena, BuffersDrainPerCellInFifoOrderOnce) {
  // One host with messages held at two MSSs, interleaved: each cell
  // drains only its own messages, in arrival order, and a second drain
  // of the same cell finds nothing.
  HostArena arena;
  arena.init(4);
  arena.buffer_at(1, 2, make_msg(10));
  arena.buffer_at(3, 2, make_msg(30));
  arena.buffer_at(1, 2, make_msg(11));
  arena.buffer_at(3, 2, make_msg(31));
  arena.buffer_at(1, 2, make_msg(12));
  EXPECT_EQ(arena.buffered_count(1, 2), 3u);
  EXPECT_EQ(arena.buffered_count(3, 2), 2u);
  EXPECT_EQ(ids(arena.drain_buffered(3, 2)), (std::vector<u64>{30, 31}));
  EXPECT_TRUE(arena.drain_buffered(3, 2).empty());
  EXPECT_EQ(arena.buffered_count(1, 2), 3u);  // the other cell is untouched
  EXPECT_EQ(ids(arena.drain_buffered(1, 2)), (std::vector<u64>{10, 11, 12}));
  EXPECT_TRUE(arena.drain_buffered(1, 2).empty());
  EXPECT_EQ(arena.buffered_count(1, 2), 0u);
  EXPECT_TRUE(arena.buffered[2].empty());
}

// ---------------------------------------------------------------------------
// LocationDirectory vs a brute-force oracle
// ---------------------------------------------------------------------------

TEST(LocationDirectory, PlacementAndPopulation) {
  LocationDirectory dir;
  dir.init(6, 3);
  for (HostId h = 0; h < 6; ++h) dir.move(h, static_cast<MssId>(h % 3));
  for (MssId m = 0; m < 3; ++m) {
    EXPECT_EQ(dir.population(m), 2u);
    const auto members = dir.hosts_in_cell(m);
    ASSERT_EQ(members.size(), 2u);
    EXPECT_EQ(members[0], m);      // sorted ascending
    EXPECT_EQ(members[1], m + 3);
  }
  EXPECT_EQ(dir.cell_of(4), 1u);
}

TEST(LocationDirectory, MoveIsIdempotentAndRelinks) {
  LocationDirectory dir;
  dir.init(3, 2);
  for (HostId h = 0; h < 3; ++h) dir.move(h, 0);
  dir.move(1, 0);  // no-op
  EXPECT_EQ(dir.population(0), 3u);
  dir.move(1, 1);
  EXPECT_EQ(dir.population(0), 2u);
  EXPECT_EQ(dir.population(1), 1u);
  EXPECT_EQ(dir.hosts_in_cell(0), (std::vector<HostId>{0, 2}));
  EXPECT_EQ(dir.hosts_in_cell(1), (std::vector<HostId>{1}));
}

class DirectoryFuzz : public ::testing::TestWithParam<u32> {};

TEST_P(DirectoryFuzz, MatchesMapOracleUnderRandomMoves) {
  const u32 n_hosts = GetParam();
  const u32 n_mss = std::max(2u, n_hosts / 20u);
  LocationDirectory dir;
  dir.init(n_hosts, n_mss);
  std::map<HostId, MssId> oracle;
  des::RngStream rng(41, "dir-fuzz");
  for (HostId h = 0; h < n_hosts; ++h) {
    const auto m = static_cast<MssId>(des::uniform_index(rng, n_mss));
    dir.move(h, m);
    oracle[h] = m;
  }
  const int steps = n_hosts >= 1000 ? 5000 : 500;
  for (int step = 0; step < steps; ++step) {
    const auto h = static_cast<HostId>(des::uniform_index(rng, n_hosts));
    const auto m = static_cast<MssId>(des::uniform_index(rng, n_mss));
    dir.move(h, m);
    oracle[h] = m;
    ASSERT_EQ(dir.cell_of(h), m);
  }
  // Full reconciliation: per-cell membership and populations match the
  // brute-force oracle exactly.
  for (MssId m = 0; m < n_mss; ++m) {
    std::vector<HostId> expected;
    for (const auto& [h, cell] : oracle) {
      if (cell == m) expected.push_back(h);
    }
    EXPECT_EQ(dir.hosts_in_cell(m), expected) << "cell " << m;
    EXPECT_EQ(dir.population(m), expected.size()) << "cell " << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DirectoryFuzz, ::testing::Values(1u, 2u, 1000u));

// ---------------------------------------------------------------------------
// Arena-backed network: views and directory stay consistent live
// ---------------------------------------------------------------------------

TEST(NetworkDirectory, TracksMobilityExactly) {
  des::Simulator sim;
  NetworkConfig cfg;
  cfg.n_hosts = 20;
  cfg.n_mss = 4;
  Network net(sim, cfg, 1);
  NullHostEventHandler handler;
  net.set_handler(&handler);
  net.start();

  des::RngStream rng(17, "netdir-fuzz");
  std::vector<bool> down(cfg.n_hosts, false);
  for (int step = 0; step < 400; ++step) {
    const auto h = static_cast<HostId>(des::uniform_index(rng, cfg.n_hosts));
    const auto op = des::uniform_index(rng, 3);
    if (op == 0 && !down[h]) {
      const auto m = static_cast<MssId>(des::uniform_index(rng, cfg.n_mss));
      if (m != net.host(h).mss()) net.switch_cell(h, m);
    } else if (op == 1 && !down[h]) {
      net.disconnect(h);
      down[h] = true;
    } else if (op == 2 && down[h]) {
      net.reconnect(h, static_cast<MssId>(des::uniform_index(rng, cfg.n_mss)));
      down[h] = false;
    }
    // The directory's answer must match the per-host view at all times
    // (disconnected hosts stay filed under their last cell).
    ASSERT_EQ(net.directory().cell_of(h), net.host(h).mss());
  }
  // Per-cell enumeration covers every host exactly once.
  std::set<HostId> seen;
  u32 total = 0;
  for (MssId m = 0; m < cfg.n_mss; ++m) {
    for (const HostId h : net.directory().hosts_in_cell(m)) {
      EXPECT_EQ(net.host(h).mss(), m);
      seen.insert(h);
      ++total;
    }
  }
  EXPECT_EQ(total, cfg.n_hosts);
  EXPECT_EQ(seen.size(), cfg.n_hosts);
}

TEST(HostArena, ViewsReadArenaState) {
  HostArena arena;
  arena.init(3);
  MobileHost view(&arena, 2);
  EXPECT_EQ(view.id(), 2u);
  EXPECT_TRUE(view.connected());
  arena.connected[2] = 0;
  arena.mss[2] = 7;
  arena.event_pos[2] = 42;
  arena.mailbox[2].push(make_msg(1));
  EXPECT_FALSE(view.connected());
  EXPECT_EQ(view.mss(), 7u);
  EXPECT_EQ(view.event_pos(), 42u);
  EXPECT_EQ(view.mailbox_size(), 1u);
}

}  // namespace
}  // namespace mobichk::net
