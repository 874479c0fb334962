#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <vector>

#include "des/simulator.hpp"
#include "net/network.hpp"

namespace mobichk::net {
namespace {

TEST(MssTopology, FullMeshIsOneHopEverywhere) {
  MssTopology t(MssTopologyKind::kFullMesh, 5);
  for (MssId a = 0; a < 5; ++a) {
    for (MssId b = 0; b < 5; ++b) {
      EXPECT_EQ(t.hops(a, b), a == b ? 0u : 1u);
    }
  }
  EXPECT_EQ(t.diameter(), 1u);
}

TEST(MssTopology, RingDistances) {
  MssTopology t(MssTopologyKind::kRing, 6);
  EXPECT_EQ(t.hops(0, 1), 1u);
  EXPECT_EQ(t.hops(0, 2), 2u);
  EXPECT_EQ(t.hops(0, 3), 3u);
  EXPECT_EQ(t.hops(0, 4), 2u);  // shorter the other way around
  EXPECT_EQ(t.hops(0, 5), 1u);
  EXPECT_EQ(t.diameter(), 3u);
}

TEST(MssTopology, LineDistances) {
  MssTopology t(MssTopologyKind::kLine, 5);
  EXPECT_EQ(t.hops(0, 4), 4u);
  EXPECT_EQ(t.hops(1, 3), 2u);
  EXPECT_EQ(t.diameter(), 4u);
}

TEST(MssTopology, StarDistances) {
  MssTopology t(MssTopologyKind::kStar, 5);
  EXPECT_EQ(t.hops(0, 3), 1u);  // hub to leaf
  EXPECT_EQ(t.hops(2, 4), 2u);  // leaf to leaf via the hub
  EXPECT_EQ(t.diameter(), 2u);
}

TEST(MssTopology, SymmetricDistances) {
  for (const auto kind : {MssTopologyKind::kRing, MssTopologyKind::kLine,
                          MssTopologyKind::kStar, MssTopologyKind::kFullMesh}) {
    MssTopology t(kind, 7);
    for (MssId a = 0; a < 7; ++a) {
      for (MssId b = 0; b < 7; ++b) {
        EXPECT_EQ(t.hops(a, b), t.hops(b, a)) << mss_topology_name(kind);
      }
    }
  }
}

TEST(MssTopology, SingleMss) {
  MssTopology t(MssTopologyKind::kRing, 1);
  EXPECT_EQ(t.hops(0, 0), 0u);
  EXPECT_EQ(t.diameter(), 0u);
}

TEST(MssTopology, TwoMssRingAndLineCoincide) {
  MssTopology ring(MssTopologyKind::kRing, 2);
  MssTopology line(MssTopologyKind::kLine, 2);
  EXPECT_EQ(ring.hops(0, 1), 1u);
  EXPECT_EQ(line.hops(0, 1), 1u);
}

/// Reference oracle: the topology's adjacency built edge by edge and an
/// all-pairs BFS over it — what MssTopology computed before its hop
/// counts became closed forms.
std::vector<std::vector<u32>> bfs_hops(MssTopologyKind kind, u32 n) {
  std::vector<std::vector<MssId>> adj(n);
  const auto link = [&](MssId a, MssId b) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  };
  switch (kind) {
    case MssTopologyKind::kFullMesh:
      for (MssId a = 0; a < n; ++a) {
        for (MssId b = a + 1; b < n; ++b) link(a, b);
      }
      break;
    case MssTopologyKind::kRing:
      for (MssId a = 0; a + 1 < n; ++a) link(a, a + 1);
      if (n > 2) link(n - 1, 0);
      break;
    case MssTopologyKind::kLine:
      for (MssId a = 0; a + 1 < n; ++a) link(a, a + 1);
      break;
    case MssTopologyKind::kStar:
      for (MssId a = 1; a < n; ++a) link(0, a);
      break;
  }
  std::vector<std::vector<u32>> dist(n, std::vector<u32>(n, ~0u));
  for (MssId src = 0; src < n; ++src) {
    std::vector<u32>& d = dist[src];
    std::deque<MssId> queue{src};
    d[src] = 0;
    while (!queue.empty()) {
      const MssId u = queue.front();
      queue.pop_front();
      for (const MssId v : adj[u]) {
        if (d[v] == ~0u) {
          d[v] = d[u] + 1;
          queue.push_back(v);
        }
      }
    }
  }
  return dist;
}

TEST(MssTopology, ClosedFormMatchesBfsOracle) {
  for (const auto kind : {MssTopologyKind::kFullMesh, MssTopologyKind::kRing,
                          MssTopologyKind::kLine, MssTopologyKind::kStar}) {
    for (u32 n = 1; n <= 64; ++n) {
      const MssTopology t(kind, n);
      const auto want = bfs_hops(kind, n);
      u32 diameter = 0;
      for (MssId a = 0; a < n; ++a) {
        for (MssId b = 0; b < n; ++b) {
          ASSERT_NE(want[a][b], ~0u) << "oracle graph disconnected";
          ASSERT_EQ(t.hops(a, b), want[a][b])
              << mss_topology_name(kind) << " n=" << n << " " << a << "->" << b;
          diameter = std::max(diameter, want[a][b]);
        }
      }
      EXPECT_EQ(t.diameter(), diameter) << mss_topology_name(kind) << " n=" << n;
      EXPECT_EQ(t.n_mss(), n);
    }
  }
}

TEST(MssTopology, HopsOutOfRangeThrows) {
  for (const auto kind : {MssTopologyKind::kFullMesh, MssTopologyKind::kRing,
                          MssTopologyKind::kLine, MssTopologyKind::kStar}) {
    const MssTopology t(kind, 8);
    EXPECT_THROW((void)t.hops(8, 0), std::out_of_range) << mss_topology_name(kind);
    EXPECT_THROW((void)t.hops(0, 8), std::out_of_range) << mss_topology_name(kind);
    EXPECT_THROW((void)t.hops(8, 8), std::out_of_range) << mss_topology_name(kind);
  }
}

TEST(MssTopology, ZeroMssRejected) {
  EXPECT_THROW((void)MssTopology(MssTopologyKind::kFullMesh, 0), std::invalid_argument);
}

TEST(MssTopology, HugeFullMeshNeedsNoTable) {
  // An n x n hop table at 2^20 cells would need 4 TiB; the closed form
  // constructs at once and answers from the kind alone.
  const MssTopology t(MssTopologyKind::kFullMesh, 1u << 20);
  EXPECT_EQ(t.hops(0, (1u << 20) - 1), 1u);
  EXPECT_EQ(t.diameter(), 1u);
}

TEST(TopologyNetwork, LineTopologyMultipliesWiredLatency) {
  des::Simulator sim;
  NetworkConfig cfg;
  cfg.n_hosts = 2;
  cfg.n_mss = 5;
  cfg.mss_topology = MssTopologyKind::kLine;
  Network net(sim, cfg, 1);
  NullHostEventHandler handler;
  net.set_handler(&handler);
  net.start({0, 4});  // hosts at the two ends of the chain
  net.send_app_message(0, 1, 10);
  sim.run();
  // wireless 0.01 + 4 wired hops x 0.01 + wireless 0.01.
  EXPECT_NEAR(sim.now(), 0.06, 1e-9);
  EXPECT_EQ(net.stats().wired_hops, 4u);
}

TEST(TopologyNetwork, StarRoutesThroughHub) {
  des::Simulator sim;
  NetworkConfig cfg;
  cfg.n_hosts = 2;
  cfg.n_mss = 4;
  cfg.mss_topology = MssTopologyKind::kStar;
  Network net(sim, cfg, 1);
  NullHostEventHandler handler;
  net.set_handler(&handler);
  net.start({1, 3});  // two leaves
  net.send_app_message(0, 1, 10);
  sim.run();
  EXPECT_NEAR(sim.now(), 0.04, 1e-9);  // 2 wireless + 2 wired
  EXPECT_EQ(net.stats().wired_hops, 2u);
}

}  // namespace
}  // namespace mobichk::net
