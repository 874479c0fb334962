// Wired-network topology between MSSs.
//
// The paper prices "message transfer between adjacent MSSs" — i.e. the
// wired network is a graph and non-adjacent MSSs pay per-hop. This
// module provides the usual fixed topologies; each one's shortest-path
// hop count has a closed form, so a query costs O(1) and the topology
// holds no per-MSS state whatever the number of cells. kFullMesh (every
// pair adjacent) reproduces the single-hop model most analyses assume.
#pragma once

#include "des/types.hpp"
#include "net/ids.hpp"

namespace mobichk::net {

enum class MssTopologyKind : u8 {
  kFullMesh,  ///< Every MSS pair is adjacent (1 hop).
  kRing,      ///< MSS i adjacent to (i±1) mod n.
  kLine,      ///< A chain: i adjacent to i±1.
  kStar,      ///< MSS 0 is the hub; everyone else is a leaf.
};

const char* mss_topology_name(MssTopologyKind kind) noexcept;

class MssTopology {
 public:
  MssTopology(MssTopologyKind kind, u32 n_mss);

  MssTopologyKind kind() const noexcept { return kind_; }
  u32 n_mss() const noexcept { return n_; }

  /// Wired hops between two MSSs (0 when a == b); throws std::out_of_range past n_mss().
  u32 hops(MssId a, MssId b) const;

  /// Longest shortest path in the topology.
  u32 diameter() const noexcept;

 private:
  MssTopologyKind kind_;
  u32 n_;
};

}  // namespace mobichk::net
