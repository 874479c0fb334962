#include "net/topology.hpp"

#include <algorithm>
#include <stdexcept>

namespace mobichk::net {

const char* mss_topology_name(MssTopologyKind kind) noexcept {
  switch (kind) {
    case MssTopologyKind::kFullMesh: return "full-mesh";
    case MssTopologyKind::kRing: return "ring";
    case MssTopologyKind::kLine: return "line";
    case MssTopologyKind::kStar: return "star";
  }
  return "?";
}

MssTopology::MssTopology(MssTopologyKind kind, u32 n_mss) : kind_(kind), n_(n_mss) {
  if (n_mss == 0) throw std::invalid_argument("MssTopology: need at least one MSS");
}

u32 MssTopology::hops(MssId a, MssId b) const {
  if (a >= n_ || b >= n_) throw std::out_of_range("MssTopology::hops: MSS id out of range");
  if (a == b) return 0;
  const u32 d = a > b ? a - b : b - a;
  switch (kind_) {
    case MssTopologyKind::kFullMesh: return 1;
    case MssTopologyKind::kRing: return std::min(d, n_ - d);
    case MssTopologyKind::kLine: return d;
    case MssTopologyKind::kStar: return a == 0 || b == 0 ? 1 : 2;  // leaf to leaf via the hub
  }
  return d;
}

u32 MssTopology::diameter() const noexcept {
  switch (kind_) {
    case MssTopologyKind::kFullMesh: return std::min(n_ - 1, 1u);
    case MssTopologyKind::kRing: return n_ / 2;
    case MssTopologyKind::kLine: return n_ - 1;
    case MssTopologyKind::kStar: return std::min(n_ - 1, 2u);
  }
  return n_ - 1;
}

}  // namespace mobichk::net
