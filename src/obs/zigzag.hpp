// Zigzag (Netzer-Xu) engine: the one Z-cycle implementation behind
// core::IntervalGraph (edges from the message and checkpoint logs) and
// obs::RecoveryLineTracker (edges from the probe stream). It owns the
// checkpoint-interval graph layout and flags every useless checkpoint in
// one iterative Tarjan SCC pass, O(V+E), by the same-SCC criterion proved
// in core/zgraph.hpp; the per-checkpoint search is only the reference.
#pragma once

#include <vector>

#include "des/types.hpp"

namespace mobichk::obs {

class ZigzagGraph {
 public:
  ZigzagGraph() = default;
  /// `intervals[h]` is host h's interval (= checkpoint) count; 0 is allowed.
  explicit ZigzagGraph(const std::vector<u64>& intervals);

  u64 intervals(u32 host) const { return base_.at(host + 1) - base_.at(host); }

  /// Adds the message edge (src, src_interval) -> (dst, dst_interval).
  /// An edge touching a missing interval is dropped: a host that has not
  /// checkpointed yet has no interval to send or receive in.
  void add_message(u32 src, u64 src_interval, u32 dst, u64 dst_interval);

  /// Reference oracle (one search per query): a zigzag path exists from
  /// C_{a,xa} to C_{b,xb}, i.e. a message chain starting after C_{a,xa}
  /// and ending before C_{b,xb}, with zigzag continuations allowed.
  bool z_path_exists(u32 a, u64 xa, u32 b, u64 xb) const;

  /// The linear pass: flags every checkpoint on a Z-cycle and returns
  /// how many there are (initial checkpoints are never flagged).
  u64 find_z_cycles();

  /// Whether C_{host, ordinal} lies on a Z-cycle. Valid after find_z_cycles().
  bool on_z_cycle(u32 host, u64 ordinal) const {
    return ordinal > 0 && ordinal < intervals(host) && z_cycle_.at(node(host, ordinal));
  }

 private:
  u32 node(u32 host, u64 interval) const { return static_cast<u32>(base_[host] + interval); }

  std::vector<u64> base_{0};           ///< First node of each host; back() = node count.
  std::vector<bool> last_;             ///< Per node: its host's last (open) interval.
  std::vector<std::vector<u32>> adj_;  ///< Message edges by source node.
  std::vector<bool> z_cycle_;          ///< Per node: on a Z-cycle (after find_z_cycles).
};

}  // namespace mobichk::obs
