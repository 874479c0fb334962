// Zigzag-path analysis (Netzer & Xu): which checkpoints are useful?
//
// A checkpoint belongs to some consistent global checkpoint iff it lies
// on no zigzag cycle (Netzer-Xu 1995). Domino-free protocols — the whole
// point of the communication-induced family the paper studies — must
// therefore produce *zero* useless checkpoints, while uncoordinated
// checkpointing generally produces some. This module builds the
// checkpoint-interval graph of a finished run and answers Z-path /
// Z-cycle queries, giving the library a second, independent theory check
// next to the orphan-message oracle.
//
// Model: interval x of host i is the execution between C_{i,x} and
// C_{i,x+1} (the last interval is open). The graph has
//   * forward edges (i,x) -> (i,x+1): a Z-path may continue with any
//     message sent in a later interval of the same host;
//   * message edges (i,x) -> (j,y) for every message sent in interval x
//     of i and received in interval y of j (intra-interval ordering is
//     deliberately ignored — that is exactly the zigzag allowance).
// C_{i,x} (x >= 1) lies on a Z-cycle iff (i,x-1) and (i,x) are in the
// same strongly connected component. Proof: a path from (i,x) back to
// some (i,y), y < x, must end with a message edge into an interval <= x-1
// of i (only message edges lower an interval index), and forward edges
// carry it on to (i,x-1); (i,x-1) -> (i,x) is always an edge. So one
// linear SCC pass (obs::ZigzagGraph, shared with the online
// RecoveryLineTracker) answers every checkpoint at once.
#pragma once

#include <vector>

#include "core/checkpoint_log.hpp"
#include "core/message_log.hpp"
#include "des/types.hpp"
#include "net/ids.hpp"
#include "obs/zigzag.hpp"

namespace mobichk::core {

class IntervalGraph {
 public:
  /// Builds the graph for a finished run.
  IntervalGraph(const CheckpointLog& log, const MessageLog& messages);

  /// Interval index of host `host` containing event position `pos`
  /// (the number of checkpoints at or before `pos`, minus one).
  u64 interval_of(net::HostId host, u64 pos) const;

  /// Number of intervals of `host` (= its checkpoint count; the last is
  /// open-ended).
  u64 intervals(net::HostId host) const { return graph_.intervals(host); }

  /// True iff a zigzag path exists from checkpoint C_{a, xa} to
  /// checkpoint C_{b, xb} — i.e. a message chain starting after C_{a,xa}
  /// and ending before C_{b,xb}, with zigzag continuations allowed. One
  /// graph search per call: the reference the Z-cycle flags are tested
  /// against.
  bool z_path_exists(net::HostId a, u64 xa, net::HostId b, u64 xb) const {
    return graph_.z_path_exists(a, xa, b, xb);
  }

  /// True iff checkpoint C_{host, ordinal} lies on a zigzag cycle
  /// (equivalently: belongs to no consistent global checkpoint).
  bool on_z_cycle(net::HostId host, u64 ordinal) const {
    return graph_.on_z_cycle(host, ordinal);
  }

  /// All useless checkpoints of the run (excluding initial checkpoints,
  /// which trivially precede everything).
  std::vector<const CheckpointRecord*> useless_checkpoints() const;

  u64 useless_count() const { return useless_checkpoints().size(); }

 private:
  const CheckpointLog& log_;
  obs::ZigzagGraph graph_;
};

}  // namespace mobichk::core
