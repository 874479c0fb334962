// Causal observability: online recovery-line tracking and causal-chain
// reconstruction, fed purely by the probe-event stream.
//
// The paper's central claim for communication-induced checkpointing is
// that every local checkpoint can be associated with a consistent global
// checkpoint *on the fly*. The offline oracles (core::VcOracle,
// core::IntervalGraph) verify this after a run from the message and
// checkpoint logs; the RecoveryLineTracker here verifies it *during* the
// run from nothing but the kCheckpoint / kSend / kDeliver / kSnPromote
// probe events, by re-deriving the protocol's recovery-line rule from the
// event stream. Reconciling the two (tests/obs/test_causal.cpp) is a
// three-way theory check: online tracker == index/TP line builders ==
// VC-consistency / Z-cycle verdicts.
//
// This layer deliberately never includes core headers: it must work from
// the probe stream alone, or the reconciliation would be circular. The
// tracker and core::IntervalGraph do share the Z-cycle *algorithm*
// (obs::ZigzagGraph, itself pinned by its reference search in
// tests/obs/test_zigzag.cpp), but each derives its interval-graph edges
// independently: the tracker from probe events, the oracle from the logs.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/zigzag.hpp"

namespace mobichk::obs {

/// The recovery-line semantics a tracker emulates for one protocol slot.
enum class TrackerMode : u8 {
  kNone = 0,           ///< No on-the-fly recovery line (BASIC, UNCOORD).
  kIndexFirstAtLeast,  ///< BCS / LAZY-BCS / COORD: first checkpoint with sn >= M.
  kIndexLastEqual,     ///< QBC: last checkpoint with sn == M (equivalence rule).
  kTpDependency,       ///< TP: dependency vectors under the phase discipline.
};

const char* tracker_mode_name(TrackerMode mode) noexcept;

/// One member of an online recovery line (mirror of a
/// core::GlobalCheckpoint member, identified by ordinal instead of by
/// record pointer so the obs layer stays core-free).
struct LineMember {
  u32 host = 0;
  u64 ordinal = 0;          ///< Per-host checkpoint ordinal; 0 when virtual.
  bool is_virtual = false;  ///< The host's current state stands in.
};

/// Maintains one protocol's recovery line incrementally from probe
/// events. All inputs arrive through the CausalMonitor listener; queries
/// may be issued at any time (tests query after the run).
class RecoveryLineTracker {
 public:
  RecoveryLineTracker(TrackerMode mode, u32 n_hosts);

  /// Registers this tracker's metric family under `prefix` (e.g.
  /// "rl.1.BCS"); call once, before events arrive. Without it the
  /// tracker still answers queries but exports nothing.
  void resolve_metrics(MetricRegistry& registry, const std::string& prefix);

  // -- event intake (driven by CausalMonitor) ---------------------------
  void on_checkpoint(u32 host, u64 sn, CkptKind kind, u64 trigger_msg);
  void on_sn_promote(u32 host, u64 sn);
  void on_send(u32 host, u64 msg_id);
  void on_deliver(u32 host, u64 msg_id);

  /// Runs the online Z-cycle analysis over everything seen so far and
  /// publishes the final gauges. Idempotent per run; call after the
  /// simulation ends.
  void finalize();

  // -- queries ----------------------------------------------------------
  TrackerMode mode() const noexcept { return mode_; }
  u32 n_hosts() const noexcept { return n_; }

  /// Checkpoints recorded for `host` so far (ordinals 0..count-1).
  u64 checkpoints(u32 host) const { return hosts_.at(host).sns.size(); }

  /// The committed line index: the largest M such that every host has
  /// reached index M (TP mode: the smallest per-host checkpoint count
  /// minus one, i.e. the deepest ordinal every host has anchored).
  u64 line_index() const noexcept { return committed_; }

  /// Checkpoints of `host` beyond the committed line (the "lag").
  u64 lag(u32 host) const;

  /// The line for index M (index modes): one member per host, virtual
  /// when the host never reached M. Mirrors core::index_recovery_line.
  std::vector<LineMember> index_line(u64 index) const;

  /// The line TP associates with checkpoint (host, ordinal), from the
  /// dependency vectors re-derived online. Mirrors core::tp_recovery_line.
  std::vector<LineMember> tp_line(u32 host, u64 ordinal) const;

  /// Whether checkpoint (host, ordinal) lies on a zigzag cycle of the
  /// online interval graph. Valid after finalize().
  bool on_z_cycle(u32 host, u64 ordinal) const;

  /// Useless (Z-cycle) checkpoints found by finalize(), initials excluded.
  u64 useless_count() const noexcept { return useless_; }

  /// Longest send->forced-checkpoint chain observed.
  u64 max_forced_chain() const noexcept { return max_chain_; }

  /// TP-only invariant: deliveries observed while the receiver's phase
  /// was still SEND (the protocol must have checkpointed first; any
  /// violation means the probe stream contradicts Russell's discipline).
  u64 phase_violations() const noexcept { return phase_violations_; }

 private:
  struct HostState {
    std::vector<u64> sns;           ///< Checkpoint sn per ordinal (non-decreasing).
    std::vector<u32> chain_depth;   ///< Forced-chain depth per ordinal.
    std::vector<std::vector<u32>> deps;  ///< TP: dependency vector per ordinal.
    std::vector<u32> req;           ///< TP: running requirement vector.
    bool phase_send = false;        ///< TP: SEND phase flag.
    u32 chain = 0;                  ///< Forced-chain depth of the open interval.
  };
  struct MsgInfo {
    u32 src = 0;
    u32 send_interval = 0;   ///< Sender's open interval ordinal at send.
    u32 chain_at_send = 0;   ///< Sender's forced-chain depth at send.
    std::vector<u32> dep;    ///< TP: requirement vector carried by the message.
  };
  /// One interval-graph message edge: (src, si) -> (dst, di).
  struct Edge {
    u32 src, si, dst, di;
  };

  void advance_committed();

  TrackerMode mode_;
  u32 n_;
  std::vector<HostState> hosts_;
  std::unordered_map<u64, MsgInfo> sent_msgs_;
  std::vector<Edge> edges_;
  u64 committed_ = 0;
  u64 useless_ = 0;
  u64 max_chain_ = 0;
  u64 phase_violations_ = 0;
  bool finalized_ = false;
  ZigzagGraph zigzag_;  ///< The online interval graph (built by finalize).
  // Metrics (null until resolve_metrics).
  Gauge* line_index_g_ = nullptr;
  Gauge* lag_max_g_ = nullptr;
  FixedHistogram* lag_h_ = nullptr;
  FixedHistogram* chain_h_ = nullptr;
  Counter* useless_c_ = nullptr;
  Counter* advances_c_ = nullptr;
};

/// Owns one RecoveryLineTracker per protocol slot and routes probe
/// events to them as the Timeline's listener: checkpoint/promote events
/// go to their slot's tracker, send/deliver events to every tracker
/// (each slot interprets the same communication pattern under its own
/// rule — the paired-observer design carried into the obs layer).
class CausalMonitor final : public ProbeEventListener {
 public:
  /// `modes` is indexed by protocol slot; `names` labels the metric
  /// families ("rl.<slot>.<name>.*"). Slots with TrackerMode::kNone get
  /// no tracker.
  CausalMonitor(u32 n_hosts, const std::vector<TrackerMode>& modes,
                const std::vector<std::string>& names, MetricRegistry& registry);

  void on_probe_event(const ProbeEvent& e) override;

  usize slots() const noexcept { return trackers_.size(); }
  RecoveryLineTracker* tracker(usize slot) { return trackers_.at(slot).get(); }
  const RecoveryLineTracker* tracker(usize slot) const { return trackers_.at(slot).get(); }

  /// Finalizes every tracker (Z-cycle pass + final gauges).
  void finalize();

 private:
  std::vector<std::unique_ptr<RecoveryLineTracker>> trackers_;
};

/// One link of a causal chain behind a forced checkpoint.
struct ChainStep {
  // The checkpoint.
  f64 t = 0.0;
  i32 host = -1;
  u64 ordinal = 0;
  u64 sn = 0;
  CkptKind ckpt_kind = CkptKind::kInitial;
  ForcedRule rule = ForcedRule::kNone;
  bool replaced = false;
  // The message that triggered it (0 = none: basic/initial/marker).
  u64 trigger_msg = 0;
  i32 msg_src = -1;
  f64 msg_sent_t = 0.0;
  u64 msg_wire_sn = 0;    ///< Slot 0's piggybacked sn (wire value, diagnostics).
  bool msg_found = false; ///< The send event was located on the timeline.
};

/// Reconstructs, from the recorded timeline, the causal chain that
/// produced checkpoint `ordinal` of `host` in protocol slot `slot`:
/// element 0 is the checkpoint itself; each following element is the
/// sender-side checkpoint preceding the triggering message, until a
/// checkpoint with no triggering message (or `max_depth`) ends the
/// chain. Returns empty when the checkpoint is not on the timeline.
std::vector<ChainStep> explain_checkpoint_chain(const Timeline& timeline, i32 slot, i32 host,
                                                u64 ordinal, usize max_depth = 16);

}  // namespace mobichk::obs
