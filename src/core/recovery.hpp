// Recovery lines, consistency verification, and rollback.
//
// This module implements the paper's "future work" (§6): evaluating the
// recovery side of the protocols. It provides
//  * recovery-line builders: the index rule shared by BCS/QBC/COORD (same
//    sequence number, first-greater on jumps; QBC additionally uses its
//    equivalence-rule replacements), and TP's dependency-vector rule;
//  * an orphan-message checker — the oracle that property tests run
//    against every protocol;
//  * generic rollback: given a failure, find the most recent consistent
//    global checkpoint by iterating over the rollback-dependency
//    relation. For uncoordinated checkpointing this exhibits the domino
//    effect; for the communication-induced protocols it quantifies how
//    little is undone.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint_log.hpp"
#include "core/message_log.hpp"
#include "des/types.hpp"
#include "net/ids.hpp"

namespace mobichk::core {

/// A global checkpoint: one cut position per host, with the checkpoint
/// record backing it (nullptr = virtual member, i.e. the host's current
/// state stands in because no stored checkpoint is needed).
struct GlobalCheckpoint {
  std::vector<u64> pos;                          ///< Events <= pos[h] are inside the cut.
  std::vector<const CheckpointRecord*> members;  ///< Parallel to pos; may contain nullptr.
  u64 index = 0;                                 ///< The index M for index-based lines.

  usize virtual_members() const noexcept {
    usize n = 0;
    for (const auto* m : members) n += (m == nullptr);
    return n;
  }
};

/// How an index-based protocol resolves the member for index M.
enum class IndexLineRule : u8 {
  /// First checkpoint with sn >= M (BCS jump rule; also TP-ordinal, COORD).
  kFirstAtLeast,
  /// Last checkpoint with sn == M — QBC: later same-sn checkpoints are
  /// equivalence-rule replacements — falling back to first with sn > M.
  kLastEqual,
};

/// Builds the recovery line for index M. Hosts with no checkpoint of
/// sn >= M contribute a virtual member at their current position.
GlobalCheckpoint index_recovery_line(const CheckpointLog& log, u64 index, IndexLineRule rule,
                                     const std::vector<u64>& current_pos);

/// Builds the recovery line TP associates on the fly with `anchor` (a
/// record of `log`), using the dependency entries recorded with it: host
/// j's member is the checkpoint with ordinal log.dep_ckpt_at(anchor, j)
/// (virtual if not yet taken — sound under TP's phase discipline, see
/// src/core/protocols/tp.hpp).
GlobalCheckpoint tp_recovery_line(const CheckpointLog& log, const CheckpointRecord& anchor,
                                  const std::vector<u64>& current_pos);

/// All deliveries that are orphan with respect to `cut`: received inside
/// the cut but sent outside it.
std::vector<const MessageLog::Delivery*> find_orphans(const MessageLog& messages,
                                                      const GlobalCheckpoint& cut);

/// Human-readable description of an orphan (for test diagnostics).
std::string describe_orphan(const MessageLog::Delivery& d, const GlobalCheckpoint& cut);

/// Result of rolling a computation back after a failure.
struct RollbackResult {
  GlobalCheckpoint line;
  u64 iterations = 0;                    ///< Fixpoint passes over the message log.
  std::vector<u64> checkpoints_discarded;  ///< Per host, relative to its latest checkpoint.
  std::vector<u64> fail_pos;             ///< The failure cut the rollback started from.

  u64 total_discarded() const noexcept;
  /// Events of computation undone by the rollback (sum over hosts of
  /// fail position minus cut position). Throws std::logic_error when the
  /// fail_pos >= line.pos invariant is violated — a line above the
  /// failure cut means the rollback was built from inconsistent inputs,
  /// and that must surface in release builds too, not only under assert.
  u64 undone_events() const;
};

/// No specific failed host: every host restarts from a stored checkpoint.
inline constexpr net::HostId kAllHostsFailed = static_cast<net::HostId>(-1);

/// Generic rollback: repeatedly rolls receivers of orphan messages back
/// until no orphan remains; finds the *maximum* consistent cut below the
/// failure (the standard lattice argument: every rollback step is
/// forced). Terminates at worst at the initial checkpoints (the domino
/// effect made visible).
///
/// With `failed_host == kAllHostsFailed` every host starts from its
/// latest stored checkpoint at or before its failure position (total
/// failure). Otherwise only `failed_host` is forced onto a stored
/// checkpoint; survivors start at their failure state (virtual member)
/// and roll back to stored checkpoints only when orphans force them.
RollbackResult rollback_to_consistent(const CheckpointLog& log, const MessageLog& messages,
                                      const std::vector<u64>& fail_pos,
                                      net::HostId failed_host = kAllHostsFailed);

/// Multi-victim generic rollback: `failed[h]` marks every host that
/// crashed (correlated failures, cell-wide outages). Failed hosts are
/// forced onto stored checkpoints; survivors stay at their failure state
/// until orphans drag them back.
RollbackResult rollback_to_consistent(const CheckpointLog& log, const MessageLog& messages,
                                      const std::vector<u64>& fail_pos,
                                      const std::vector<bool>& failed);

/// Index-based rollback after a failure of `failed_host`: uses the line
/// of index M = the failed host's highest checkpoint index. With
/// `failed_host == kAllHostsFailed` every host restarts, and M is the
/// highest index *all* hosts reached (min over per-host max sn). Virtual
/// members represent surviving hosts that checkpoint their current state.
RollbackResult index_rollback(const CheckpointLog& log, IndexLineRule rule,
                              const std::vector<u64>& fail_pos, net::HostId failed_host);

/// Multi-victim index rollback: M is the highest index every crashed host
/// reached (min over `failed` hosts of max sn). Throws when no host is
/// marked failed on a non-empty log — the line index would be undefined.
RollbackResult index_rollback(const CheckpointLog& log, IndexLineRule rule,
                              const std::vector<u64>& fail_pos,
                              const std::vector<bool>& failed);

}  // namespace mobichk::core
