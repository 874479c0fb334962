// Differential determinism audit for the DES core.
//
// A run is specified to be a pure function of (SimConfig, seed) and
// independent of the event-queue implementation: the queues order events
// by (time, seq), so the binary heap and the reference sorted-list queue
// must produce bit-identical traces. This module makes that contract
// machine-checkable: it executes the same config under every
// queue kind and cross-checks trace hashes, event counts, workload ops
// and per-protocol N_tot, plus each run's engine invariant ledger.
//
// Every perf PR that touches src/des/ gets a one-command regression
// oracle: `mobichk_cli audit` (or `run --audit-determinism`).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace mobichk::sim {

/// One queue implementation's outcome for the audited config.
struct AuditRun {
  std::string queue_name;
  u64 trace_hash = 0;
  u64 events_executed = 0;
  u64 workload_ops = 0;
  bool invariants_ok = true;
  /// (protocol name, N_tot) in slot order.
  std::vector<std::pair<std::string, u64>> n_tot;
};

/// Outcome of a differential audit across queue implementations.
struct AuditReport {
  std::vector<AuditRun> runs;
  /// Human-readable divergences; empty iff the engine is deterministic
  /// across queue kinds and every run's invariants reconciled.
  std::vector<std::string> mismatches;

  bool deterministic() const noexcept { return mismatches.empty(); }

  /// Prints a per-queue table plus PASS/FAIL verdict.
  void print(std::ostream& os) const;
};

/// Runs `cfg` once per queue kind (binary-heap, sorted-list reference)
/// with trace hashing forced on, and cross-checks the results against the
/// first run. `opts.queue_kind` is ignored.
AuditReport audit_determinism(const SimConfig& cfg, ExperimentOptions opts = {});

}  // namespace mobichk::sim
