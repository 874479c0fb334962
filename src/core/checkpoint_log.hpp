// Per-protocol record of every checkpoint taken during a run, with the
// queries the recovery-line builders need.
//
// Layout: per host, one vector of flat CheckpointRecords and, in a TP
// log, one u32 arena holding the dependency entries of those records. A
// record whose entries cover every host (dense TP, or a sparse one that
// has met everybody) stores them as n (ckpt, loc) pairs indexed by host;
// any other stores its entries as (host, ckpt, loc) triples sorted by
// host. Both layouts read back identically through dep_ckpt_at /
// dep_loc_at. Everything is per host because shard-parallel windows
// append for different hosts concurrently. The arenas are created with
// the first record that carries dependencies (TP's initial checkpoint,
// taken before any shard window), so other protocols' logs cost one
// empty vector per host.
#pragma once

#include <span>
#include <vector>

#include "core/checkpoint.hpp"
#include "des/relaxed_counter.hpp"
#include "des/types.hpp"
#include "net/ids.hpp"

namespace mobichk::core {

class CheckpointLog {
 public:
  explicit CheckpointLog(u32 n_hosts) : per_host_(n_hosts) {}

  /// Appends a record, assigning its per-host ordinal. `rec.sn` must be
  /// non-decreasing per host (all protocols in this suite guarantee it).
  /// TP records pass their dependency entries (sorted by host, each host
  /// < `rank`) and the logical vector length `rank` = n_hosts; the
  /// entries are copied into the host's arena.
  const CheckpointRecord& append(CheckpointRecord rec, std::span<const DepEntry> deps = {},
                                 u32 rank = 0);

  u32 n_hosts() const noexcept { return static_cast<u32>(per_host_.size()); }

  const std::vector<CheckpointRecord>& of(net::HostId host) const {
    return per_host_.at(host);
  }

  u64 count(net::HostId host) const { return per_host_.at(host).size(); }

  /// CKPT[j] / LOC[j] of a record in this log. Entries the record does not
  /// carry (and records without dependencies) read as 0, the
  /// no-dependency default.
  u32 dep_ckpt_at(const CheckpointRecord& rec, u32 j) const noexcept {
    const u32* e = dep_entry(rec, j);
    return e != nullptr ? e[0] : 0;
  }
  u32 dep_loc_at(const CheckpointRecord& rec, u32 j) const noexcept {
    const u32* e = dep_entry(rec, j);
    return e != nullptr ? e[1] : 0;
  }

  // -- aggregate counts -------------------------------------------------
  u64 total() const noexcept { return total_; }
  u64 initial() const noexcept { return initial_; }
  u64 basic() const noexcept { return basic_; }
  u64 forced() const noexcept { return forced_; }
  /// N_tot in the paper: every checkpoint recorded on stable storage
  /// during the run, excluding the initial ones.
  u64 n_tot() const noexcept { return total_ - initial_; }

  // -- recovery-line queries ---------------------------------------------

  const CheckpointRecord* by_ordinal(net::HostId host, u64 ordinal) const;

  /// First checkpoint of `host` with sn >= `sn` (nullptr if none).
  const CheckpointRecord* first_with_sn_at_least(net::HostId host, u64 sn) const;

  /// Last checkpoint of `host` with sn == `sn` (nullptr if none). For QBC
  /// this is the equivalence-rule replacement that belongs to the line.
  const CheckpointRecord* last_with_sn(net::HostId host, u64 sn) const;

  /// Latest checkpoint of `host` with event_pos <= `pos` (nullptr if none;
  /// never null once the initial checkpoint exists, since its pos is 0).
  const CheckpointRecord* last_at_or_before_pos(net::HostId host, u64 pos) const;

  /// Relabels the *last* checkpoint of `host` with a larger sn. Used by
  /// the coordinated protocol: a checkpoint taken upon disconnection
  /// stands in for every snapshot round initiated while the host is
  /// unreachable, which is sound because the host executes no events
  /// while disconnected. `new_sn` must be >= the current sn.
  void promote_sn(net::HostId host, u64 new_sn);

  /// Maximum sn over all checkpoints of `host` (0 if none).
  u64 max_sn(net::HostId host) const;

  /// Maximum sn over all hosts.
  u64 max_sn() const;

 private:
  /// Host j's (ckpt, loc) pair in `rec`'s entries, or nullptr if absent.
  const u32* dep_entry(const CheckpointRecord& rec, u32 j) const noexcept;

  std::vector<std::vector<CheckpointRecord>> per_host_;
  /// Per-host dependency arenas (see the layout above); empty until the
  /// first record with dependencies.
  std::vector<std::vector<u32>> deps_;
  // Relaxed atomics: shard-parallel windows append checkpoints for
  // different hosts concurrently (the per-host vectors are owner-local;
  // these aggregates are order-independent sums).
  des::RelaxedCounter total_;
  des::RelaxedCounter initial_;
  des::RelaxedCounter basic_;
  des::RelaxedCounter forced_;
};

}  // namespace mobichk::core
