// Checkpoint records: what a protocol writes to stable storage.
#pragma once

#include <type_traits>

#include "des/types.hpp"
#include "net/ids.hpp"

namespace mobichk::core {

/// Why a checkpoint was taken.
enum class CheckpointKind : u8 {
  kInitial,  ///< The mandatory checkpoint at computation start.
  kBasic,    ///< Mandated by mobility: cell switch or voluntary disconnection.
  kForced,   ///< Induced by the protocol (communication pattern or marker).
};

/// Returns a stable display name for a kind.
constexpr const char* checkpoint_kind_name(CheckpointKind kind) noexcept {
  switch (kind) {
    case CheckpointKind::kInitial: return "initial";
    case CheckpointKind::kBasic: return "basic";
    case CheckpointKind::kForced: return "forced";
  }
  return "?";
}

/// One TP dependency entry: what a checkpoint requires of `host`. A
/// record's entries are sorted by host; hosts absent from them mean "no
/// dependency" (ckpt 0, the initial checkpoint) and "location never
/// learned" (MSS 0).
struct DepEntry {
  u32 host = 0;
  u32 ckpt = 0;  ///< Minimal checkpoint ordinal of `host` the line requires.
  u32 loc = 0;   ///< Last-known MSS of `host` (retrieval metadata).
};

/// One local checkpoint C_{i,x}. Flat and trivially copyable: TP's
/// dependency entries live in the owning CheckpointLog's per-host arena,
/// and the record keeps only where they are. Read them through
/// CheckpointLog::dep_ckpt_at / dep_loc_at.
struct CheckpointRecord {
  net::HostId host = 0;
  net::MssId location = 0;  ///< MSS whose stable storage holds it.
  u64 ordinal = 0;       ///< Per-host creation order (0-based, includes initial).
  u64 sn = 0;            ///< Protocol index: sequence number (BCS/QBC), checkpoint
                         ///< count (TP), snapshot round (coordinated), = ordinal otherwise.
  des::Time time = 0.0;
  u64 event_pos = 0;        ///< Host events with position <= event_pos precede it.
  u64 bytes = 0;            ///< Upload size (0 when no byte model is attached).
  u32 dep_off = 0;   ///< First u32 of this record's entries in the host's dependency arena.
  u32 dep_len = 0;   ///< Dependency entries recorded (0 for non-TP records).
  u32 dep_rank = 0;  ///< Logical length of CKPT[]/LOC[] (n_hosts); 0 = no dependencies.
  CheckpointKind kind = CheckpointKind::kInitial;
  bool replaced_predecessor = false;  ///< QBC equivalence rule fired (same sn as predecessor).

  /// True when the record carries TP dependency information.
  bool has_deps() const noexcept { return dep_rank > 0; }

  /// Logical length of the dependency vectors (n_hosts at record time).
  u32 deps_rank() const noexcept { return dep_rank; }
};

static_assert(std::is_trivially_copyable_v<CheckpointRecord>,
              "checkpoint records are copied and freed in bulk; keep them flat");

}  // namespace mobichk::core
