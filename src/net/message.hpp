// Application-message representation, including the protocol piggyback.
#pragma once

#include <algorithm>
#include <vector>

#include "des/types.hpp"
#include "net/ids.hpp"

namespace mobichk::net {

/// Bytes a LEB128 varint needs for `v`. The sparse piggyback encoding is
/// modelled (not serialized): wire-byte accounting charges what the value
/// would cost on the wire, and varints are what a real encoder would use
/// for the small gaps and counters that dominate delta entries.
constexpr usize varint_bytes(u64 v) noexcept {
  usize n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// One sparse piggyback entry: host `idx`'s checkpoint-interval requirement
/// and last-known location, shipped only when they changed since the last
/// message on this (src, dst) pair.
struct PbDelta {
  u32 idx = 0;   ///< Dense host id the entry describes.
  u32 ckpt = 0;  ///< CKPT[idx]: required checkpoint interval.
  u32 loc = 0;   ///< LOC[idx]: last-known MSS of idx.
};

/// Protocol control information piggybacked on an application message.
///
/// This is a generic container covering the needs of every protocol in the
/// suite: index-based protocols use `sn` only; the two-phase protocol (TP)
/// uses either the two dense transitive-dependency vectors or, in sparse
/// mode, a delta list carrying only the entries that changed since the
/// previous message to the same destination; coordinated protocols may use
/// `tag` for markers. `wire_bytes()` reports how much control data the
/// message actually carries, which feeds the channel-overhead accounting
/// the paper's section 2.2 motivates.
struct Piggyback {
  u64 sn = 0;               ///< Index-based protocols: sender's sequence number.
  std::vector<u32> vec_a;   ///< TP dense: CKPT[] dependency on checkpoint intervals.
  std::vector<u32> vec_b;   ///< TP dense: LOC[] dependency on MH locations.
  std::vector<PbDelta> deltas;  ///< TP sparse: entries changed since last msg to dst.
  u32 delta_seq = 0;        ///< TP sparse: per-(src,dst) sequence for gap detection.
  u32 dense_rank = 0;       ///< TP sparse: 2 * n_hosts, the dense-equivalent entry count.
  u32 tag = 0;              ///< Protocol-specific marker / flag.
  bool has_sn = false;      ///< Whether `sn` is meaningful (affects wire size).
  bool has_tag = false;     ///< Whether `tag` is carried (affects wire size).
  bool has_delta = false;   ///< Whether the sparse delta encoding is in use.

  /// Clears every field for re-encoding; the vectors keep their capacity,
  /// so a recycled message's piggyback is filled without allocating.
  void reset() noexcept {
    sn = 0;
    vec_a.clear();
    vec_b.clear();
    deltas.clear();
    delta_seq = 0;
    dense_rank = 0;
    tag = 0;
    has_sn = false;
    has_tag = false;
    has_delta = false;
  }

  /// Encoded cost of the delta list alone: seq + count + gap-coded indices
  /// + varint values. A real encoder keeps a one-bit escape to fall back
  /// to the dense layout when deltas would be larger (first contact, or
  /// pathological value growth), so the sparse cost is capped at the
  /// dense-equivalent size — `encoded <= dense` holds unconditionally.
  usize delta_encoded_bytes() const noexcept {
    usize bytes = varint_bytes(delta_seq) + varint_bytes(deltas.size());
    u32 prev = 0;
    for (const PbDelta& d : deltas) {
      bytes += varint_bytes(d.idx - prev) + varint_bytes(d.ckpt) + varint_bytes(d.loc);
      prev = d.idx;
    }
    return std::min(bytes, static_cast<usize>(dense_rank) * sizeof(u32));
  }

  /// Bytes of control information this piggyback adds on the wire.
  usize wire_bytes() const noexcept {
    usize bytes = 0;
    if (has_sn) bytes += sizeof(u64);
    bytes += (vec_a.size() + vec_b.size()) * sizeof(u32);
    if (has_delta) bytes += delta_encoded_bytes();
    // A carried tag costs wire bytes even when its value happens to be 0;
    // gating on the value silently undercounted those messages.
    if (has_tag) bytes += sizeof(u32);
    return bytes;
  }

  /// Bytes the same control information would cost with the dense layout
  /// (full CKPT[]/LOC[] vectors). Equals wire_bytes() for non-sparse
  /// piggybacks; for sparse ones it is the overhead the paper's original
  /// TP would have paid, kept for apples-to-apples figure comparisons.
  usize dense_bytes() const noexcept {
    usize bytes = 0;
    if (has_sn) bytes += sizeof(u64);
    bytes += (vec_a.size() + vec_b.size()) * sizeof(u32);
    if (has_delta) bytes += static_cast<usize>(dense_rank) * sizeof(u32);
    if (has_tag) bytes += sizeof(u32);
    return bytes;
  }
};

/// An application message in flight or in a mailbox.
///
/// Life cycle: Network::send_app_message takes a spare message from its
/// pool (or a fresh one when the spare list is empty) and stamps its
/// header; the handler encodes every protocol slot's piggyback into it
/// (ProtocolHarness resets each slot's first); the message then moves by
/// value through its legs (parked in the pool between them) into the
/// destination's mailbox; once consumed it goes back to the spare list of
/// the consuming context's pool, piggyback vectors and observer slots
/// included. Steady-state sends therefore reuse buffers instead of
/// allocating them. A duplicate delivery is a full copy of the message.
struct AppMessage {
  u64 id = 0;               ///< Globally unique message id.
  HostId src = 0;
  HostId dst = 0;
  u32 payload_bytes = 0;    ///< Application payload size (excl. piggyback).
  des::Time sent_at = 0.0;
  u64 send_pos = 0;         ///< Sender's event position at send (consistency oracle).
  Piggyback pb;             ///< Protocol slot 0's piggyback: the one on the wire.
  /// Piggybacks of paired-observer slots 1..k-1 (slot 0 excluded — it is
  /// `pb`). They travel by value with the message, so every copy of it
  /// (a duplicate delivery, a cross-shard leg) carries its own.
  std::vector<Piggyback> observer_pbs;

  usize wire_bytes() const noexcept { return payload_bytes + pb.wire_bytes(); }
};

}  // namespace mobichk::net
