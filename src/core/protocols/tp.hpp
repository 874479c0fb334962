// TP: the two-phase-based protocol of Acharya & Badrinath (an adaptation
// of Russell's protocol to mobile systems). Paper §4.1.
//
// Rule: each host owns a boolean phase; sending sets phase := SEND; a
// receive while phase == SEND forces a checkpoint (and resets the phase).
// Every checkpoint interval therefore contains all its receives before
// all its sends, which is what makes the dependency-vector recovery line
// consistent (Russell 1980).
//
// Control information: two vectors of n integers ride on every message —
// CKPT[] (transitive dependency on checkpoint intervals) and LOC[]
// (transitive dependency on MH locations, for efficient retrieval over
// the wired network). This is why TP does not scale in the number of
// hosts, the paper's point (3).
//
// Encodings: kDense ships the full vectors (the paper's literal protocol,
// flat n*n arena state); kSparse ships per-destination deltas — only the
// entries that changed since the previous message on the same (src, dst)
// pair, plus the sender's own entry — over per-host sorted entry lists
// whose memory is proportional to the dependencies that actually formed.
// Deltas are exact under per-pair FIFO delivery; out-of-order delivery
// (chase-forwarded messages during a handoff) can leave the receiver's
// view transiently *under* the dense one until the stragglers arrive.
// Such gaps are detected via a per-pair sequence number and surfaced
// through delta_reorders(). The phase rule never reads the vectors, so
// forced checkpoints — and the event trace — are encoding-independent.
#pragma once

#include <vector>

#include "core/protocol.hpp"
#include "des/relaxed_counter.hpp"

namespace mobichk::core {

/// TP piggyback wire encoding.
enum class TpEncoding : u8 {
  kDense,   ///< Full CKPT[]/LOC[] vectors on every message (paper-literal).
  kSparse,  ///< Per-destination delta entries (scales past ~10^3 hosts).
};

class TpProtocol final : public CheckpointProtocol {
 public:
  explicit TpProtocol(TpEncoding encoding = TpEncoding::kSparse) : encoding_(encoding) {}

  const char* name() const noexcept override { return "TP"; }
  TpEncoding encoding() const noexcept { return encoding_; }

  void host_init(const net::MobileHost& host) override;
  void make_piggyback(const net::MobileHost& host, net::HostId dst, net::Piggyback& pb) override;
  void handle_receive(const net::MobileHost& host, const net::AppMessage& msg,
                      const net::Piggyback& pb) override;
  void handle_cell_switch(const net::MobileHost& host, net::MssId from, net::MssId to) override;
  void handle_disconnect(const net::MobileHost& host) override;

  /// Test access: true when the host's phase is SEND.
  bool phase_is_send(net::HostId host) const { return phase_send_.at(host) != 0; }
  /// Test access: materialised requirement vector (CKPT[], own entry 0).
  std::vector<u32> requirement_vector(net::HostId host) const;
  /// Test access: materialised location vector (LOC[]).
  std::vector<u32> location_vector(net::HostId host) const;
  /// Sparse mode: deliveries whose per-pair delta sequence arrived out of
  /// order (each one may leave a transient dependency under-estimate).
  u64 delta_reorders() const noexcept { return delta_reorders_; }

 protected:
  void do_bind() override;

 private:
  /// Sparse per-host dependency entry (others only, sorted by idx).
  struct Entry {
    u32 idx = 0;
    u32 ckpt = 0;
    u32 loc = 0;
    u64 ver = 0;  ///< Owner's version counter at last change (delta cut-off).
  };
  /// Sparse sender-side cursor: what dst has already been shipped.
  struct SendCursor {
    u32 dst = 0;
    u32 next_seq = 0;
    u64 last_ver = 0;
  };
  /// Sparse receiver-side cursor: next expected per-pair sequence.
  struct RecvCursor {
    u32 src = 0;
    u32 expect = 0;
  };

  void basic_checkpoint(const net::MobileHost& host);
  void checkpoint(const net::MobileHost& host, CheckpointKind kind, net::MsgId trigger = 0);

  SendCursor& send_cursor(net::HostId src, net::HostId dst);
  RecvCursor& recv_cursor(net::HostId dst, net::HostId src);

  TpEncoding encoding_;

  // SoA host state shared by both encodings (index = dense host id).
  /// Per-lane buffer a checkpoint's dependency entries are built in
  /// (reused across checkpoints; see do_bind for the lane numbering).
  std::vector<std::vector<DepEntry>> dep_scratch_;
  std::vector<u8> phase_send_;   ///< init: RECV (0).
  std::vector<u64> ckpt_count_;  ///< Checkpoints taken so far (= next ordinal).

  // Dense encoding: flat n*n row-major arenas.
  // req_[i*n+j]: minimal checkpoint ordinal of host j that a recovery line
  // anchored at host i's *next* checkpoint requires (0 = only j's initial
  // checkpoint, i.e. no dependency). loc_[i*n+j]: last known MSS of j.
  std::vector<u32> req_;
  std::vector<u32> loc_;

  // Sparse encoding.
  std::vector<u32> self_loc_;                      ///< Own MSS at last checkpoint.
  std::vector<std::vector<Entry>> entries_;        ///< Per-host, others only, sorted.
  std::vector<u64> version_;                       ///< Per-host change counter.
  std::vector<std::vector<SendCursor>> send_cur_;  ///< Per-host, sorted by dst.
  std::vector<std::vector<RecvCursor>> recv_cur_;  ///< Per-host, sorted by src.
  // Relaxed atomic: a rare cross-shard bump (only on an out-of-order
  // per-pair delta, which owner-local receives make owner-local anyway).
  des::RelaxedCounter delta_reorders_;
};

}  // namespace mobichk::core
