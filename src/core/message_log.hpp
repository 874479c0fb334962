// Record of every application message's send/receive positions.
//
// This is instrumentation, not part of any protocol: it is the oracle the
// consistency checker and the rollback machinery use to decide whether a
// message is orphan with respect to a global checkpoint.
//
// Layout: message ids are dense (the network numbers sends 1, 2, ... —
// sharded runs too, once the barrier has replaced provisional ids), so
// the send table is a flat vector indexed by id, with no hashing and no
// per-message node. Ids may be noted out of order (the sharded merge
// notes each shard's sends in turn); the holes they leave read as
// "never sent" until filled.
#pragma once

#include <cassert>
#include <limits>
#include <vector>

#include "des/types.hpp"
#include "net/ids.hpp"

namespace mobichk::core {

class MessageLog {
 public:
  /// One *delivery* of a message to the application. At-least-once
  /// transport means a message id may appear in several deliveries.
  struct Delivery {
    u64 msg_id = 0;
    net::HostId src = 0;
    net::HostId dst = 0;
    u64 send_pos = 0;  ///< Sender event position of the send event.
    u64 recv_pos = 0;  ///< Receiver event position of this receive event.
    u64 sn = 0;        ///< Piggybacked index (diagnostics).
  };

  /// Records a send. A second note of the same id keeps the first.
  void note_send(u64 msg_id, net::HostId src, net::HostId dst, u64 send_pos) {
    assert(msg_id < kMaxId && "message ids must be final (dense), not provisional");
    if (msg_id >= sends_.size()) sends_.resize(msg_id + 1);
    Send& s = sends_[msg_id];
    if (s.src != kUnsent) return;
    s = Send{send_pos, src, dst};
    ++recorded_;
  }

  /// Records a delivery; the send must have been noted first.
  void note_receive(u64 msg_id, u64 recv_pos, u64 sn) {
    if (msg_id >= sends_.size() || sends_[msg_id].src == kUnsent) {
      return;  // foreign message (not tracked)
    }
    const Send& s = sends_[msg_id];
    deliveries_.push_back(Delivery{msg_id, s.src, s.dst, s.send_pos, recv_pos, sn});
  }

  const std::vector<Delivery>& deliveries() const noexcept { return deliveries_; }

  u64 sends_recorded() const noexcept { return recorded_; }

  /// Messages sent but never delivered to the application (in flight or
  /// buffered when the run ended).
  u64 undelivered() const {
    // Deliveries may contain duplicates of one id; count distinct ids.
    std::vector<bool> seen(sends_.size(), false);
    u64 distinct = 0;
    for (const Delivery& d : deliveries_) {
      if (!seen[d.msg_id]) {
        seen[d.msg_id] = true;
        ++distinct;
      }
    }
    return recorded_ - distinct;
  }

 private:
  /// `src` of a send-table slot no send has filled.
  static constexpr net::HostId kUnsent = std::numeric_limits<net::HostId>::max();
  /// Ids at or past this bound are not dense (a provisional id has bit 63 set).
  static constexpr u64 kMaxId = u64{1} << 40;

  struct Send {
    u64 send_pos = 0;
    net::HostId src = kUnsent;
    net::HostId dst = 0;
  };

  std::vector<Send> sends_;  ///< Indexed by message id.
  std::vector<Delivery> deliveries_;
  u64 recorded_ = 0;
};

}  // namespace mobichk::core
