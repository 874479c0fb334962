// Coordinated snapshots, Chandy-Lamport style, adapted to a mobile and
// non-FIFO setting — the representative of the coordinated class the
// paper's §2 discusses (and argues against for mobile systems).
//
// An initiator starts snapshot round k every `interval` time units and
// disseminates a marker to every host through its MSS (we account the
// control-message and latency cost of that dissemination; this is the
// per-host search cost — point (d) — plus the channel contention and
// energy cost — points (b), (e) — the paper attributes to this class).
// A host checkpoints when it first learns of round k, either from the
// marker or from the round number piggybacked on an application message
// (the piggyback rule keeps rounds consistent without FIFO channels —
// exactly the index-based consistency argument, with the index driven by
// the initiator instead of by mobility).
//
// A disconnected host cannot be reached by the marker: per the paper's
// observation, the checkpoint it took upon disconnecting stands in for
// it in every round collected during the disconnection, so the host just
// adopts the round number.
#pragma once

#include <vector>

#include "core/protocol.hpp"
#include "des/event.hpp"

namespace mobichk::core {

class CoordinatedProtocol final : public CheckpointProtocol, public des::EventTarget {
 public:
  /// `interval`: time between snapshot initiations. `marker_latency`:
  /// modeled initiator-to-host marker delivery delay (wireless + wired +
  /// wireless; the paper's numbers give 0.03 tu).
  explicit CoordinatedProtocol(f64 interval, f64 marker_latency = 0.03)
      : interval_(interval), marker_latency_(marker_latency) {}

  const char* name() const noexcept override { return "COORD"; }

  void make_piggyback(const net::MobileHost& host, net::HostId dst, net::Piggyback& pb) override;
  void handle_receive(const net::MobileHost& host, const net::AppMessage& msg,
                      const net::Piggyback& pb) override;
  void handle_cell_switch(const net::MobileHost& host, net::MssId, net::MssId) override;
  void handle_disconnect(const net::MobileHost& host) override;

  void host_init(const net::MobileHost& host) override;

  /// Test access: the round `host` has joined.
  u64 round_of(net::HostId host) const { return round_.at(host); }
  u64 rounds_initiated() const noexcept { return next_round_ - 1; }

  /// Typed-event dispatch: kCheckpointTransfer sub 0 fires a snapshot
  /// initiation, sub 1 a marker arrival (a = host, b = round).
  void on_event(const des::EventPayload& payload) override;

 protected:
  void do_bind() override { round_.assign(ctx_.n_hosts, 0); }

 private:
  /// kCheckpointTransfer sub-kinds.
  enum : u8 { kSubInitiate = 0, kSubMarker = 1 };

  void initiate_round();
  void marker_arrive(net::HostId host_id, u64 round);
  void join_round(const net::MobileHost& host, u64 round, net::MsgId trigger = 0);

  f64 interval_;
  f64 marker_latency_;
  u64 next_round_ = 1;
  bool scheduler_armed_ = false;
  std::vector<u64> round_;
};

}  // namespace mobichk::core
