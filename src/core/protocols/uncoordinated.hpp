// Uncoordinated checkpointing: hosts checkpoint independently on a local
// timer (plus the mandatory basic checkpoints). Paper §2 rules this class
// out for mobile settings because building a consistent global checkpoint
// after a failure requires a potentially unbounded rollback (domino
// effect); we implement it so the recovery benches can *measure* that
// rollback against the communication-induced protocols.
#pragma once

#include <vector>

#include "core/protocol.hpp"
#include "des/distributions.hpp"
#include "des/event.hpp"
#include "des/rng.hpp"

namespace mobichk::core {

class UncoordinatedProtocol final : public CheckpointProtocol, public des::EventTarget {
 public:
  /// `mean_period`: mean of the exponentially distributed local
  /// checkpoint interval. `seed` feeds the timer randomness.
  UncoordinatedProtocol(f64 mean_period, u64 seed)
      : period_(mean_period), rng_(seed, "proto.uncoordinated") {}

  const char* name() const noexcept override { return "UNCOORD"; }

  void make_piggyback(const net::MobileHost&, net::HostId, net::Piggyback&) override {}
  void handle_receive(const net::MobileHost&, const net::AppMessage&,
                      const net::Piggyback&) override {}
  void handle_cell_switch(const net::MobileHost& host, net::MssId, net::MssId) override {
    checkpoint(host, CheckpointKind::kBasic);
  }
  void handle_disconnect(const net::MobileHost& host) override {
    checkpoint(host, CheckpointKind::kBasic);
  }

  void host_init(const net::MobileHost& host) override;

  /// Typed-event dispatch: one kCheckpointTransfer per local timer tick
  /// (a = host).
  void on_event(const des::EventPayload& payload) override;

 protected:
  void do_bind() override { count_.assign(ctx_.n_hosts, 0); }

 private:
  void checkpoint(const net::MobileHost& host, CheckpointKind kind) {
    take_checkpoint(host, kind, ++count_.at(host.id()));
  }
  void schedule_timer(net::HostId host);

  des::Exponential period_;
  des::RngStream rng_;
  std::vector<u64> count_;
};

}  // namespace mobichk::core
