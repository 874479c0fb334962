// BasicOnly: the lower-bound reference — takes only the checkpoints the
// mobile setting mandates (initial, cell switch, disconnection) and no
// forced checkpoints at all. It carries no control information.
//
// It gives no consistency guarantee by itself (recovery must fall back to
// rollback-dependency-graph search, where it exhibits the domino effect);
// its value is as the floor for N_tot in the benches: the gap between a
// protocol and BasicOnly is exactly that protocol's forced-checkpoint
// overhead.
#pragma once

#include <vector>

#include "core/protocol.hpp"

namespace mobichk::core {

class BasicOnlyProtocol final : public CheckpointProtocol {
 public:
  const char* name() const noexcept override { return "BASIC"; }

  void make_piggyback(const net::MobileHost&, net::HostId, net::Piggyback&) override {}
  void handle_receive(const net::MobileHost&, const net::AppMessage&,
                      const net::Piggyback&) override {}
  void handle_cell_switch(const net::MobileHost& host, net::MssId, net::MssId) override {
    basic_checkpoint(host);
  }
  void handle_disconnect(const net::MobileHost& host) override { basic_checkpoint(host); }

 protected:
  void do_bind() override { count_.assign(ctx_.n_hosts, 0); }

 private:
  void basic_checkpoint(const net::MobileHost& host) {
    take_checkpoint(host, CheckpointKind::kBasic, ++count_.at(host.id()));
  }

  std::vector<u64> count_;
};

}  // namespace mobichk::core
