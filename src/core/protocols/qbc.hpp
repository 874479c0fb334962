// QBC: the index-based protocol of Quaglia, Baldoni & Ciciani. Paper §4.2.
//
// QBC is BCS plus a checkpoint-equivalence rule that slows the growth of
// sequence numbers. Each host also tracks rn_i, the maximum sequence
// number ever received. At a *basic* checkpoint:
//   * if rn_i = sn_i, the checkpoint cannot replace its predecessor in
//     the recovery line (something depends on it), so sn_i increments as
//     in BCS;
//   * if rn_i < sn_i, the new checkpoint does not depend on any
//     checkpoint with index sn_i, so it keeps the same sequence number
//     and *replaces* its predecessor in the recovery line.
// Fewer index increments propagate fewer forced checkpoints — QBC's win,
// obtained without any additional control information.
#pragma once

#include <vector>

#include "core/protocol.hpp"

namespace mobichk::core {

class QbcProtocol final : public CheckpointProtocol {
 public:
  const char* name() const noexcept override { return "QBC"; }

  void make_piggyback(const net::MobileHost& host, net::HostId dst, net::Piggyback& pb) override;
  void handle_receive(const net::MobileHost& host, const net::AppMessage& msg,
                      const net::Piggyback& pb) override;
  void handle_cell_switch(const net::MobileHost& host, net::MssId from, net::MssId to) override;
  void handle_disconnect(const net::MobileHost& host) override;

  /// Test access.
  u64 sequence_number(net::HostId host) const { return per_host_.at(host).sn; }
  i64 receive_number(net::HostId host) const { return per_host_.at(host).rn; }

 protected:
  void do_bind() override { per_host_.assign(ctx_.n_hosts, HostState{}); }

 private:
  struct HostState {
    u64 sn = 0;
    i64 rn = -1;  ///< Paper: rn_i := -1 at init.
  };

  void basic_checkpoint(const net::MobileHost& host);

  std::vector<HostState> per_host_;
};

}  // namespace mobichk::core
