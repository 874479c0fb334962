// BCS: the index-based protocol of Briatico, Ciuffoletti & Simoncini.
// Paper §4.2.
//
// Every checkpoint carries a sequence number sn; sn rides on every
// outgoing message (one integer — this is why BCS scales in the number of
// hosts). A receive of m with m.sn > sn_i forces a checkpoint with
// sn_i := m.sn; basic checkpoints (cell switch, disconnection) increment
// sn_i. Checkpoints with equal sequence numbers form a consistent global
// checkpoint (with the first-greater rule on jumps).
#pragma once

#include <vector>

#include "core/protocol.hpp"

namespace mobichk::core {

class BcsProtocol final : public CheckpointProtocol {
 public:
  const char* name() const noexcept override { return "BCS"; }

  void make_piggyback(const net::MobileHost& host, net::HostId dst, net::Piggyback& pb) override;
  void handle_receive(const net::MobileHost& host, const net::AppMessage& msg,
                      const net::Piggyback& pb) override;
  void handle_cell_switch(const net::MobileHost& host, net::MssId from, net::MssId to) override;
  void handle_disconnect(const net::MobileHost& host) override;

  /// Test access: current sequence number of `host`.
  u64 sequence_number(net::HostId host) const { return sn_.at(host); }

 protected:
  void do_bind() override { sn_.assign(ctx_.n_hosts, 0); }

 private:
  void basic_checkpoint(const net::MobileHost& host);

  std::vector<u64> sn_;
};

}  // namespace mobichk::core
