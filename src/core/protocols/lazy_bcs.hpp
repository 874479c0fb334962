// LazyBCS: BCS with naive lazy indexing — a deliberately flawed design
// point that shows *why* QBC's equivalence rule is the right way to slow
// index growth.
//
// LazyBCS(k) increments the sequence number only on every k-th basic
// checkpoint (k = 1 is exactly BCS). Safety is unaffected: same-index
// lines stay orphan-free for any non-decreasing sn assignment, and fewer
// index increments mean fewer forced checkpoints. The catch is
// usefulness: a basic checkpoint that keeps its predecessor's sequence
// number without QBC's rn < sn guard may belong to *no* consistent
// global checkpoint (it can land on a zigzag cycle), so the saved forced
// checkpoints are paid for with wasted stable-storage writes and worse
// recovery. The abl_lazy_indexing bench plots that trade-off.
#pragma once

#include <vector>

#include "core/protocol.hpp"

namespace mobichk::core {

class LazyBcsProtocol final : public CheckpointProtocol {
 public:
  /// `laziness` = k: only every k-th basic checkpoint advances the index.
  explicit LazyBcsProtocol(u32 laziness) : laziness_(laziness == 0 ? 1 : laziness) {}

  const char* name() const noexcept override { return "LAZY-BCS"; }

  void make_piggyback(const net::MobileHost& host, net::HostId dst, net::Piggyback& pb) override;
  void handle_receive(const net::MobileHost& host, const net::AppMessage& msg,
                      const net::Piggyback& pb) override;
  void handle_cell_switch(const net::MobileHost& host, net::MssId, net::MssId) override;
  void handle_disconnect(const net::MobileHost& host) override;

  u64 sequence_number(net::HostId host) const { return per_host_.at(host).sn; }
  u32 laziness() const noexcept { return laziness_; }

 protected:
  void do_bind() override { per_host_.assign(ctx_.n_hosts, HostState{}); }

 private:
  struct HostState {
    u64 sn = 0;
    u32 basics_since_increment = 0;
  };

  void basic_checkpoint(const net::MobileHost& host);

  u32 laziness_;
  std::vector<HostState> per_host_;
};

}  // namespace mobichk::core
