#include "core/protocols/lazy_bcs.hpp"

namespace mobichk::core {

void LazyBcsProtocol::make_piggyback(const net::MobileHost& host, net::HostId,
                                     net::Piggyback& pb) {
  pb.sn = per_host_.at(host.id()).sn;
  pb.has_sn = true;
}

void LazyBcsProtocol::handle_receive(const net::MobileHost& host, const net::AppMessage& msg,
                                     const net::Piggyback& pb) {
  HostState& hs = per_host_.at(host.id());
  if (pb.sn > hs.sn) {
    hs.sn = pb.sn;
    hs.basics_since_increment = 0;  // a fresh index level just started here
    take_checkpoint(host, CheckpointKind::kForced, hs.sn, obs::ForcedRule::kSnGreater, msg.id);
  }
}

void LazyBcsProtocol::basic_checkpoint(const net::MobileHost& host) {
  HostState& hs = per_host_.at(host.id());
  if (++hs.basics_since_increment >= laziness_) {
    hs.basics_since_increment = 0;
    hs.sn += 1;
  }
  take_checkpoint(host, CheckpointKind::kBasic, hs.sn);
}

void LazyBcsProtocol::handle_cell_switch(const net::MobileHost& host, net::MssId, net::MssId) {
  basic_checkpoint(host);
}

void LazyBcsProtocol::handle_disconnect(const net::MobileHost& host) { basic_checkpoint(host); }

}  // namespace mobichk::core
