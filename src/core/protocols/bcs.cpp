#include "core/protocols/bcs.hpp"

namespace mobichk::core {

void BcsProtocol::make_piggyback(const net::MobileHost& host, net::HostId, net::Piggyback& pb) {
  pb.sn = sn_.at(host.id());
  pb.has_sn = true;
}

void BcsProtocol::handle_receive(const net::MobileHost& host, const net::AppMessage& msg,
                                 const net::Piggyback& pb) {
  u64& sn = sn_.at(host.id());
  if (pb.sn > sn) {
    sn = pb.sn;
    take_checkpoint(host, CheckpointKind::kForced, sn, obs::ForcedRule::kSnGreater, msg.id);
  }
}

void BcsProtocol::basic_checkpoint(const net::MobileHost& host) {
  u64& sn = sn_.at(host.id());
  sn += 1;
  take_checkpoint(host, CheckpointKind::kBasic, sn);
}

void BcsProtocol::handle_cell_switch(const net::MobileHost& host, net::MssId, net::MssId) {
  basic_checkpoint(host);
}

void BcsProtocol::handle_disconnect(const net::MobileHost& host) { basic_checkpoint(host); }

}  // namespace mobichk::core
