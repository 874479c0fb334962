#include "core/protocols/qbc.hpp"

#include <algorithm>

namespace mobichk::core {

void QbcProtocol::make_piggyback(const net::MobileHost& host, net::HostId, net::Piggyback& pb) {
  pb.sn = per_host_.at(host.id()).sn;
  pb.has_sn = true;
}

void QbcProtocol::handle_receive(const net::MobileHost& host, const net::AppMessage& msg,
                                 const net::Piggyback& pb) {
  HostState& hs = per_host_.at(host.id());
  hs.rn = std::max<i64>(static_cast<i64>(pb.sn), hs.rn);
  if (pb.sn > hs.sn) {
    hs.sn = pb.sn;
    take_checkpoint(host, CheckpointKind::kForced, hs.sn, obs::ForcedRule::kSnGreater, msg.id);
  }
}

void QbcProtocol::basic_checkpoint(const net::MobileHost& host) {
  HostState& hs = per_host_.at(host.id());
  const bool can_replace = hs.rn < static_cast<i64>(hs.sn);
  if (!can_replace) {
    // rn_i = sn_i: a received message ties this host to the current
    // recovery line, so the next checkpoint starts a new index.
    hs.sn += 1;
  }
  take_checkpoint(host, CheckpointKind::kBasic, hs.sn, {}, 0, /*replaced=*/can_replace);
}

void QbcProtocol::handle_cell_switch(const net::MobileHost& host, net::MssId, net::MssId) {
  basic_checkpoint(host);
}

void QbcProtocol::handle_disconnect(const net::MobileHost& host) { basic_checkpoint(host); }

}  // namespace mobichk::core
