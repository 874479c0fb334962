#include "core/protocols/coordinated.hpp"

#include "net/network.hpp"

namespace mobichk::core {

void CoordinatedProtocol::on_event(const des::EventPayload& p) {
  if (p.sub == kSubInitiate) {
    initiate_round();
  } else {
    marker_arrive(static_cast<net::HostId>(p.a), p.b);
  }
}

void CoordinatedProtocol::host_init(const net::MobileHost& host) {
  CheckpointProtocol::host_init(host);
  if (!scheduler_armed_ && ctx_.net != nullptr) {
    scheduler_armed_ = true;
    des::EventPayload p;
    p.target = this;
    p.kind = des::EventKind::kCheckpointTransfer;
    p.sub = kSubInitiate;
    ctx_.sim->schedule_after(interval_, p);
  }
}

void CoordinatedProtocol::initiate_round() {
  const u64 round = next_round_++;
  des::EventPayload marker;
  marker.target = this;
  marker.kind = des::EventKind::kCheckpointTransfer;
  marker.sub = kSubMarker;
  marker.b = round;
  for (net::HostId h = 0; h < ctx_.n_hosts; ++h) {
    // One marker per host: locate it and deliver through its MSS.
    ++control_messages_;
    marker.a = h;
    ctx_.sim->schedule_after(marker_latency_, marker);
  }
  des::EventPayload next;
  next.target = this;
  next.kind = des::EventKind::kCheckpointTransfer;
  next.sub = kSubInitiate;
  ctx_.sim->schedule_after(interval_, next);
}

void CoordinatedProtocol::marker_arrive(net::HostId host_id, u64 round) {
  const net::MobileHost& host = ctx_.net->host(host_id);
  if (!host.connected()) {
    // Unreachable: the disconnect checkpoint stands in for this round
    // (sound: the host executes no events while disconnected). Relabel it
    // so the recovery-line builder finds it under the round index.
    if (round > round_.at(host_id)) {
      round_.at(host_id) = round;
      ctx_.log->promote_sn(host_id, round);
      if (ctx_.timeline != nullptr) {
        obs::ProbeEvent e;
        e.t = ctx_.now();
        e.kind = obs::ProbeKind::kSnPromote;
        e.actor = static_cast<i32>(host_id);
        e.track = ctx_.slot;
        e.a = round;
        ctx_.timeline->record(e);
      }
    }
    return;
  }
  join_round(host, round);
}

void CoordinatedProtocol::join_round(const net::MobileHost& host, u64 round, net::MsgId trigger) {
  u64& r = round_.at(host.id());
  if (round <= r) return;
  r = round;
  take_checkpoint(host, CheckpointKind::kForced, r, obs::ForcedRule::kMarker, trigger);
}

void CoordinatedProtocol::make_piggyback(const net::MobileHost& host, net::HostId,
                                         net::Piggyback& pb) {
  pb.sn = round_.at(host.id());
  pb.has_sn = true;
}

void CoordinatedProtocol::handle_receive(const net::MobileHost& host, const net::AppMessage& msg,
                                         const net::Piggyback& pb) {
  // Round numbers on application messages keep rounds consistent without
  // FIFO channels: checkpoint before processing a message from a newer
  // round.
  join_round(host, pb.sn, msg.id);
}

void CoordinatedProtocol::handle_cell_switch(const net::MobileHost& host, net::MssId, net::MssId) {
  take_checkpoint(host, CheckpointKind::kBasic, round_.at(host.id()));
}

void CoordinatedProtocol::handle_disconnect(const net::MobileHost& host) {
  take_checkpoint(host, CheckpointKind::kBasic, round_.at(host.id()));
}

}  // namespace mobichk::core
