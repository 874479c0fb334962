#include "core/protocol.hpp"

#include <stdexcept>

#include "storage/data_plane.hpp"

namespace mobichk::core {

void CheckpointProtocol::bind(const ProtocolContext& ctx) {
  if (ctx.log == nullptr) throw std::invalid_argument("ProtocolContext: log is required");
  if (ctx.sim == nullptr) throw std::invalid_argument("ProtocolContext: sim is required");
  if (ctx.n_hosts == 0) throw std::invalid_argument("ProtocolContext: n_hosts is zero");
  ctx_ = ctx;
  do_bind();
}

void CheckpointProtocol::host_init(const net::MobileHost& host) {
  take_checkpoint(host, CheckpointKind::kInitial, 0);
}

void CheckpointProtocol::handle_reconnect(const net::MobileHost&, net::MssId) {}

const CheckpointRecord& CheckpointProtocol::take_checkpoint(const net::MobileHost& host,
                                                            CheckpointKind kind, u64 sn,
                                                            obs::ForcedRule rule,
                                                            net::MsgId trigger_msg) {
  return take_checkpoint(host, kind, sn, {}, 0, false, rule, trigger_msg);
}

const CheckpointRecord& CheckpointProtocol::take_checkpoint(const net::MobileHost& host,
                                                            CheckpointKind kind, u64 sn,
                                                            std::span<const DepEntry> deps,
                                                            u32 rank, bool replaced,
                                                            obs::ForcedRule rule,
                                                            net::MsgId trigger_msg) {
  CheckpointRecord rec;
  rec.host = host.id();
  rec.sn = sn;
  rec.kind = kind;
  rec.time = ctx_.now();
  rec.location = host.mss();
  rec.event_pos = host.event_pos();
  rec.replaced_predecessor = replaced;
  if (ctx_.storage != nullptr) {
    rec.bytes = ctx_.storage->record_checkpoint(host.id(), host.mss(), ctx_.now());
  }
  if (ctx_.data_plane != nullptr) {
    const u64 priced =
        ctx_.data_plane->on_checkpoint(host.id(), host.mss(), ctx_.now(), static_cast<u8>(kind));
    if (rec.bytes == 0) rec.bytes = priced;
  }
  const CheckpointRecord& stored = ctx_.log->append(rec, deps, rank);
  if (ctx_.sink != nullptr) {
    const auto tk = kind == CheckpointKind::kForced ? des::TraceKind::kForcedCheckpoint
                                                    : des::TraceKind::kBasicCheckpoint;
    ctx_.sink->record(des::TraceRecord{ctx_.now(), host.id(), tk, stored.sn, stored.ordinal});
  }
  if (ctx_.timeline != nullptr) {
    obs::ProbeEvent e;
    e.t = ctx_.now();
    e.kind = obs::ProbeKind::kCheckpoint;
    e.ckpt_kind = static_cast<obs::CkptKind>(kind);  // value-identical enums
    e.rule = rule;
    e.replaced = replaced;
    e.actor = static_cast<i32>(host.id());
    e.track = ctx_.slot;
    e.a = sn;
    e.b = trigger_msg;
    ctx_.timeline->record(e);
  }
  return stored;
}

}  // namespace mobichk::core
