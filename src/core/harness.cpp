#include "core/harness.hpp"

#include <stdexcept>

#include "storage/data_plane.hpp"

namespace mobichk::core {

namespace {

/// Per-slot handler accumulator on `lane` (null lane == no-op scope);
/// slots past the lane's capacity fold into the last bucket.
obs::PhaseAccum* slot_acc(obs::ProfLane* lane, usize k) {
  if (lane == nullptr) return nullptr;
  return &lane->proto[k < obs::ProfLane::kMaxProtoSlots ? k : obs::ProfLane::kMaxProtoSlots - 1];
}

/// Protocol slot `k`'s piggyback on `msg`: slot 0's is the one on the
/// wire, the others ride in observer_pbs.
template <typename Msg>
auto& slot_pb(Msg& msg, usize k) {
  return k == 0 ? msg.pb : msg.observer_pbs[k - 1];
}

}  // namespace

ProtocolHarness::ProtocolHarness(net::Network& net, des::TraceSink* sink)
    : net_(net), sink_(sink) {
  net_.set_handler(this);
}

usize ProtocolHarness::add_protocol(std::unique_ptr<CheckpointProtocol> protocol,
                                    const StorageConfig* storage) {
  if (protocol == nullptr) throw std::invalid_argument("add_protocol: null protocol");
  auto slot = std::make_unique<Slot>(
      Slot{std::move(protocol), CheckpointLog(net_.n_hosts()), nullptr, 0});
  if (storage != nullptr) {
    slot->storage = std::make_unique<StorageModel>(net_.n_hosts(), net_.n_mss(), *storage);
  }
  slots_.push_back(std::move(slot));
  Slot& stored = *slots_.back();
  ProtocolContext ctx;
  ctx.n_hosts = net_.n_hosts();
  ctx.sim = &net_.sim();
  ctx.net = &net_;
  ctx.log = &stored.log;
  ctx.storage = stored.storage.get();
  // Only the physical run (slot 0) drives the data plane; paired
  // observer slots would double-count bytes that never hit a wire.
  ctx.data_plane = slots_.size() == 1 ? data_plane_ : nullptr;
  ctx.sink = sink_;
  ctx.timeline = timeline_;
  ctx.slot = static_cast<i32>(slots_.size()) - 1;
  stored.protocol->bind(ctx);
  return slots_.size() - 1;
}

std::vector<u64> ProtocolHarness::current_positions() const {
  std::vector<u64> pos(net_.n_hosts());
  for (net::HostId h = 0; h < net_.n_hosts(); ++h) pos[h] = net_.host(h).event_pos();
  return pos;
}

void ProtocolHarness::on_host_init(net::MobileHost& host) {
  for (auto& slot : slots_) slot->protocol->host_init(host);
}

void ProtocolHarness::enable_sharding(u32 n_shards) {
  slices_.clear();
  slices_.resize(n_shards);
  for (auto& sl : slices_) {
    sl.pb_bytes.assign(slots_.size(), 0);
    sl.pb_dense_bytes.assign(slots_.size(), 0);
  }
}

void ProtocolHarness::merge_window(const net::WindowIdMap& idmap) {
  // Sends first (the log is indexed by id, so order does not matter),
  // translated to final ids. Every journaled send was made inside a
  // window and so carries a provisional id the network has just mapped;
  // at() throws on anything else rather than let a provisional id index
  // the log.
  for (auto& sl : slices_) {
    for (const SendRec& s : sl.sends) {
      msg_log_.note_send(idmap.at(s.id), s.src, s.dst, s.pos);
    }
    sl.sends.clear();
  }
  // Deliveries in merged (time, shard) order — the sequential append
  // order the rollback machinery scans. Ids seen at receive time are
  // already final: the send merged at least one barrier earlier.
  const u32 n = static_cast<u32>(slices_.size());
  std::vector<usize> head(n, 0);
  for (;;) {
    u32 best = n;
    for (u32 s = 0; s < n; ++s) {
      if (head[s] >= slices_[s].recvs.size()) continue;
      if (best == n || slices_[s].recvs[head[s]].t < slices_[best].recvs[head[best]].t) best = s;
    }
    if (best == n) break;
    const RecvRec& r = slices_[best].recvs[head[best]++];
    msg_log_.note_receive(r.id, r.pos, r.sn);
  }
  for (auto& sl : slices_) sl.recvs.clear();
}

void ProtocolHarness::finalize_sharding() {
  for (auto& sl : slices_) {
    for (usize k = 0; k < slots_.size(); ++k) {
      slots_[k]->pb_bytes += sl.pb_bytes[k];
      slots_[k]->pb_dense_bytes += sl.pb_dense_bytes[k];
      sl.pb_bytes[k] = 0;
      sl.pb_dense_bytes[k] = 0;
    }
  }
}

void ProtocolHarness::on_send(net::MobileHost& host, net::AppMessage& msg) {
  obs::ProfLane* plane = prof_ != nullptr ? &prof_->lane() : nullptr;
  obs::ProfScope prof_enc(plane != nullptr ? &plane->pb_encode : nullptr);
  // Inside a shard window the byte counters and the MessageLog update go
  // to the executing shard's slice; otherwise (sequential runs, and the
  // coordinator phase of sharded ones) they apply directly.
  des::ShardContext* c = des::current_shard();
  // A recycled message already holds its observer slots; each slot's
  // piggyback is reset (keeping its vectors' capacity) and re-encoded.
  msg.observer_pbs.resize(slots_.empty() ? 0 : slots_.size() - 1);
  for (usize k = 0; k < slots_.size(); ++k) {
    obs::ProfScope prof_slot(slot_acc(plane, k));
    net::Piggyback& pb = slot_pb(msg, k);
    pb.reset();
    slots_[k]->protocol->make_piggyback(host, msg.dst, pb);
    u64& bytes = c != nullptr ? slices_[c->shard].pb_bytes[k] : slots_[k]->pb_bytes;
    u64& dense = c != nullptr ? slices_[c->shard].pb_dense_bytes[k] : slots_[k]->pb_dense_bytes;
    bytes += pb.wire_bytes();
    dense += pb.dense_bytes();
  }
  // The send event will occupy the next position (see Network::send_app_message).
  if (c != nullptr) {
    slices_[c->shard].sends.push_back(SendRec{msg.id, msg.src, msg.dst, host.event_pos() + 1});
  } else {
    msg_log_.note_send(msg.id, msg.src, msg.dst, host.event_pos() + 1);
  }
}

void ProtocolHarness::on_receive(net::MobileHost& host, const net::AppMessage& msg) {
  obs::ProfLane* plane = prof_ != nullptr ? &prof_->lane() : nullptr;
  obs::ProfScope prof_merge(plane != nullptr ? &plane->pb_merge : nullptr);
  for (usize k = 0; k < slots_.size(); ++k) {
    obs::ProfScope prof_slot(slot_acc(plane, k));
    slots_[k]->protocol->handle_receive(host, msg, slot_pb(msg, k));
  }
  // The receive event will occupy the next position (see Network::consume_one).
  if (des::ShardContext* c = des::current_shard()) {
    slices_[c->shard].recvs.push_back(
        RecvRec{c->sim->now(), msg.id, host.event_pos() + 1, msg.pb.sn});
  } else {
    msg_log_.note_receive(msg.id, host.event_pos() + 1, msg.pb.sn);
  }
}

void ProtocolHarness::on_cell_switch(net::MobileHost& host, net::MssId from, net::MssId to) {
  if (data_plane_ != nullptr) {
    // Before the protocols' basic checkpoints, so a migration at the same
    // timestamp is processed first and the new checkpoint samples
    // locality against the post-migration placement.
    des::ShardContext* c = des::current_shard();
    data_plane_->on_handoff(host.id(), from, to, c != nullptr ? c->sim->now() : net_.sim().now());
  }
  for (auto& slot : slots_) slot->protocol->handle_cell_switch(host, from, to);
}

void ProtocolHarness::on_disconnect(net::MobileHost& host) {
  for (auto& slot : slots_) slot->protocol->handle_disconnect(host);
}

void ProtocolHarness::on_reconnect(net::MobileHost& host, net::MssId mss) {
  for (auto& slot : slots_) slot->protocol->handle_reconnect(host, mss);
}

}  // namespace mobichk::core
