#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace mobichk::net {

void NetworkConfig::validate() const {
  if (n_hosts < 2) throw std::invalid_argument("NetworkConfig: need at least 2 hosts");
  if (n_mss < 1) throw std::invalid_argument("NetworkConfig: need at least 1 MSS");
  if (wireless_latency < 0.0 || wired_latency < 0.0) {
    throw std::invalid_argument("NetworkConfig: negative latency");
  }
  if (duplicate_prob < 0.0 || duplicate_prob >= 1.0) {
    throw std::invalid_argument("NetworkConfig: duplicate_prob must be in [0, 1)");
  }
  if (wireless_bandwidth < 0.0) {
    throw std::invalid_argument("NetworkConfig: negative wireless bandwidth");
  }
}

Network::Network(des::Simulator& sim, NetworkConfig cfg, u64 seed, des::TraceSink* sink)
    : sim_(sim),
      cfg_(cfg),
      sink_(sink != nullptr ? sink : &null_sink_),
      channel_rng_(seed, "net.channel"),
      topology_(cfg.mss_topology, cfg.n_mss) {
  cfg_.validate();
  arena_.init(cfg_.n_hosts);  // Before the MSSs: they buffer through the arena.
  mss_.reserve(cfg_.n_mss);
  for (MssId m = 0; m < cfg_.n_mss; ++m) mss_.emplace_back(m, &arena_);
  channels_.resize(cfg_.n_mss);
  directory_.init(cfg_.n_hosts, cfg_.n_mss);
  hosts_.reserve(cfg_.n_hosts);
  for (HostId h = 0; h < cfg_.n_hosts; ++h) {
    hosts_.emplace_back(&arena_, h);
    set_mss(h, static_cast<MssId>(h % cfg_.n_mss));
  }
}

void Network::start() {
  std::vector<MssId> placement(cfg_.n_hosts);
  for (HostId h = 0; h < cfg_.n_hosts; ++h) placement[h] = static_cast<MssId>(h % cfg_.n_mss);
  start(placement);
}

void Network::start(const std::vector<MssId>& placement) {
  if (started_) throw std::logic_error("Network::start called twice");
  if (placement.size() != cfg_.n_hosts) {
    throw std::invalid_argument("Network::start: placement size mismatch");
  }
  if (handler_ == nullptr) throw std::logic_error("Network::start: no handler installed");
  for (HostId h = 0; h < cfg_.n_hosts; ++h) {
    if (placement[h] >= cfg_.n_mss) throw std::invalid_argument("Network::start: bad MSS id");
    set_mss(h, placement[h]);
  }
  started_ = true;
  for (auto& host : hosts_) handler_->on_host_init(host);
}

Network::Pool& Network::cur_pool() {
  if (des::ShardContext* c = des::current_shard()) return slices_[c->shard].pool;
  return pool_;
}

u32 Network::park(Pool& pool, AppMessage msg) {
  u32 idx;
  if (!pool.free.empty()) {
    idx = pool.free.back();
    pool.free.pop_back();
    pool.parked[idx] = std::move(msg);
  } else {
    idx = static_cast<u32>(pool.parked.size());
    pool.parked.push_back(std::move(msg));
  }
  return idx;
}

AppMessage Network::unpark(u32 idx) {
  Pool& pool = cur_pool();
  AppMessage msg = std::move(pool.parked[idx]);
  pool.free.push_back(idx);
  return msg;
}

AppMessage Network::take_spare(Pool& pool) {
  if (pool.spare.empty()) return {};
  AppMessage msg = std::move(pool.spare.back());
  pool.spare.pop_back();
  return msg;
}

void Network::recycle(AppMessage&& msg) {
  Pool& pool = cur_pool();
  if (pool.spare.size() < kMaxSpares) pool.spare.push_back(std::move(msg));
}

des::EventPayload Network::hop_payload(u8 sub, MssId at, u32 park_idx, bool flag) noexcept {
  des::EventPayload p;
  p.target = this;
  p.kind = des::EventKind::kMessageHop;
  p.sub = sub;
  p.flags = flag ? 1 : 0;
  p.a = at;
  p.b = park_idx;
  return p;
}

void Network::on_event(const des::EventPayload& p) {
  // Host-time attribution: the whole leg handling counts as net.leg on
  // the executing lane (nested inside the kernel's dispatch.message_hop).
  obs::ProfScope prof_leg(prof_ != nullptr ? &prof_->lane().net_leg : nullptr);
  const MssId at = static_cast<MssId>(p.a);
  const u32 park_idx = static_cast<u32>(p.b);
  switch (p.sub) {
    case kSubUplink:
      // Location search: modeled as extra wired hops before forwarding.
      if (cfg_.location_search_hops > 0) {
        st().wired_hops += cfg_.location_search_hops;
        if (probe_ != nullptr) probe_->wired_hops->add(cfg_.location_search_hops);
        const f64 delay = cfg_.wired_latency * static_cast<f64>(cfg_.location_search_hops);
        // The message stays parked (same pool) across the search leg; the
        // follow-up leg stays on the executing queue.
        des::ShardContext* c = des::current_shard();
        (c != nullptr ? *c->sim : sim_)
            .schedule_after(delay, hop_payload(kSubRouted, at, park_idx, /*targeted=*/false));
      } else {
        msg_at_mss(at, unpark(park_idx), /*targeted=*/false);
      }
      break;
    case kSubRouted:
      msg_at_mss(at, unpark(park_idx), /*targeted=*/(p.flags & 1) != 0);
      break;
    case kSubDeliver:
      deliver_to_host(at, unpark(park_idx), /*is_duplicate=*/(p.flags & 1) != 0);
      break;
    default:
      assert(false && "unknown kMessageHop sub-kind");
  }
}

f64 Network::wireless_delay(MssId cell, usize bytes) {
  if (cfg_.wireless_bandwidth <= 0.0) return cfg_.wireless_latency;
  const f64 service =
      cfg_.wireless_latency + static_cast<f64>(bytes) / cfg_.wireless_bandwidth;
  return channels_.at(cell).reserve(sim_.now(), service) - sim_.now();
}

void Network::wired_forward(MssId from, MssId to, AppMessage msg) {
  const u32 hops = topology_.hops(from, to);
  st().wired_hops += hops;
  if (probe_ != nullptr) probe_->wired_hops->add(hops);
  schedule_hop(cfg_.wired_latency * static_cast<f64>(hops), kSubRouted, to,
               /*flag=*/true, std::move(msg));
}

void Network::schedule_hop(f64 delay, u8 sub, MssId at, bool flag, AppMessage msg) {
  if (sharded_ == nullptr) {
    sim_.schedule_after(delay, hop_payload(sub, at, park(pool_, std::move(msg)), flag));
    return;
  }
  const u32 dst_shard = owner_shard_[msg.dst];
  if (des::ShardContext* c = des::current_shard()) {
    assert(dst_shard == c->shard && "non-send legs are destination-local");
    const u32 idx = park(slices_[c->shard].pool, std::move(msg));
    c->sim->schedule_after(delay, hop_payload(sub, at, idx, flag));
  } else {
    // Coordinator phase (restore-time redelivery): the shards are parked,
    // so injecting straight into the owner's pool and queue is safe.
    const u32 idx = park(slices_[dst_shard].pool, std::move(msg));
    sharded_->shard_sim(dst_shard).schedule_at(sim_.now() + delay, hop_payload(sub, at, idx, flag));
  }
}

void Network::occupy_control(MssId cell) {
  if (cfg_.wireless_bandwidth <= 0.0) return;
  const f64 service = cfg_.wireless_latency +
                      static_cast<f64>(cfg_.control_message_bytes) / cfg_.wireless_bandwidth;
  channels_.at(cell).reserve(sim_.now(), service);
}

void Network::trace(des::TraceKind kind, u32 actor, u64 a, u64 b) {
  sink_->record(des::TraceRecord{cur_now(), actor, kind, a, b});
}

void Network::internal_event(HostId host_id) { internal_events(host_id, 1); }

void Network::internal_events(HostId host_id, u64 count) {
  if (count == 0) return;
  MobileHost& h = hosts_.at(host_id);
  for (u64 i = 0; i < count; ++i) h.advance_pos();
  trace(des::TraceKind::kInternalEvent, host_id, h.event_pos(), count);
}

void Network::send_app_message(HostId src, HostId dst, u32 payload_bytes) {
  MobileHost& s = hosts_.at(src);
  assert(s.connected() && "disconnected hosts cannot send");
  assert(dst < cfg_.n_hosts && dst != src);

  AppMessage msg = take_spare(cur_pool());
  des::ShardContext* shard = des::current_shard();
  if (shard != nullptr) {
    // Window-time send: the global id is assigned at the next barrier in
    // merged (time, shard) order — the order the sequential engine would
    // have executed these sends in — and patched everywhere it was
    // recorded. Until then the message carries a provisional id.
    ShardSlice& sl = slices_[shard->shard];
    msg.id = WindowIdMap::provisional(shard->shard, sl.next_provisional++);
  } else {
    msg.id = next_msg_id_++;
  }
  msg.src = src;
  msg.dst = dst;
  msg.payload_bytes = payload_bytes;
  msg.sent_at = cur_now();
  msg.send_pos = 0;
  // The handler runs while event_pos() still names the last event *before*
  // this send, so a protocol that checkpoints on send produces a cut that
  // excludes the send. The send event then takes the next position.
  handler_->on_send(s, msg);
  msg.send_pos = s.advance_pos();
  observe_message(obs::ProbeKind::kSend, msg, src, dst);

  if (shard != nullptr) {
    // The kSend record emitted next is the patch site for the final id.
    slices_[shard->shard].sends.push_back(
        SendReg{msg.sent_at, msg.id, mux_->buffered(shard->shard)});
  }
  trace(des::TraceKind::kSend, src, msg.id, dst);
  NetworkStats& ns = st();
  ++ns.app_sent;
  ++ns.wireless_messages;  // MH -> MSS uplink.
  ns.payload_bytes += payload_bytes;
  ns.piggyback_bytes += msg.pb.wire_bytes();
  ns.piggyback_dense_bytes += msg.pb.dense_bytes();
  if (probe_ != nullptr) {
    probe_->uplink_legs->add();
    probe_->payload_bytes->add(payload_bytes);
    probe_->piggyback_bytes->add(msg.pb.wire_bytes());
    probe_->piggyback_dense_bytes->add(msg.pb.dense_bytes());
  }

  const MssId src_mss = s.mss();
  const f64 uplink = wireless_delay(src_mss, msg.wire_bytes());
  if (sharded_ == nullptr) {
    sim_.schedule_after(uplink,
                        hop_payload(kSubUplink, src_mss, park(pool_, std::move(msg)), false));
  } else if (shard != nullptr) {
    // The uplink leg (like every later leg) executes on the owner shard
    // of the *destination*, so all per-host routing state it reads is
    // owner-local. Same-shard legs go straight into the local queue; the
    // cross-shard case is the one egress channel in the system.
    const u32 dst_shard = owner_shard_[dst];
    ShardSlice& sl = slices_[shard->shard];
    if (dst_shard == shard->shard) {
      const u32 idx = park(sl.pool, std::move(msg));
      sl.provisional_parked.push_back(idx);
      shard->sim->schedule_after(uplink, hop_payload(kSubUplink, src_mss, idx, false));
    } else {
      sl.egress[dst_shard].push_back(
          EgressLeg{shard->sim->now() + uplink, src_mss, kSubUplink, false, std::move(msg)});
    }
  } else {
    // Coordinator-side send in a sharded run (not produced by the stock
    // drivers, kept correct): the id is already final and the shards are
    // parked, so inject into the owner's pool and queue directly.
    const u32 dst_shard = owner_shard_[dst];
    const u32 idx = park(slices_[dst_shard].pool, std::move(msg));
    sharded_->shard_sim(dst_shard).schedule_at(sim_.now() + uplink,
                                               hop_payload(kSubUplink, src_mss, idx, false));
  }
}

void Network::msg_at_mss(MssId at, AppMessage msg, bool targeted) {
  mss_.at(at).note_routed();
  MobileHost& d = hosts_.at(msg.dst);
  if (!d.connected()) {
    if (d.mss() == at) {
      mss_.at(at).buffer_message(msg.dst, std::move(msg));
    } else {
      // Forward to the destination's last MSS, which buffers.
      wired_forward(at, d.mss(), std::move(msg));
    }
    return;
  }
  if (d.mss() != at) {
    // We expected the destination here and it moved: that is a chase.
    // From the source's own MSS it is just the normal routing hop.
    if (targeted) ++st().chase_forwards;
    wired_forward(at, d.mss(), std::move(msg));
    return;
  }
  // Destination is attached here: wireless downlink.
  ++st().wireless_messages;
  if (probe_ != nullptr) probe_->downlink_legs->add();
  const f64 downlink = wireless_delay(at, msg.wire_bytes());
  schedule_hop(downlink, kSubDeliver, at, /*flag=*/false, std::move(msg));
}

void Network::deliver_to_host(MssId from_mss, AppMessage msg, bool is_duplicate) {
  MobileHost& d = hosts_.at(msg.dst);
  if (!d.connected()) {
    // Disconnected during the wireless leg: the MSS retains the message.
    mss_.at(from_mss).buffer_message(msg.dst, std::move(msg));
    return;
  }
  if (d.mss() != from_mss) {
    // Moved during the wireless leg: the old MSS re-routes.
    ++st().chase_forwards;
    wired_forward(from_mss, d.mss(), std::move(msg));
    return;
  }
  // At-least-once transport: the delivery may be duplicated. (Duplication
  // is gated off in sharded mode — the shared channel RNG would order-
  // couple shards — so this branch is sequential-only.)
  if (!is_duplicate && cfg_.duplicate_prob > 0.0 &&
      des::bernoulli(channel_rng_, cfg_.duplicate_prob)) {
    ++stats_.duplicates_generated;
    ++stats_.wireless_messages;
    if (probe_ != nullptr) probe_->downlink_legs->add();
    AppMessage copy = take_spare(pool_);
    copy = msg;  // a full copy, into a spare's buffers
    const f64 redelivery = wireless_delay(from_mss, copy.wire_bytes());
    sim_.schedule_after(redelivery, hop_payload(kSubDeliver, from_mss, park(pool_, std::move(copy)),
                                                /*is_duplicate=*/true));
  }
  if (cfg_.duplicate_prob > 0.0 && cfg_.transport_dedup) {
    if (!arena_.seen_ids[msg.dst].insert(msg.id).second) {
      ++stats_.duplicates_suppressed;
      recycle(std::move(msg));
      return;
    }
  }
  trace(des::TraceKind::kDeliver, msg.dst, msg.id, msg.src);
  ++st().app_delivered;
  const f64 latency = cur_now() - msg.sent_at;
  if (des::ShardContext* c = des::current_shard()) {
    // Welford insertion is order-sensitive; journal now, replay into the
    // Tally in global time order at the end of the run.
    slices_[c->shard].latency.emplace_back(cur_now(), latency);
  } else {
    stats_.delivery_latency.add(latency);
  }
  if (probe_ != nullptr) probe_->delivery_latency->add(latency);
  d.mailbox().push(std::move(msg));
}

bool Network::consume_one(HostId host_id) {
  MobileHost& h = hosts_.at(host_id);
  if (h.mailbox().empty()) return false;
  AppMessage msg = h.mailbox().pop();
  // The protocol reacts (and possibly checkpoints) *before* the receive
  // event occupies its position, so a forced checkpoint excludes the
  // message being processed (no orphan by construction).
  handler_->on_receive(h, msg);
  h.advance_pos();
  // After on_receive: any forced-checkpoint probe event precedes the
  // deliver event, so online trackers see the cut the protocol built.
  observe_message(obs::ProbeKind::kDeliver, msg, host_id, msg.src);
  trace(des::TraceKind::kReceive, host_id, msg.id, msg.src);
  ++st().app_received;
  recycle(std::move(msg));
  return true;
}

void Network::switch_cell(HostId host_id, MssId new_mss) {
  MobileHost& h = hosts_.at(host_id);
  assert(h.connected() && "cannot hand off a disconnected host");
  assert(new_mss < cfg_.n_mss && new_mss != h.mss());
  const MssId old_mss = h.mss();
  // Handoff protocol: one message to the MSS being left, one to the new
  // current MSS (paper §5.1).
  NetworkStats& ns = st();
  ns.control_messages += 2;
  ns.wireless_messages += 2;
  ++ns.handoffs;
  if (probe_ != nullptr) probe_->handoffs->add();
  observe_mobility(obs::ProbeKind::kHandoff, host_id, static_cast<i32>(new_mss));
  occupy_control(old_mss);
  occupy_control(new_mss);
  set_mss(host_id, new_mss);
  trace(des::TraceKind::kHandoff, host_id, old_mss, new_mss);
  handler_->on_cell_switch(h, old_mss, new_mss);
}

void Network::disconnect(HostId host_id) {
  MobileHost& h = hosts_.at(host_id);
  assert(h.connected() && "already disconnected");
  // Disconnection protocol: one message to the current MSS (paper §5.1).
  NetworkStats& ns = st();
  ns.control_messages += 1;
  ns.wireless_messages += 1;
  ++ns.disconnects;
  if (probe_ != nullptr) probe_->disconnects->add();
  observe_mobility(obs::ProbeKind::kDisconnect, host_id, -1);
  occupy_control(h.mss());
  trace(des::TraceKind::kDisconnect, host_id, h.mss());
  // The basic checkpoint is taken while still attached.
  handler_->on_disconnect(h);
  arena_.connected[host_id] = 0;
}

void Network::reconnect(HostId host_id, MssId new_mss) {
  MobileHost& h = hosts_.at(host_id);
  assert(!h.connected() && "already connected");
  assert(new_mss < cfg_.n_mss);
  const MssId last_mss = h.mss();
  NetworkStats& ns = st();
  ns.control_messages += 1;
  ns.wireless_messages += 1;
  ++ns.reconnects;
  if (probe_ != nullptr) probe_->reconnects->add();
  observe_mobility(obs::ProbeKind::kReconnect, host_id, static_cast<i32>(new_mss));
  occupy_control(new_mss);
  arena_.connected[host_id] = 1;
  set_mss(host_id, new_mss);
  trace(des::TraceKind::kReconnect, host_id, last_mss, new_mss);
  handler_->on_reconnect(h, new_mss);
  // Messages that waited out the disconnection now flow to the new cell.
  auto pending = mss_.at(last_mss).drain_buffer(host_id);
  st().buffered_deliveries += pending.size();
  for (auto& msg : pending) {
    msg_at_mss(last_mss, std::move(msg), /*targeted=*/false);
  }
}

void Network::crash(HostId host_id) {
  MobileHost& h = hosts_.at(host_id);
  assert(h.connected() && "cannot crash a disconnected host");
  // A failure is unannounced: no control message, no upcall — the host
  // gets no chance to checkpoint (contrast disconnect()).
  ++st().crashes;
  if (probe_ != nullptr) probe_->crashes->add();
  observe_mobility(obs::ProbeKind::kCrash, host_id, -1);
  trace(des::TraceKind::kCrash, host_id, h.mss(), h.mailbox_size());
  arena_.connected[host_id] = 0;
  // Volatile state dies with the host. Messages delivered but not yet
  // consumed were already counted received by the MSS's stable log; park
  // them back in the cell buffer so replay re-delivers them.
  Mss& cell = mss_.at(h.mss());
  h.mailbox().drain(
      [&cell, host_id](AppMessage&& msg) { cell.buffer_message(host_id, std::move(msg)); });
  arena_.seen_ids[host_id].clear();
}

void Network::enable_sharding(des::ShardedSimulator* sharded, des::ShardTraceMux* mux) {
  if (sharded == nullptr || mux == nullptr) {
    throw std::invalid_argument("enable_sharding: null coordinator or trace mux");
  }
  if (cfg_.duplicate_prob > 0.0) {
    throw std::invalid_argument(
        "enable_sharding: duplication is sequential-only (shared channel RNG)");
  }
  if (cfg_.wireless_bandwidth > 0.0) {
    throw std::invalid_argument(
        "enable_sharding: bandwidth-limited channels are sequential-only (shared FIFO)");
  }
  if (cfg_.wireless_latency <= 0.0 || cfg_.wired_latency <= 0.0) {
    throw std::invalid_argument(
        "enable_sharding: conservative sync needs strictly positive leg latencies");
  }
  if (probe_ != nullptr || timeline_ != nullptr) {
    throw std::invalid_argument("enable_sharding: observability hooks are sequential-only");
  }
  const u32 n_shards = sharded->n_shards();
  if (n_shards > cfg_.n_mss) {
    throw std::invalid_argument("enable_sharding: more shards than cells");
  }
  sharded_ = sharded;
  mux_ = mux;
  // Static ownership: contiguous cell blocks of the current placement.
  // Cell c belongs to shard c * S / n_mss; a host never migrates owners,
  // whatever cells it later visits.
  owner_shard_.assign(cfg_.n_hosts, 0);
  for (HostId h = 0; h < cfg_.n_hosts; ++h) {
    owner_shard_[h] =
        static_cast<u32>(static_cast<u64>(arena_.mss[h]) * n_shards / cfg_.n_mss);
  }
  sharded_->set_owner_map(owner_shard_);
  slices_.clear();
  slices_.resize(n_shards);
  for (auto& sl : slices_) sl.egress.resize(n_shards);
}

u64 WindowIdMap::at(u64 provisional_id) const {
  const u64 shard = (provisional_id & ~kProvisionalBit) >> kShardShift;
  if ((provisional_id & kProvisionalBit) != 0 && shard < shards_.size()) {
    const Shard& s = shards_[shard];
    const u64 counter = provisional_id & kCounterMask;
    if (counter >= s.first && counter - s.first < s.final_ids.size()) {
      return s.final_ids[counter - s.first];
    }
  }
  throw std::out_of_range("WindowIdMap: not a provisional id of this window");
}

const WindowIdMap& Network::merge_window() {
  const u32 n = static_cast<u32>(slices_.size());
  window_ids_.shards_.resize(n);
  for (u32 s = 0; s < n; ++s) {
    WindowIdMap::Shard& ws = window_ids_.shards_[s];
    ws.final_ids.clear();
    const auto& sends = slices_[s].sends;
    ws.first = sends.empty() ? 0 : sends.front().provisional & WindowIdMap::kCounterMask;
  }
  // 1. Final message ids, assigned in merged (time, shard) order — the
  //    order the sequential engine executed these sends in (cross-shard
  //    equal-time ties have measure zero; the shard index breaks them
  //    deterministically). Each kSend trace record is patched in place
  //    before the mux flush hashes it.
  std::vector<usize> head(n, 0);
  for (;;) {
    u32 best = n;
    for (u32 s = 0; s < n; ++s) {
      if (head[s] >= slices_[s].sends.size()) continue;
      if (best == n || slices_[s].sends[head[s]].t < slices_[best].sends[head[best]].t) best = s;
    }
    if (best == n) break;
    const SendReg& reg = slices_[best].sends[head[best]++];
    const u64 final_id = next_msg_id_++;
    // A shard's sends merge in its own send order, so this is index
    // counter - first of its vector.
    window_ids_.shards_[best].final_ids.push_back(final_id);
    mux_->patch_a(best, reg.trace_idx, final_id);
  }
  for (auto& sl : slices_) sl.sends.clear();
  // 2. Same-shard uplink legs still in flight carry provisional ids.
  for (auto& sl : slices_) {
    for (const u32 idx : sl.provisional_parked) {
      AppMessage& m = sl.pool.parked[idx];
      m.id = window_ids_.at(m.id);
    }
    sl.provisional_parked.clear();
  }
  // 3. Cross-shard legs: patch ids, then hand each to its owner shard in
  //    (time, source shard) order. Every leg's arrival time is at or past
  //    the window horizon (delay >= lookahead), so the owner's clock has
  //    not passed it.
  for (u32 dst = 0; dst < n; ++dst) {
    std::fill(head.begin(), head.end(), usize{0});
    for (;;) {
      u32 best = n;
      for (u32 s = 0; s < n; ++s) {
        const auto& eg = slices_[s].egress[dst];
        if (head[s] >= eg.size()) continue;
        if (best == n || eg[head[s]].t < slices_[best].egress[dst][head[best]].t) best = s;
      }
      if (best == n) break;
      EgressLeg& leg = slices_[best].egress[dst][head[best]++];
      if ((leg.msg.id & WindowIdMap::kProvisionalBit) != 0) {
        leg.msg.id = window_ids_.at(leg.msg.id);
      }
      const u32 idx = park(slices_[dst].pool, std::move(leg.msg));
      sharded_->shard_sim(dst).schedule_at(leg.t, hop_payload(leg.sub, leg.at, idx, leg.flag));
    }
    for (u32 s = 0; s < n; ++s) slices_[s].egress[dst].clear();
  }
  // 4. Journaled directory moves (per-host order is per-shard order;
  //    cross-shard entries touch disjoint hosts).
  for (auto& sl : slices_) {
    for (const auto& [host, cell] : sl.dir_moves) directory_.move(host, cell);
    sl.dir_moves.clear();
  }
  // 5. Publish this window's trace records downstream, time-merged.
  mux_->flush();
  return window_ids_;
}

void Network::finalize_sharding() {
  for (auto& sl : slices_) {
    const NetworkStats& s = sl.stats;
    stats_.app_sent += s.app_sent;
    stats_.app_delivered += s.app_delivered;
    stats_.app_received += s.app_received;
    stats_.control_messages += s.control_messages;
    stats_.wireless_messages += s.wireless_messages;
    stats_.wired_hops += s.wired_hops;
    stats_.handoffs += s.handoffs;
    stats_.disconnects += s.disconnects;
    stats_.reconnects += s.reconnects;
    stats_.crashes += s.crashes;
    stats_.restores += s.restores;
    stats_.chase_forwards += s.chase_forwards;
    stats_.buffered_deliveries += s.buffered_deliveries;
    stats_.duplicates_generated += s.duplicates_generated;
    stats_.duplicates_suppressed += s.duplicates_suppressed;
    stats_.payload_bytes += s.payload_bytes;
    stats_.piggyback_bytes += s.piggyback_bytes;
    stats_.piggyback_dense_bytes += s.piggyback_dense_bytes;
    sl.stats = NetworkStats{};
  }
  // Delivery latencies replay into the Tally in merged (time, shard)
  // order — the sequential insertion order, so mean/variance are
  // bit-identical, not just permutation-equal.
  const u32 n = static_cast<u32>(slices_.size());
  std::vector<usize> head(n, 0);
  for (;;) {
    u32 best = n;
    for (u32 s = 0; s < n; ++s) {
      if (head[s] >= slices_[s].latency.size()) continue;
      if (best == n ||
          slices_[s].latency[head[s]].first < slices_[best].latency[head[best]].first) {
        best = s;
      }
    }
    if (best == n) break;
    stats_.delivery_latency.add(slices_[best].latency[head[best]++].second);
  }
  for (auto& sl : slices_) sl.latency.clear();
}

void Network::restore(HostId host_id, MssId at_mss) {
  MobileHost& h = hosts_.at(host_id);
  assert(!h.connected() && "cannot restore a live host");
  assert(at_mss < cfg_.n_mss);
  const MssId last_mss = h.mss();
  // The rejoin itself looks like a reconnection to the substrate: one
  // control message announcing the restored host to its MSS.
  NetworkStats& ns = st();
  ns.control_messages += 1;
  ns.wireless_messages += 1;
  ++ns.restores;
  if (probe_ != nullptr) probe_->restores->add();
  observe_mobility(obs::ProbeKind::kRecover, host_id, static_cast<i32>(at_mss));
  occupy_control(at_mss);
  arena_.connected[host_id] = 1;
  set_mss(host_id, at_mss);
  trace(des::TraceKind::kRecover, host_id, last_mss, at_mss);
  handler_->on_reconnect(h, at_mss);
  // Messages buffered during the outage (including the crash-parked
  // mailbox) flow to the restored host.
  auto pending = mss_.at(last_mss).drain_buffer(host_id);
  st().buffered_deliveries += pending.size();
  for (auto& msg : pending) {
    msg_at_mss(last_mss, std::move(msg), /*targeted=*/false);
  }
}

}  // namespace mobichk::net
