#include "core/protocols/tp.hpp"

#include <algorithm>

namespace mobichk::core {

namespace {

/// Find-or-insert keyed lookup in a small sorted vector (flat map).
template <typename T, typename Key>
T& flat_map_get(std::vector<T>& v, Key T::* key, Key k) {
  const auto it = std::lower_bound(v.begin(), v.end(), k,
                                   [key](const T& e, Key x) { return e.*key < x; });
  if (it != v.end() && (*it).*key == k) return *it;
  T fresh{};
  fresh.*key = k;
  return *v.insert(it, fresh);
}

}  // namespace

void TpProtocol::do_bind() {
  // One dependency scratch per lane: lane 0 serves the sequential engine
  // and the coordinator, lane 1+s shard s.
  const des::ShardedSimulator* sharded = ctx_.sim->sharded();
  dep_scratch_.assign(1 + (sharded != nullptr ? sharded->n_shards() : 0), {});
  phase_send_.assign(ctx_.n_hosts, 0);
  ckpt_count_.assign(ctx_.n_hosts, 0);
  if (encoding_ == TpEncoding::kDense) {
    // Flat n*n arenas: two allocations total, not 2n heap vectors.
    req_.assign(static_cast<usize>(ctx_.n_hosts) * ctx_.n_hosts, 0);
    loc_.assign(static_cast<usize>(ctx_.n_hosts) * ctx_.n_hosts, 0);
  } else {
    self_loc_.assign(ctx_.n_hosts, 0);
    entries_.assign(ctx_.n_hosts, {});
    version_.assign(ctx_.n_hosts, 0);
    send_cur_.assign(ctx_.n_hosts, {});
    recv_cur_.assign(ctx_.n_hosts, {});
  }
}

TpProtocol::SendCursor& TpProtocol::send_cursor(net::HostId src, net::HostId dst) {
  return flat_map_get(send_cur_[src], &SendCursor::dst, static_cast<u32>(dst));
}

TpProtocol::RecvCursor& TpProtocol::recv_cursor(net::HostId dst, net::HostId src) {
  return flat_map_get(recv_cur_[dst], &RecvCursor::src, static_cast<u32>(src));
}

void TpProtocol::host_init(const net::MobileHost& host) {
  if (encoding_ == TpEncoding::kDense) {
    loc_[static_cast<usize>(host.id()) * ctx_.n_hosts + host.id()] = host.mss();
  } else {
    self_loc_[host.id()] = host.mss();
  }
  checkpoint(host, CheckpointKind::kInitial);
}

void TpProtocol::checkpoint(const net::MobileHost& host, CheckpointKind kind, net::MsgId trigger) {
  const net::HostId me = host.id();
  const obs::ForcedRule rule = kind == CheckpointKind::kForced
                                   ? obs::ForcedRule::kReceiveAfterSend
                                   : obs::ForcedRule::kNone;
  // The calling lane's scratch (shards checkpoint different hosts
  // concurrently); the log copies the entries out before it is reused.
  des::ShardContext* c = des::current_shard();
  std::vector<DepEntry>& deps = dep_scratch_.at(c != nullptr ? 1 + c->shard : 0);
  deps.clear();
  if (encoding_ == TpEncoding::kDense) {
    const usize row = static_cast<usize>(me) * ctx_.n_hosts;
    loc_[row + me] = host.mss();
    for (u32 j = 0; j < ctx_.n_hosts; ++j) deps.push_back({j, req_[row + j], loc_[row + j]});
    deps[me].ckpt = static_cast<u32>(ckpt_count_[me]);  // anchor ordinal
  } else {
    // Mirror the dense row refresh: the own location observable through
    // location_vector() reflects the MSS at the latest checkpoint.
    self_loc_[me] = host.mss();
    // Snapshot the touched entries plus the own anchor, sorted by host.
    bool own_emitted = false;
    for (const Entry& e : entries_[me]) {
      if (!own_emitted && e.idx > me) {
        deps.push_back({me, static_cast<u32>(ckpt_count_[me]), host.mss()});
        own_emitted = true;
      }
      deps.push_back({e.idx, e.ckpt, e.loc});
    }
    if (!own_emitted) deps.push_back({me, static_cast<u32>(ckpt_count_[me]), host.mss()});
  }
  take_checkpoint(host, kind, ckpt_count_[me], deps, ctx_.n_hosts, /*replaced=*/false, rule,
                  trigger);
  ++ckpt_count_[me];
  // A fresh interval has no sends yet; phase returns to RECV (Russell's
  // discipline: forced checkpoints are needed only for receives that
  // follow a send *within the same interval*).
  phase_send_[me] = 0;
}

void TpProtocol::make_piggyback(const net::MobileHost& host, net::HostId dst,
                                net::Piggyback& pb) {
  const net::HostId me = host.id();
  if (encoding_ == TpEncoding::kDense) {
    const usize row = static_cast<usize>(me) * ctx_.n_hosts;
    pb.vec_a.assign(req_.begin() + static_cast<std::ptrdiff_t>(row),
                    req_.begin() + static_cast<std::ptrdiff_t>(row + ctx_.n_hosts));
    // A receiver of this message depends on the sender's *current*
    // interval, so it will require the checkpoint that closes it
    // (ordinal ckpt_count).
    pb.vec_a[me] = static_cast<u32>(ckpt_count_[me]);
    pb.vec_b.assign(loc_.begin() + static_cast<std::ptrdiff_t>(row),
                    loc_.begin() + static_cast<std::ptrdiff_t>(row + ctx_.n_hosts));
    pb.vec_b[me] = host.mss();
  } else {
    SendCursor& sc = send_cursor(me, dst);
    pb.has_delta = true;
    pb.delta_seq = sc.next_seq++;
    pb.dense_rank = 2 * ctx_.n_hosts;
    // Entries changed since the last message to this destination, plus
    // the sender's own entry (always fresh: the receiver needs the
    // sender's current interval and location), in host order.
    const std::vector<Entry>& es = entries_[me];
    bool own_emitted = false;
    for (const Entry& e : es) {
      if (!own_emitted && e.idx > me) {
        pb.deltas.push_back({me, static_cast<u32>(ckpt_count_[me]), host.mss()});
        own_emitted = true;
      }
      if (e.ver > sc.last_ver) pb.deltas.push_back({e.idx, e.ckpt, e.loc});
    }
    if (!own_emitted) pb.deltas.push_back({me, static_cast<u32>(ckpt_count_[me]), host.mss()});
    sc.last_ver = version_[me];
  }
  phase_send_[me] = 1;
}

void TpProtocol::handle_receive(const net::MobileHost& host, const net::AppMessage& msg,
                                const net::Piggyback& pb) {
  const net::HostId me = host.id();
  if (encoding_ == TpEncoding::kSparse) {
    // Per-pair gap detection must run even for messages that force a
    // checkpoint, so it happens before anything else.
    RecvCursor& rc = recv_cursor(me, msg.src);
    if (pb.delta_seq != rc.expect) ++delta_reorders_;
    rc.expect = pb.delta_seq + 1;
  }
  if (phase_send_[me] != 0) {
    checkpoint(host, CheckpointKind::kForced, msg.id);
  }
  // Merge transitive dependencies after checkpointing, so the forced
  // checkpoint excludes this message.
  if (encoding_ == TpEncoding::kDense) {
    const usize row = static_cast<usize>(me) * ctx_.n_hosts;
    for (u32 j = 0; j < ctx_.n_hosts; ++j) {
      if (j == me) continue;
      if (pb.vec_a[j] > req_[row + j]) {
        req_[row + j] = pb.vec_a[j];
        loc_[row + j] = pb.vec_b[j];
      }
    }
  } else {
    std::vector<Entry>& es = entries_[me];
    for (const net::PbDelta& d : pb.deltas) {
      if (d.idx == me) continue;
      Entry& e = flat_map_get(es, &Entry::idx, d.idx);
      if (d.ckpt > e.ckpt) {
        e.ckpt = d.ckpt;
        e.loc = d.loc;
        e.ver = ++version_[me];
      }
    }
  }
}

std::vector<u32> TpProtocol::requirement_vector(net::HostId host) const {
  std::vector<u32> out(ctx_.n_hosts, 0);
  if (encoding_ == TpEncoding::kDense) {
    const usize row = static_cast<usize>(host) * ctx_.n_hosts;
    std::copy(req_.begin() + static_cast<std::ptrdiff_t>(row),
              req_.begin() + static_cast<std::ptrdiff_t>(row + ctx_.n_hosts), out.begin());
  } else {
    for (const Entry& e : entries_.at(host)) out[e.idx] = e.ckpt;
  }
  return out;
}

std::vector<u32> TpProtocol::location_vector(net::HostId host) const {
  std::vector<u32> out(ctx_.n_hosts, 0);
  if (encoding_ == TpEncoding::kDense) {
    const usize row = static_cast<usize>(host) * ctx_.n_hosts;
    std::copy(loc_.begin() + static_cast<std::ptrdiff_t>(row),
              loc_.begin() + static_cast<std::ptrdiff_t>(row + ctx_.n_hosts), out.begin());
  } else {
    for (const Entry& e : entries_.at(host)) out[e.idx] = e.loc;
    out[host] = self_loc_[host];
  }
  return out;
}

void TpProtocol::basic_checkpoint(const net::MobileHost& host) {
  checkpoint(host, CheckpointKind::kBasic);
}

void TpProtocol::handle_cell_switch(const net::MobileHost& host, net::MssId, net::MssId) {
  basic_checkpoint(host);
}

void TpProtocol::handle_disconnect(const net::MobileHost& host) { basic_checkpoint(host); }

}  // namespace mobichk::core
