#include "obs/causal.hpp"

#include <algorithm>
#include <stdexcept>

namespace mobichk::obs {

const char* tracker_mode_name(TrackerMode mode) noexcept {
  switch (mode) {
    case TrackerMode::kNone: return "none";
    case TrackerMode::kIndexFirstAtLeast: return "index-first-at-least";
    case TrackerMode::kIndexLastEqual: return "index-last-equal";
    case TrackerMode::kTpDependency: return "tp-dependency";
  }
  return "none";
}

RecoveryLineTracker::RecoveryLineTracker(TrackerMode mode, u32 n_hosts)
    : mode_(mode), n_(n_hosts), hosts_(n_hosts) {
  if (n_hosts == 0) throw std::invalid_argument("RecoveryLineTracker: n_hosts is zero");
  if (mode == TrackerMode::kTpDependency) {
    for (auto& h : hosts_) h.req.assign(n_, 0);
  }
}

void RecoveryLineTracker::resolve_metrics(MetricRegistry& registry, const std::string& prefix) {
  line_index_g_ = &registry.gauge(prefix + ".line_index");
  lag_max_g_ = &registry.gauge(prefix + ".lag_max");
  lag_h_ = &registry.histogram(prefix + ".lag", 0.0, 64.0, 64);
  chain_h_ = &registry.histogram(prefix + ".forced_chain", 0.0, 32.0, 32);
  useless_c_ = &registry.counter(prefix + ".useless_checkpoints");
  advances_c_ = &registry.counter(prefix + ".line_advances");
}

void RecoveryLineTracker::on_checkpoint(u32 host, u64 sn, CkptKind kind, u64 trigger_msg) {
  HostState& h = hosts_.at(host);
  if (mode_ == TrackerMode::kTpDependency) {
    // The dependency vector stored with the checkpoint: the running
    // requirement with the self entry anchored at this ordinal.
    std::vector<u32> dep = h.req;
    dep[host] = static_cast<u32>(h.sns.size());
    h.deps.push_back(std::move(dep));
    h.phase_send = false;  // a fresh interval has no sends yet
  }
  u32 chain = 0;
  if (kind == CkptKind::kForced) {
    chain = 1;  // marker-forced: the chain starts here
    if (trigger_msg != 0) {
      const auto it = sent_msgs_.find(trigger_msg);
      if (it != sent_msgs_.end()) chain = it->second.chain_at_send + 1;
    }
    if (chain_h_ != nullptr) chain_h_->add(static_cast<f64>(chain));
    max_chain_ = std::max<u64>(max_chain_, chain);
  }
  h.chain = chain;
  h.chain_depth.push_back(chain);
  h.sns.push_back(sn);
  advance_committed();
}

void RecoveryLineTracker::on_sn_promote(u32 host, u64 sn) {
  HostState& h = hosts_.at(host);
  if (h.sns.empty()) return;
  if (sn > h.sns.back()) h.sns.back() = sn;
  advance_committed();
}

void RecoveryLineTracker::on_send(u32 host, u64 msg_id) {
  HostState& h = hosts_.at(host);
  MsgInfo info;
  info.src = host;
  info.send_interval = h.sns.empty() ? 0 : static_cast<u32>(h.sns.size() - 1);
  info.chain_at_send = h.chain;
  if (mode_ == TrackerMode::kTpDependency) {
    info.dep = h.req;
    info.dep[host] = static_cast<u32>(h.sns.size());
    h.phase_send = true;
  }
  sent_msgs_[msg_id] = std::move(info);
}

void RecoveryLineTracker::on_deliver(u32 host, u64 msg_id) {
  const auto it = sent_msgs_.find(msg_id);
  if (it == sent_msgs_.end()) return;  // foreign message (manual scripts)
  const MsgInfo& info = it->second;
  HostState& h = hosts_.at(host);
  const u32 di = h.sns.empty() ? 0 : static_cast<u32>(h.sns.size() - 1);
  edges_.push_back(Edge{info.src, info.send_interval, host, di});
  if (mode_ == TrackerMode::kTpDependency) {
    // The forced checkpoint's probe event precedes the deliver event, so
    // a SEND phase here means the protocol broke Russell's discipline.
    if (h.phase_send) ++phase_violations_;
    for (u32 j = 0; j < n_; ++j) {
      if (j == host) continue;
      if (info.dep[j] > h.req[j]) h.req[j] = info.dep[j];
    }
  }
}

void RecoveryLineTracker::advance_committed() {
  u64 m = ~u64{0};
  for (const HostState& h : hosts_) {
    if (h.sns.empty()) return;  // not every host initialized yet
    const u64 reached =
        mode_ == TrackerMode::kTpDependency ? h.sns.size() - 1 : h.sns.back();
    m = std::min(m, reached);
  }
  if (m <= committed_ && !(m == 0 && committed_ == 0)) return;
  if (advances_c_ != nullptr && m > committed_) advances_c_->add(m - committed_);
  committed_ = m;
  if (line_index_g_ != nullptr) line_index_g_->set(static_cast<f64>(committed_));
  if (lag_h_ != nullptr || lag_max_g_ != nullptr) {
    u64 worst = 0;
    for (u32 h = 0; h < n_; ++h) {
      const u64 l = lag(h);
      worst = std::max(worst, l);
      if (lag_h_ != nullptr) lag_h_->add(static_cast<f64>(l));
    }
    if (lag_max_g_ != nullptr) lag_max_g_->set(static_cast<f64>(worst));
  }
}

u64 RecoveryLineTracker::lag(u32 host) const {
  const HostState& h = hosts_.at(host);
  if (h.sns.empty()) return 0;
  if (mode_ == TrackerMode::kTpDependency) {
    const u64 deepest = h.sns.size() - 1;
    return deepest > committed_ ? deepest - committed_ : 0;
  }
  // Checkpoints strictly beyond the committed index.
  const auto it = std::upper_bound(h.sns.begin(), h.sns.end(), committed_);
  return static_cast<u64>(h.sns.end() - it);
}

std::vector<LineMember> RecoveryLineTracker::index_line(u64 index) const {
  std::vector<LineMember> line(n_);
  for (u32 h = 0; h < n_; ++h) {
    const auto& sns = hosts_[h].sns;
    line[h].host = h;
    auto it = sns.end();
    if (mode_ == TrackerMode::kIndexLastEqual) {
      const auto ub = std::upper_bound(sns.begin(), sns.end(), index);
      if (ub != sns.begin() && *(ub - 1) == index) it = ub - 1;
    }
    if (it == sns.end()) it = std::lower_bound(sns.begin(), sns.end(), index);
    if (it != sns.end()) {
      line[h].ordinal = static_cast<u64>(it - sns.begin());
    } else {
      line[h].is_virtual = true;
    }
  }
  return line;
}

std::vector<LineMember> RecoveryLineTracker::tp_line(u32 host, u64 ordinal) const {
  if (mode_ != TrackerMode::kTpDependency) {
    throw std::logic_error("RecoveryLineTracker::tp_line: not a TP tracker");
  }
  const std::vector<u32>& dep = hosts_.at(host).deps.at(ordinal);
  std::vector<LineMember> line(n_);
  for (u32 j = 0; j < n_; ++j) {
    line[j].host = j;
    const u64 want = j == host ? ordinal : dep[j];
    if (want < hosts_[j].sns.size()) {
      line[j].ordinal = want;
    } else {
      // Not yet taken: the host's current state stands in (sound under
      // the phase discipline — it has received nothing since its send).
      line[j].is_virtual = true;
    }
  }
  return line;
}

void RecoveryLineTracker::finalize() {
  if (finalized_) return;
  finalized_ = true;
  // Interval x of a host is opened by its checkpoint x.
  std::vector<u64> counts(n_);
  for (u32 h = 0; h < n_; ++h) counts[h] = hosts_[h].sns.size();
  zigzag_ = ZigzagGraph(counts);
  for (const Edge& e : edges_) zigzag_.add_message(e.src, e.si, e.dst, e.di);
  useless_ = zigzag_.find_z_cycles();
  if (useless_c_ != nullptr) useless_c_->add(useless_);
  advance_committed();
}

bool RecoveryLineTracker::on_z_cycle(u32 host, u64 ordinal) const {
  if (!finalized_) throw std::logic_error("RecoveryLineTracker::on_z_cycle before finalize()");
  return zigzag_.on_z_cycle(host, ordinal);
}

CausalMonitor::CausalMonitor(u32 n_hosts, const std::vector<TrackerMode>& modes,
                             const std::vector<std::string>& names, MetricRegistry& registry) {
  trackers_.reserve(modes.size());
  for (usize slot = 0; slot < modes.size(); ++slot) {
    if (modes[slot] == TrackerMode::kNone) {
      trackers_.push_back(nullptr);
      continue;
    }
    auto tracker = std::make_unique<RecoveryLineTracker>(modes[slot], n_hosts);
    const std::string label =
        slot < names.size() ? names[slot] : "slot" + std::to_string(slot);
    tracker->resolve_metrics(registry, "rl." + std::to_string(slot) + "." + label);
    trackers_.push_back(std::move(tracker));
  }
}

void CausalMonitor::on_probe_event(const ProbeEvent& e) {
  switch (e.kind) {
    case ProbeKind::kCheckpoint:
    case ProbeKind::kSnPromote: {
      if (e.track < 0 || static_cast<usize>(e.track) >= trackers_.size()) return;
      RecoveryLineTracker* t = trackers_[static_cast<usize>(e.track)].get();
      if (t == nullptr) return;
      if (e.kind == ProbeKind::kCheckpoint) {
        t->on_checkpoint(static_cast<u32>(e.actor), e.a, e.ckpt_kind, e.b);
      } else {
        t->on_sn_promote(static_cast<u32>(e.actor), e.a);
      }
      break;
    }
    case ProbeKind::kSend:
      for (auto& t : trackers_) {
        if (t != nullptr) t->on_send(static_cast<u32>(e.actor), e.a);
      }
      break;
    case ProbeKind::kDeliver:
      for (auto& t : trackers_) {
        if (t != nullptr) t->on_deliver(static_cast<u32>(e.actor), e.a);
      }
      break;
    default:
      break;  // mobility / sweep events carry no causal information
  }
}

void CausalMonitor::finalize() {
  for (auto& t : trackers_) {
    if (t != nullptr) t->finalize();
  }
}

std::vector<ChainStep> explain_checkpoint_chain(const Timeline& timeline, i32 slot, i32 host,
                                                u64 ordinal, usize max_depth) {
  const std::vector<ProbeEvent>& ev = timeline.events();
  // Index the timeline once: checkpoint event positions per host (for
  // this slot) and the send event of every message id.
  std::unordered_map<i32, std::vector<usize>> ckpts_of;
  std::unordered_map<u64, usize> send_of;
  for (usize i = 0; i < ev.size(); ++i) {
    if (ev[i].kind == ProbeKind::kCheckpoint && ev[i].track == slot) {
      ckpts_of[ev[i].actor].push_back(i);
    } else if (ev[i].kind == ProbeKind::kSend) {
      send_of.emplace(ev[i].a, i);
    }
  }

  std::vector<ChainStep> chain;
  const auto host_it = ckpts_of.find(host);
  if (host_it == ckpts_of.end() || ordinal >= host_it->second.size()) return chain;
  usize idx = host_it->second[ordinal];
  u64 current_ordinal = ordinal;
  while (chain.size() < max_depth) {
    const ProbeEvent& c = ev[idx];
    ChainStep step;
    step.t = c.t;
    step.host = c.actor;
    step.ordinal = current_ordinal;
    step.sn = c.a;
    step.ckpt_kind = c.ckpt_kind;
    step.rule = c.rule;
    step.replaced = c.replaced;
    step.trigger_msg = c.b;
    if (c.b == 0) {
      chain.push_back(step);
      break;  // basic / initial / marker-forced: the chain ends here
    }
    const auto send_it = send_of.find(c.b);
    if (send_it == send_of.end()) {
      chain.push_back(step);
      break;  // send not on the timeline (capped / partial recording)
    }
    const ProbeEvent& s = ev[send_it->second];
    step.msg_src = s.actor;
    step.msg_sent_t = s.t;
    step.msg_wire_sn = s.b;
    step.msg_found = true;
    chain.push_back(step);
    // The sender's latest checkpoint before the send.
    const auto sender_it = ckpts_of.find(s.actor);
    if (sender_it == ckpts_of.end()) break;
    const std::vector<usize>& sc = sender_it->second;
    const auto ub = std::upper_bound(sc.begin(), sc.end(), send_it->second);
    if (ub == sc.begin()) break;  // no checkpoint before the send
    idx = *(ub - 1);
    current_ordinal = static_cast<u64>((ub - 1) - sc.begin());
  }
  return chain;
}

}  // namespace mobichk::obs
