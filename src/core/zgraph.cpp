#include "core/zgraph.hpp"

#include <stdexcept>

namespace mobichk::core {

IntervalGraph::IntervalGraph(const CheckpointLog& log, const MessageLog& messages) : log_(log) {
  std::vector<u64> counts(log.n_hosts());
  for (net::HostId h = 0; h < log.n_hosts(); ++h) {
    if (log.count(h) == 0) {
      throw std::invalid_argument("IntervalGraph: host without checkpoints");
    }
    counts[h] = log.count(h);
  }
  graph_ = obs::ZigzagGraph(counts);
  for (const auto& d : messages.deliveries()) {
    graph_.add_message(d.src, interval_of(d.src, d.send_pos), d.dst,
                       interval_of(d.dst, d.recv_pos));
  }
  graph_.find_z_cycles();
}

u64 IntervalGraph::interval_of(net::HostId host, u64 pos) const {
  // Interval x spans events in (C_x.event_pos, C_{x+1}.event_pos]; an
  // event at position p therefore belongs to the interval of the last
  // checkpoint whose cut position is < p.
  if (pos == 0) return 0;
  const CheckpointRecord* rec = log_.last_at_or_before_pos(host, pos - 1);
  return rec != nullptr ? rec->ordinal : 0;
}

std::vector<const CheckpointRecord*> IntervalGraph::useless_checkpoints() const {
  std::vector<const CheckpointRecord*> out;
  for (net::HostId h = 0; h < log_.n_hosts(); ++h) {
    for (const auto& rec : log_.of(h)) {
      if (on_z_cycle(h, rec.ordinal)) out.push_back(&rec);
    }
  }
  return out;
}

}  // namespace mobichk::core
