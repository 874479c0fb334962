#include "obs/probes.hpp"

#include <string>

namespace mobichk::obs {

void KernelProbe::resolve(MetricRegistry& reg) {
  for (usize k = 0; k < kMaxEventKinds; ++k) {
    dispatched[k] = &reg.counter(std::string("des.dispatch.") + des::kEventKindNames[k]);
  }
  pushes = &reg.counter("des.queue.pushes");
  pops = &reg.counter("des.queue.pops");
  cancels = &reg.counter("des.queue.cancels");
  compactions = &reg.counter("des.queue.compactions");
  max_pending = &reg.gauge("des.queue.max_pending");
}

void NetProbe::resolve(MetricRegistry& reg) {
  uplink_legs = &reg.counter("net.leg.uplink");
  wired_hops = &reg.counter("net.leg.wired_hop");
  downlink_legs = &reg.counter("net.leg.downlink");
  payload_bytes = &reg.counter("net.bytes.payload");
  piggyback_bytes = &reg.counter("net.bytes.piggyback");
  piggyback_dense_bytes = &reg.counter("net.bytes.piggyback_dense");
  handoffs = &reg.counter("net.mobility.handoffs");
  disconnects = &reg.counter("net.mobility.disconnects");
  reconnects = &reg.counter("net.mobility.reconnects");
  crashes = &reg.counter("net.mobility.crashes");
  restores = &reg.counter("net.mobility.restores");
  delivery_latency = &reg.histogram("net.delivery_latency_tu", 0.0, 50.0, 100);
}

void SweepProbe::resolve(MetricRegistry& reg) {
  replications = &reg.counter("sweep.replications");
  replication_wall = &reg.histogram("sweep.replication_wall_s", 0.0, 5.0, 100);
  last_half_width = &reg.gauge("sweep.last_half_width");
}

}  // namespace mobichk::obs
