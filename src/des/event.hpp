// Typed event representation for the simulation kernel.
//
// The hot path of a run is the event queue: every message leg, mobility
// timer, workload operation and protocol control transfer is one queue
// entry. Representing those as type-erased std::function closures costs a
// heap allocation per event (almost every capture list exceeds the
// small-buffer optimisation) plus an indirect call through the wrapper.
// Instead, an event is a small POD `EventPayload` — a tagged union of the
// domain's recurring event shapes — dispatched through one virtual call on
// a long-lived `EventTarget` (the network, a driver, a protocol). The
// payload is stored inline in the queue entry, so scheduling an event
// allocates nothing.
//
// A generic closure kind remains as the escape hatch for tests, analysis
// probes and one-off experiment hooks. The Simulator parks the closure
// beside the entry's queue slot, not in the entry, so every entry stays
// trivially copyable and the queues move no std::function. A closure
// rides the same (time, seq) ordering as a typed event, so mixing the two
// representations cannot perturb a trace.
#pragma once

#include "des/types.hpp"

namespace mobichk::des {

/// Discriminator of the typed payload union. The domain's recurring event
/// shapes are baked in (like TraceKind) so the kernel stays allocation-free
/// for every production scheduling site.
enum class EventKind : u8 {
  kClosure = 0,         ///< Generic escape hatch; the Simulator runs the parked closure.
  kMessageHop,          ///< A message leg (uplink, wired hop, downlink) completes.
  kHandoff,             ///< Mobility residence timer: a cell switch is due.
  kConnectivity,        ///< Mobility timer: a disconnect or reconnect is due.
  kWorkloadOp,          ///< Workload: a host's next send/receive operation is due.
  kCheckpointTransfer,  ///< A checkpoint/marker control transfer completes.
  kCrash,               ///< Fault injection: one or more hosts fail now.
  kRecover,             ///< A crashed host finishes rollback + replay and resumes.
};

class EventTarget;

/// The typed payload stored inline in every queue entry. `sub`, `flags`,
/// `a`, `b` and `c` are target-specific operands (host/MSS ids, parked
/// message slots, epochs, rounds, counts); the receiving EventTarget owns
/// their interpretation per kind.
struct EventPayload {
  EventTarget* target = nullptr;  ///< Dispatch sink; null only for kClosure.
  EventKind kind = EventKind::kClosure;
  u8 sub = 0;      ///< Sub-discriminator within the target (e.g. which leg).
  u16 flags = 0;   ///< Flag bits (e.g. targeted / duplicate delivery).
  u32 a = 0;       ///< First operand (host id, MSS id, parked-message slot).
  u64 b = 0;       ///< Second operand (epoch, round, message slot).
  u64 c = 0;       ///< Third operand (bulk counts).
};

/// Sink of typed events. Implemented by the long-lived simulation actors
/// (Network, WorkloadDriver, MobilityDriver, scheduling protocols); one
/// virtual call replaces one heap-allocated closure per event.
class EventTarget {
 public:
  virtual void on_event(const EventPayload& payload) = 0;

 protected:
  ~EventTarget() = default;  ///< Targets are never owned through this interface.
};

}  // namespace mobichk::des
