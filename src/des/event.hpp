// Typed event representation for the simulation kernel.
//
// The hot path of a run is the event queue: every message leg, mobility
// timer, workload operation and protocol control transfer is one queue
// entry. An event is a small POD `EventPayload` — a tagged union of the
// domain's recurring event shapes — dispatched through one virtual call on
// a long-lived `EventTarget` (the network, a driver, a protocol). The
// payload is stored inline in the queue entry, so scheduling an event
// allocates nothing, and every entry stays trivially copyable.
#pragma once

#include "des/types.hpp"

namespace mobichk::des {

/// Discriminator of the typed payload union. The domain's recurring event
/// shapes are baked in (like TraceKind) so the kernel stays allocation-free
/// for every scheduling site.
enum class EventKind : u8 {
  kTick = 0,            ///< Generic timer; the target interprets the operands itself.
  kMessageHop,          ///< A message leg (uplink, wired hop, downlink) completes.
  kHandoff,             ///< Mobility residence timer: a cell switch is due.
  kConnectivity,        ///< Mobility timer: a disconnect or reconnect is due.
  kWorkloadOp,          ///< Workload: a host's next send/receive operation is due.
  kCheckpointTransfer,  ///< A checkpoint/marker control transfer completes.
  kCrash,               ///< Fault injection: one or more hosts fail now.
  kRecover,             ///< A crashed host finishes rollback + replay and resumes.
};

/// Number of EventKinds; sizes every per-kind table (probe counters,
/// profiler dispatch buckets).
inline constexpr usize kEventKindCount = static_cast<usize>(EventKind::kRecover) + 1;

/// Exported name of each kind, indexed by its underlying value: the
/// des.dispatch.<name> counters and the prof.dispatch.<name> phases.
inline constexpr const char* kEventKindNames[kEventKindCount] = {
    // kTick exports as "closure": mobibench observed_recovery's digests and
    // tests/obs/golden_* pin that name; rename it when they are re-pinned.
    "closure",
    "message_hop",
    "handoff",
    "connectivity",
    "workload_op",
    "checkpoint_transfer",
    "crash",
    "recover",
};

class EventTarget;

/// The typed payload stored inline in every queue entry. `sub`, `flags`,
/// `a`, `b` and `c` are target-specific operands (host/MSS ids, parked
/// message slots, epochs, rounds, counts); the receiving EventTarget owns
/// their interpretation per kind.
struct EventPayload {
  EventTarget* target = nullptr;  ///< Dispatch sink; required to schedule.
  EventKind kind = EventKind::kTick;
  u8 sub = 0;      ///< Sub-discriminator within the target (e.g. which leg).
  u16 flags = 0;   ///< Flag bits (e.g. targeted / duplicate delivery).
  u32 a = 0;       ///< First operand (host id, MSS id, parked-message slot).
  u64 b = 0;       ///< Second operand (epoch, round, message slot).
  u64 c = 0;       ///< Third operand (bulk counts).
};

/// Sink of typed events. Implemented by the long-lived simulation actors
/// (Network, WorkloadDriver, MobilityDriver, scheduling protocols); one
/// virtual call dispatches each event.
class EventTarget {
 public:
  virtual void on_event(const EventPayload& payload) = 0;

 protected:
  ~EventTarget() = default;  ///< Targets are never owned through this interface.
};

}  // namespace mobichk::des
