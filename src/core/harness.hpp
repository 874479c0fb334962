// ProtocolHarness: binds one or more checkpointing protocols to a network
// run as *paired observers*.
//
// The paper evaluates protocols with instantaneous checkpoint insertion
// (§5.1), so a protocol never perturbs the event timeline. That makes it
// sound — and statistically ideal — to run every protocol against the
// same trace: each protocol keeps its own per-host state, its own
// CheckpointLog / StorageModel, and produces its own piggyback for every
// message. Every piggyback travels by value with the message: slot 0 is
// the "primary" protocol whose piggyback physically rides on the wire
// (AppMessage::pb, counted by NetworkStats); slots 1.. ride along in
// AppMessage::observer_pbs, and each protocol reads back its own at
// receive time. A duplicated delivery therefore carries its own copies.
// The network recycles consumed messages (see net::AppMessage), so on_send
// resets each slot's piggyback and has the protocol encode into it in
// place: steady-state sends reuse the previous message's buffers.
// The harness additionally accounts per-protocol piggyback bytes so
// overhead comparisons cover every slot.
//
// The harness also maintains the MessageLog — the send/receive position
// oracle used by the consistency checker and the rollback machinery, a
// flat table indexed by the (dense) message id.
#pragma once

#include <memory>
#include <vector>

#include "core/checkpoint_log.hpp"
#include "core/message_log.hpp"
#include "core/protocol.hpp"
#include "core/storage.hpp"
#include "net/handler.hpp"
#include "net/network.hpp"

namespace mobichk::core {

class ProtocolHarness final : public net::HostEventHandler {
 public:
  /// Creates the harness and installs it as the network's handler.
  ProtocolHarness(net::Network& net, des::TraceSink* sink = nullptr);

  /// Registers a protocol (before net.start()). Returns its slot index.
  /// When `storage` is non-null, the slot accounts checkpoint-storage
  /// traffic under that configuration.
  usize add_protocol(std::unique_ptr<CheckpointProtocol> protocol,
                     const StorageConfig* storage = nullptr);

  usize protocol_count() const noexcept { return slots_.size(); }
  CheckpointProtocol& protocol(usize slot) { return *slots_.at(slot)->protocol; }
  const CheckpointProtocol& protocol(usize slot) const { return *slots_.at(slot)->protocol; }
  const CheckpointLog& log(usize slot) const { return slots_.at(slot)->log; }
  const StorageModel* storage(usize slot) const { return slots_.at(slot)->storage.get(); }
  /// Control-information bytes protocol `slot` put (or would have put) on
  /// the wire over the whole run, as actually encoded (sparse piggybacks
  /// count their delta encoding, not the dense vectors they replace).
  u64 piggyback_bytes(usize slot) const { return slots_.at(slot)->pb_bytes; }
  /// Dense-equivalent control bytes for `slot`: what the same control
  /// information would have cost with full vectors on every message.
  /// Equal to piggyback_bytes for protocols without a sparse encoding.
  u64 piggyback_dense_bytes(usize slot) const { return slots_.at(slot)->pb_dense_bytes; }

  const MessageLog& message_log() const noexcept { return msg_log_; }

  /// Current event position of every host (the "now" cut); recovery-line
  /// builders use it for virtual (current-state) members.
  std::vector<u64> current_positions() const;

  /// Routes checkpoint-timeline probes into `timeline` (nullptr = off).
  /// Must be called before add_protocol; later slots inherit it.
  void set_timeline(obs::Timeline* timeline) noexcept { timeline_ = timeline; }

  /// Attaches the host-time profiler (nullptr = off). Piggyback encode
  /// (on_send) and merge (on_receive) are timed on the executing lane,
  /// with per-slot handler time nested under prof.proto.*.
  void set_profiler(obs::Profiler* prof) noexcept { prof_ = prof; }

  /// Attaches the checkpoint data plane (nullptr = off). Must be called
  /// before add_protocol: slot 0 — the physical run — prices its
  /// checkpoints through it, and every cell switch becomes a handoff
  /// (checkpoint-migration) hook.
  void set_data_plane(storage::DataPlane* data_plane) noexcept { data_plane_ = data_plane; }

  // -- spatial sharding -------------------------------------------------

  /// Switches the harness into shard-parallel mode (call after every
  /// add_protocol): per-slot piggyback bytes go to per-shard slices and
  /// MessageLog updates are journaled per shard for the barrier merge.
  /// Piggybacks need no switch — they always travel by value on the
  /// message, so sender and receiver shards share no state for them.
  void enable_sharding(u32 n_shards);

  /// Barrier-time merge (coordinator, shards parked): folds this window's
  /// send/receive journals into the MessageLog — sends first, translated
  /// through `idmap` (provisional -> final message ids), then deliveries
  /// in merged (time, shard) order, which is the sequential order the
  /// rollback machinery depends on.
  void merge_window(const net::WindowIdMap& idmap);

  /// End-of-run fold of the per-shard piggyback byte slices.
  void finalize_sharding();

  // -- net::HostEventHandler --------------------------------------------
  void on_host_init(net::MobileHost& host) override;
  void on_send(net::MobileHost& host, net::AppMessage& msg) override;
  void on_receive(net::MobileHost& host, const net::AppMessage& msg) override;
  void on_cell_switch(net::MobileHost& host, net::MssId from, net::MssId to) override;
  void on_disconnect(net::MobileHost& host) override;
  void on_reconnect(net::MobileHost& host, net::MssId mss) override;

 private:
  struct Slot {
    std::unique_ptr<CheckpointProtocol> protocol;
    CheckpointLog log;
    std::unique_ptr<StorageModel> storage;
    u64 pb_bytes = 0;
    u64 pb_dense_bytes = 0;
  };

  struct SendRec {
    u64 id = 0;  ///< Provisional message id (finalized at the barrier).
    net::HostId src = 0;
    net::HostId dst = 0;
    u64 pos = 0;
  };
  struct RecvRec {
    des::Time t = 0.0;  ///< Receive time (merge key).
    u64 id = 0;         ///< Final message id (assigned before delivery).
    u64 pos = 0;
    u64 sn = 0;
  };

  /// Per-shard journal + hot-counter slice, padded against false sharing.
  struct alignas(64) Slice {
    std::vector<SendRec> sends;       ///< This window's sends.
    std::vector<RecvRec> recvs;       ///< This window's deliveries.
    std::vector<u64> pb_bytes;        ///< Per protocol slot, whole run.
    std::vector<u64> pb_dense_bytes;  ///< Per protocol slot, whole run.
  };

  net::Network& net_;
  des::TraceSink* sink_;
  obs::Timeline* timeline_ = nullptr;
  obs::Profiler* prof_ = nullptr;
  storage::DataPlane* data_plane_ = nullptr;
  /// Heap-allocated: protocols hold pointers into their slot's log and
  /// storage, which must stay stable as more slots are added.
  std::vector<std::unique_ptr<Slot>> slots_;
  MessageLog msg_log_;
  std::vector<Slice> slices_;  ///< Non-empty exactly in sharded mode.
};

}  // namespace mobichk::core
