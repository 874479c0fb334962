#include "net/network.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "des/simulator.hpp"

namespace mobichk::net {
namespace {

/// Handler that records upcalls for inspection.
class RecordingHandler : public HostEventHandler {
 public:
  void on_host_init(MobileHost&) override { ++inits; }
  void on_send(MobileHost&, AppMessage& msg) override {
    ++sends;
    msg.pb.sn = 777;  // visible marker
    msg.pb.has_sn = true;
  }
  void on_receive(MobileHost&, const AppMessage& msg) override {
    ++receives;
    last_sn = msg.pb.sn;
    last_msg_id = msg.id;
  }
  void on_cell_switch(MobileHost&, MssId from, MssId to) override {
    ++switches;
    last_from = from;
    last_to = to;
  }
  void on_disconnect(MobileHost& host) override {
    ++disconnects;
    disconnect_was_connected = host.connected();
  }
  void on_reconnect(MobileHost&, MssId) override { ++reconnects; }

  int inits = 0, sends = 0, receives = 0, switches = 0, disconnects = 0, reconnects = 0;
  u64 last_sn = 0, last_msg_id = 0;
  MssId last_from = kNoMss, last_to = kNoMss;
  bool disconnect_was_connected = false;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net_(sim_, make_config(), 1) { net_.set_handler(&handler_); }

  static NetworkConfig make_config() {
    NetworkConfig cfg;
    cfg.n_hosts = 4;
    cfg.n_mss = 3;
    return cfg;
  }

  des::Simulator sim_;
  RecordingHandler handler_;
  Network net_;
};

TEST_F(NetworkTest, StartPlacesHostsAndFiresInit) {
  net_.start({0, 1, 2, 0});
  EXPECT_EQ(handler_.inits, 4);
  EXPECT_EQ(net_.host(0).mss(), 0u);
  EXPECT_EQ(net_.host(1).mss(), 1u);
  EXPECT_EQ(net_.host(2).mss(), 2u);
  EXPECT_EQ(net_.host(3).mss(), 0u);
  for (HostId h = 0; h < 4; ++h) EXPECT_TRUE(net_.host(h).connected());
}

TEST_F(NetworkTest, StartRejectsDoubleStartAndBadPlacement) {
  EXPECT_THROW(net_.start({0, 1, 2}), std::invalid_argument);
  EXPECT_THROW(net_.start({0, 1, 2, 99}), std::invalid_argument);
  net_.start();
  EXPECT_THROW(net_.start(), std::logic_error);
}

TEST_F(NetworkTest, StartRequiresHandler) {
  des::Simulator sim;
  Network net(sim, make_config(), 1);
  EXPECT_THROW(net.start(), std::logic_error);
}

TEST_F(NetworkTest, SameCellDeliveryLatency) {
  net_.start({0, 0, 1, 2});
  net_.send_app_message(0, 1, 100);
  sim_.run();
  // wireless up + wireless down = 0.02; no wired hop.
  EXPECT_DOUBLE_EQ(sim_.now(), 0.02);
  EXPECT_EQ(net_.host(1).mailbox_size(), 1u);
  EXPECT_EQ(net_.stats().wired_hops, 0u);
  EXPECT_EQ(net_.stats().wireless_messages, 2u);
}

TEST_F(NetworkTest, CrossCellDeliveryLatency) {
  net_.start({0, 1, 2, 0});
  net_.send_app_message(0, 1, 100);
  sim_.run();
  // wireless + wired + wireless.
  EXPECT_DOUBLE_EQ(sim_.now(), 0.03);
  EXPECT_EQ(net_.stats().wired_hops, 1u);
}

TEST_F(NetworkTest, LocationSearchHopsAddLatency) {
  des::Simulator sim;
  NetworkConfig cfg = make_config();
  cfg.location_search_hops = 2;
  Network net(sim, cfg, 1);
  RecordingHandler handler;
  net.set_handler(&handler);
  net.start({0, 1, 0, 0});
  net.send_app_message(0, 1, 10);
  sim.run();
  // up 0.01 + search 0.02 + wired 0.01 + down 0.01.
  EXPECT_DOUBLE_EQ(sim.now(), 0.05);
  EXPECT_EQ(net.stats().wired_hops, 3u);
}

TEST_F(NetworkTest, HandlerFillsPiggybackOnWire) {
  net_.start({0, 0, 0, 0});
  net_.send_app_message(0, 1, 100);
  sim_.run();
  net_.consume_one(1);
  EXPECT_EQ(handler_.last_sn, 777u);
  EXPECT_EQ(net_.stats().piggyback_bytes, sizeof(u64));
}

TEST_F(NetworkTest, ConsumeIsFifoAndCountsPositions) {
  net_.start({0, 0, 0, 0});
  net_.send_app_message(0, 1, 1);
  net_.send_app_message(2, 1, 1);
  sim_.run();
  ASSERT_EQ(net_.host(1).mailbox_size(), 2u);
  EXPECT_TRUE(net_.consume_one(1));
  EXPECT_EQ(handler_.last_msg_id, 1u);  // first sent, first consumed
  EXPECT_TRUE(net_.consume_one(1));
  EXPECT_EQ(handler_.last_msg_id, 2u);
  EXPECT_FALSE(net_.consume_one(1));
  EXPECT_EQ(net_.stats().app_received, 2u);
}

TEST_F(NetworkTest, EventPositionsAdvancePerEvent) {
  net_.start({0, 0, 0, 0});
  EXPECT_EQ(net_.host(0).event_pos(), 0u);
  net_.internal_event(0);
  EXPECT_EQ(net_.host(0).event_pos(), 1u);
  net_.internal_events(0, 5);
  EXPECT_EQ(net_.host(0).event_pos(), 6u);
  net_.send_app_message(0, 1, 1);
  EXPECT_EQ(net_.host(0).event_pos(), 7u);
  sim_.run();
  net_.consume_one(1);
  EXPECT_EQ(net_.host(1).event_pos(), 1u);
}

TEST_F(NetworkTest, SwitchCellUpdatesAttachmentAndCosts) {
  net_.start({0, 0, 0, 0});
  net_.switch_cell(0, 2);
  EXPECT_EQ(net_.host(0).mss(), 2u);
  EXPECT_EQ(handler_.switches, 1);
  EXPECT_EQ(handler_.last_from, 0u);
  EXPECT_EQ(handler_.last_to, 2u);
  EXPECT_EQ(net_.stats().handoffs, 1u);
  EXPECT_EQ(net_.stats().control_messages, 2u);
  EXPECT_EQ(net_.stats().wireless_messages, 2u);
}

TEST_F(NetworkTest, InFlightMessageChasesMovingHost) {
  net_.start({0, 1, 2, 0});
  net_.send_app_message(0, 1, 100);
  // Let routing target MSS 1, then move the destination while the
  // message crosses the wired network (uplink done at 0.01, wired leg
  // until 0.02): the old MSS must chase it to MSS 2.
  sim_.run_until(0.015);
  net_.switch_cell(1, 2);
  sim_.run();
  EXPECT_EQ(net_.host(1).mailbox_size(), 1u);
  EXPECT_EQ(net_.stats().chase_forwards, 1u);
  EXPECT_EQ(net_.stats().app_delivered, 1u);
}

TEST_F(NetworkTest, NormalRoutingIsNotCountedAsChase) {
  net_.start({0, 1, 2, 0});
  net_.send_app_message(0, 1, 100);  // plain cross-cell delivery
  sim_.run();
  EXPECT_EQ(net_.stats().chase_forwards, 0u);
  EXPECT_EQ(net_.stats().wired_hops, 1u);
}

TEST_F(NetworkTest, DisconnectBuffersAtLastMss) {
  net_.start({0, 1, 2, 0});
  net_.disconnect(1);
  EXPECT_TRUE(handler_.disconnect_was_connected);  // checkpoint taken while attached
  EXPECT_FALSE(net_.host(1).connected());
  net_.send_app_message(0, 1, 100);
  sim_.run();
  EXPECT_EQ(net_.host(1).mailbox_size(), 0u);
  EXPECT_EQ(net_.mss(1).buffered_count(1), 1u);
  EXPECT_EQ(net_.stats().app_delivered, 0u);
}

TEST_F(NetworkTest, ReconnectFlushesBufferToNewCell) {
  net_.start({0, 1, 2, 0});
  net_.disconnect(1);
  net_.send_app_message(0, 1, 100);
  net_.send_app_message(3, 1, 100);
  sim_.run();
  EXPECT_EQ(net_.mss(1).buffered_count(1), 2u);
  net_.reconnect(1, 2);
  EXPECT_TRUE(net_.host(1).connected());
  EXPECT_EQ(net_.host(1).mss(), 2u);
  EXPECT_EQ(handler_.reconnects, 1);
  sim_.run();
  EXPECT_EQ(net_.host(1).mailbox_size(), 2u);
  EXPECT_EQ(net_.stats().buffered_deliveries, 2u);
  EXPECT_EQ(net_.mss(1).buffered_count(1), 0u);
}

TEST_F(NetworkTest, DisconnectDuringWirelessLegBuffers) {
  net_.start({0, 0, 0, 0});
  net_.send_app_message(0, 1, 100);
  sim_.run_until(0.015);  // after uplink, during downlink
  net_.disconnect(1);
  sim_.run();
  EXPECT_EQ(net_.host(1).mailbox_size(), 0u);
  EXPECT_EQ(net_.mss(0).buffered_count(1), 1u);
  net_.reconnect(1, 0);
  sim_.run();
  EXPECT_EQ(net_.host(1).mailbox_size(), 1u);
}

TEST_F(NetworkTest, MessageToDisconnectedHostForwardsToLastMss) {
  net_.start({0, 1, 2, 0});
  net_.disconnect(1);  // last MSS = 1
  // Sender at MSS 2: message should travel to MSS 1 and be buffered there.
  net_.send_app_message(2, 1, 10);
  sim_.run();
  EXPECT_EQ(net_.mss(1).buffered_count(1), 1u);
}

TEST_F(NetworkTest, StatsCountControlMessages) {
  net_.start({0, 1, 2, 0});
  net_.switch_cell(0, 1);   // 2 control messages
  net_.disconnect(0);       // 1
  net_.reconnect(0, 2);     // 1
  EXPECT_EQ(net_.stats().control_messages, 4u);
  EXPECT_EQ(net_.stats().handoffs, 1u);
  EXPECT_EQ(net_.stats().disconnects, 1u);
  EXPECT_EQ(net_.stats().reconnects, 1u);
}

TEST(NetworkConfigTest, Validation) {
  NetworkConfig cfg;
  cfg.n_hosts = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = NetworkConfig{};
  cfg.n_mss = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = NetworkConfig{};
  cfg.wireless_latency = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = NetworkConfig{};
  cfg.duplicate_prob = 1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = NetworkConfig{};
  EXPECT_NO_THROW(cfg.validate());
}

/// Handler that stamps each message's id into its piggyback and checks
/// it back at receive time, watching what a recycled message looks like
/// when the next send starts from it.
class StampingHandler : public HostEventHandler {
 public:
  void on_host_init(MobileHost&) override {}
  void on_send(MobileHost& host, AppMessage& msg) override {
    if (msg.pb.vec_a.capacity() > 0) ++reused;
    // The header is the new message's, whatever the buffer carried.
    if (msg.src != host.id() || msg.send_pos != 0 || msg.sent_at != now()) ++stale_header;
    msg.pb.reset();
    msg.pb.sn = msg.id;
    msg.pb.has_sn = true;
    msg.pb.vec_a.assign(3, static_cast<u32>(msg.id));
  }
  void on_receive(MobileHost&, const AppMessage& msg) override {
    ++receives;
    const bool own = msg.pb.sn == msg.id && msg.pb.vec_a.size() == 3 &&
                     msg.pb.vec_a[0] == msg.id && msg.pb.vec_a[2] == msg.id;
    if (!own) ++mismatches;
  }
  void on_cell_switch(MobileHost&, MssId, MssId) override {}
  void on_disconnect(MobileHost&) override {}
  void on_reconnect(MobileHost&, MssId) override {}

  des::Time now() const { return sim->now(); }

  des::Simulator* sim = nullptr;
  int receives = 0, mismatches = 0, reused = 0, stale_header = 0;
};

TEST(NetworkRecycling, ConsumedMessagesAreReusedWithFreshHeaders) {
  des::Simulator sim;
  NetworkConfig cfg;
  cfg.n_hosts = 3;
  cfg.n_mss = 2;
  Network net(sim, cfg, 1);
  StampingHandler handler;
  handler.sim = &sim;
  net.set_handler(&handler);
  net.start({0, 1, 0});
  for (int i = 0; i < 10; ++i) {
    net.send_app_message(static_cast<HostId>(i % 2), 2, 16);
    sim.run();
    ASSERT_TRUE(net.consume_one(2));
  }
  EXPECT_EQ(handler.receives, 10);
  EXPECT_EQ(handler.mismatches, 0);
  EXPECT_EQ(handler.stale_header, 0);
  EXPECT_EQ(handler.reused, 9);  // every send after the first
}

TEST(NetworkRecycling, CrashDrainKeepsEachMessageWhole) {
  // Messages delivered but not consumed when the host crashes move to
  // its MSS's buffer and are re-delivered after restore, each with its
  // own piggyback — recycling only ever takes consumed messages.
  des::Simulator sim;
  NetworkConfig cfg;
  cfg.n_hosts = 3;
  cfg.n_mss = 2;
  Network net(sim, cfg, 1);
  StampingHandler handler;
  handler.sim = &sim;
  net.set_handler(&handler);
  net.start({0, 1, 0});
  net.send_app_message(0, 2, 16);
  sim.run();
  ASSERT_TRUE(net.consume_one(2));  // leaves one spare behind
  for (int i = 0; i < 4; ++i) net.send_app_message(static_cast<HostId>(i % 2), 2, 16);
  sim.run();
  ASSERT_EQ(net.host(2).mailbox_size(), 4u);
  net.crash(2);
  EXPECT_EQ(net.mss(0).buffered_count(2), 4u);
  net.restore(2, 1);
  sim.run();
  ASSERT_EQ(net.host(2).mailbox_size(), 4u);
  while (net.consume_one(2)) {
  }
  EXPECT_EQ(handler.receives, 5);
  EXPECT_EQ(handler.mismatches, 0);
}

class DuplicationTest : public ::testing::Test {
 protected:
  static NetworkConfig make_config(bool dedup) {
    NetworkConfig cfg;
    cfg.n_hosts = 2;
    cfg.n_mss = 1;
    cfg.duplicate_prob = 0.5;
    cfg.transport_dedup = dedup;
    return cfg;
  }
};

TEST_F(DuplicationTest, DedupSuppressesDuplicates) {
  des::Simulator sim;
  Network net(sim, make_config(true), 3);
  RecordingHandler handler;
  net.set_handler(&handler);
  net.start({0, 0});
  for (int i = 0; i < 200; ++i) net.send_app_message(0, 1, 1);
  sim.run();
  EXPECT_GT(net.stats().duplicates_generated, 20u);
  EXPECT_EQ(net.stats().duplicates_suppressed, net.stats().duplicates_generated);
  EXPECT_EQ(net.stats().app_delivered, 200u);
  EXPECT_EQ(net.host(1).mailbox_size(), 200u);
}

TEST_F(DuplicationTest, WithoutDedupAppSeesDuplicates) {
  des::Simulator sim;
  Network net(sim, make_config(false), 3);
  RecordingHandler handler;
  net.set_handler(&handler);
  net.start({0, 0});
  for (int i = 0; i < 200; ++i) net.send_app_message(0, 1, 1);
  sim.run();
  EXPECT_GT(net.stats().duplicates_generated, 20u);
  EXPECT_EQ(net.stats().duplicates_suppressed, 0u);
  EXPECT_EQ(net.stats().app_delivered, 200u + net.stats().duplicates_generated);
}

}  // namespace
}  // namespace mobichk::net
