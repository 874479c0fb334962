#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include "sim/sweep.hpp"

namespace mobichk::sim {
namespace {

SimConfig small_config(u64 seed = 1) {
  SimConfig cfg;
  cfg.sim_length = 5'000.0;
  cfg.t_switch = 500.0;
  cfg.p_switch = 0.8;
  cfg.seed = seed;
  return cfg;
}

TEST(Experiment, ProducesAllRequestedProtocols) {
  const RunResult r = run_experiment(small_config());
  ASSERT_EQ(r.protocols.size(), 3u);
  EXPECT_EQ(r.protocols[0].name, "TP");
  EXPECT_EQ(r.protocols[1].name, "BCS");
  EXPECT_EQ(r.protocols[2].name, "QBC");
  EXPECT_EQ(r.by_name("QBC").name, "QBC");
  EXPECT_THROW(r.by_name("nope"), std::out_of_range);
}

TEST(Experiment, NTotEqualsBasicPlusForced) {
  const RunResult r = run_experiment(small_config());
  for (const auto& p : r.protocols) {
    EXPECT_EQ(p.n_tot, p.basic + p.forced);
    EXPECT_EQ(p.total, p.n_tot + p.initial);
    EXPECT_EQ(p.initial, 10u);
  }
}

TEST(Experiment, BasicCheckpointsEqualMobilityEvents) {
  // Every handoff and every disconnection must yield exactly one basic
  // checkpoint in each of the paper's protocols.
  const RunResult r = run_experiment(small_config());
  const u64 mobility_events = r.net.handoffs + r.net.disconnects;
  for (const auto& p : r.protocols) {
    EXPECT_EQ(p.basic, mobility_events) << p.name;
  }
}

TEST(Experiment, SameSeedSameResult) {
  ExperimentOptions opts;
  opts.collect_trace_hash = true;
  const RunResult a = run_experiment(small_config(42), opts);
  const RunResult b = run_experiment(small_config(42), opts);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_NE(a.trace_hash, 0u);
  for (usize i = 0; i < a.protocols.size(); ++i) {
    EXPECT_EQ(a.protocols[i].n_tot, b.protocols[i].n_tot);
    EXPECT_EQ(a.protocols[i].max_index, b.protocols[i].max_index);
  }
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(Experiment, DifferentSeedsDiffer) {
  ExperimentOptions opts;
  opts.collect_trace_hash = true;
  const RunResult a = run_experiment(small_config(1), opts);
  const RunResult b = run_experiment(small_config(2), opts);
  EXPECT_NE(a.trace_hash, b.trace_hash);
}

TEST(Experiment, QueueImplementationsProduceIdenticalRuns) {
  ExperimentOptions heap_opts, list_opts;
  heap_opts.collect_trace_hash = true;
  heap_opts.queue_kind = des::QueueKind::kBinaryHeap;
  list_opts.collect_trace_hash = true;
  list_opts.queue_kind = des::QueueKind::kSortedList;
  const RunResult a = run_experiment(small_config(9), heap_opts);
  const RunResult b = run_experiment(small_config(9), list_opts);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  for (usize i = 0; i < a.protocols.size(); ++i) {
    EXPECT_EQ(a.protocols[i].n_tot, b.protocols[i].n_tot);
  }
}

TEST(Experiment, PairedObserversMatchSoloRuns) {
  // Running BCS alongside TP and QBC must give exactly the same counts as
  // running BCS alone: observers cannot perturb the trace.
  ExperimentOptions solo;
  solo.protocols = {core::ProtocolKind::kBcs};
  ExperimentOptions paired;  // default TP, BCS, QBC
  const RunResult a = run_experiment(small_config(5), solo);
  const RunResult b = run_experiment(small_config(5), paired);
  EXPECT_EQ(a.by_name("BCS").n_tot, b.by_name("BCS").n_tot);
  EXPECT_EQ(a.by_name("BCS").forced, b.by_name("BCS").forced);
  EXPECT_EQ(a.by_name("BCS").max_index, b.by_name("BCS").max_index);
}

TEST(Experiment, StorageAccountingActivates) {
  ExperimentOptions opts;
  opts.with_storage = true;
  opts.storage.full_state_bytes = 1000;
  const RunResult r = run_experiment(small_config(), opts);
  for (const auto& p : r.protocols) {
    EXPECT_GT(p.storage_wireless_bytes, 0u) << p.name;
  }
  // TP checkpoints more, so it must upload more checkpoint data.
  EXPECT_GT(r.by_name("TP").storage_wireless_bytes, r.by_name("BCS").storage_wireless_bytes);
}

TEST(Experiment, ConsistencyOracleFindsNoOrphans) {
  ExperimentOptions opts;
  opts.verify_consistency = true;
  const RunResult r = run_experiment(small_config(11), opts);
  for (const auto& p : r.protocols) {
    EXPECT_GT(p.lines_checked, 0u) << p.name;
    EXPECT_EQ(p.orphans_found, 0u) << p.name;
  }
}

TEST(Experiment, RunTwiceThrows) {
  Experiment exp(small_config(), ExperimentOptions{});
  exp.run();
  EXPECT_THROW(exp.run(), std::logic_error);
}

TEST(Experiment, TpPiggybackScalesWithHosts) {
  // Dense TP carries 2n integers per message; BCS/QBC carry one. The
  // sparse default encodes deltas, so its dense-equivalent counter pins
  // the same 2n-per-message cost while the encoded counter stays below.
  ExperimentOptions opts;
  opts.params.tp_encoding = core::TpEncoding::kDense;
  const RunResult r = run_experiment(small_config(), opts);
  const u64 sent = r.net.app_sent;
  EXPECT_EQ(r.by_name("TP").piggyback_bytes, sent * 2 * 10 * sizeof(u32));
  EXPECT_EQ(r.by_name("TP").piggyback_dense_bytes, sent * 2 * 10 * sizeof(u32));
  EXPECT_EQ(r.by_name("BCS").piggyback_bytes, sent * sizeof(u64));
  EXPECT_EQ(r.by_name("BCS").piggyback_dense_bytes, sent * sizeof(u64));
  EXPECT_EQ(r.by_name("QBC").piggyback_bytes, sent * sizeof(u64));
}

TEST(Experiment, SparseTpEncodedBytesBoundedByDense) {
  // Same trace, sparse encoding: the dense-equivalent counter must match
  // the paper-literal cost exactly while the encoded bytes stay strictly
  // below it (deltas replace full vectors on every message).
  const RunResult r = run_experiment(small_config());
  const u64 sent = r.net.app_sent;
  ASSERT_GT(sent, 0u);
  const auto& tp = r.by_name("TP");
  EXPECT_EQ(tp.piggyback_dense_bytes, sent * 2 * 10 * sizeof(u32));
  EXPECT_LT(tp.piggyback_bytes, tp.piggyback_dense_bytes);
  EXPECT_GT(tp.piggyback_bytes, 0u);
}

TEST(Sweep, RunParallelPreservesJobOrderAndDeterminism) {
  std::vector<SimConfig> configs;
  for (u64 s = 1; s <= 6; ++s) configs.push_back(small_config(s));
  const auto parallel = run_parallel(configs, ExperimentOptions{}, 3);
  const auto serial = run_parallel(configs, ExperimentOptions{}, 1);
  ASSERT_EQ(parallel.size(), 6u);
  for (usize i = 0; i < 6; ++i) {
    EXPECT_EQ(parallel[i].cfg.seed, configs[i].seed);
    for (usize k = 0; k < 3; ++k) {
      EXPECT_EQ(parallel[i].protocols[k].n_tot, serial[i].protocols[k].n_tot);
    }
  }
}

TEST(Sweep, FigureAggregatesSeeds) {
  FigureSpec spec;
  spec.title = "test";
  spec.base = small_config();
  spec.t_switch_values = {200.0, 2000.0};
  spec.min_seeds = 3;
  spec.max_seeds = 3;  // fixed replication: every cell gets exactly 3
  const FigureResult result = run_figure(spec);
  ASSERT_EQ(result.cells.size(), 2u);
  ASSERT_EQ(result.cells[0].size(), 3u);
  for (const auto& row : result.cells) {
    for (const auto& tally : row) EXPECT_EQ(tally.count(), 3u);
  }
  // More mobility at T_switch = 200 => more checkpoints for index-based
  // protocols.
  EXPECT_GT(result.mean(0, 1), result.mean(1, 1));
  // Gains are finite percentages.
  const f64 gain = result.gain_percent(0, 0, 1);
  EXPECT_GT(gain, 0.0);
  EXPECT_LT(gain, 100.0);
}

TEST(Sweep, FigurePrintAndCsv) {
  FigureSpec spec;
  spec.title = "print-test";
  spec.base = small_config();
  spec.t_switch_values = {500.0};
  spec.min_seeds = 2;
  spec.max_seeds = 2;
  const FigureResult result = run_figure(spec);
  std::ostringstream table, csv;
  result.print(table);
  result.write_csv(csv);
  EXPECT_NE(table.str().find("print-test"), std::string::npos);
  EXPECT_NE(table.str().find("QBC"), std::string::npos);
  EXPECT_NE(csv.str().find("t_switch,TP_mean"), std::string::npos);
  EXPECT_GE(result.max_relative_spread(), 0.0);
}

}  // namespace
}  // namespace mobichk::sim
