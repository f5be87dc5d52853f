#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "../chaos/chaos_harness.h"
#include "../test_util.h"
#include "fault/fault_injector.h"

/// Chaos sweep for the network substrate: random partition / loss /
/// delay plans (with crashes mixed in) against a k=1 cluster running a
/// write workload while a scale-out migrates buckets through the fault
/// windows. Every seed must keep every invariant — no dual-commit
/// (split-brain), no double-applied chunk, conserved rows and messages,
/// row-set equality after heal. A final set of tests pins the opt-in
/// contract: with net.enabled=false no NetworkModel exists, net faults
/// draw nothing from any Rng stream, and runs are byte-identical across
/// arbitrary (disabled) NetConfig values.

namespace pstore {
namespace {

using testing_util::MakeKvDatabase;
using testing_util::SmallEngineConfig;

/// Net enabled, mixed Put/Get load, a 2 s scale-out racing the fault
/// plan (partition-during-migration), and a net-heavy random plan.
chaos::ChaosSpec NetSpec() {
  chaos::ChaosSpec spec;
  spec.engine = chaos::ReplicatedEngineConfig();
  spec.engine.net.enabled = true;
  spec.reactive = chaos::StandardReactive();
  spec.chaos.horizon = 40 * kSecond;
  spec.chaos.num_events = 6;
  spec.chaos.max_window = 10 * kSecond;
  spec.chaos.max_stall = 20 * kMillisecond;
  // Net faults dominate: this suite is about partitions, message loss
  // and fencing, with enough crash/restart mixed in to interleave the
  // two failure modes (a crash during a partition must still promote).
  spec.chaos.crash_weight = 0.5;
  spec.chaos.restart_weight = 0.5;
  spec.chaos.stall_weight = 0.0;
  spec.chaos.chunk_failure_weight = 0.0;
  spec.chaos.misforecast_weight = 0.0;
  spec.chaos.net_partition_weight = 2.0;
  spec.chaos.net_loss_weight = 1.5;
  spec.chaos.net_delay_weight = 1.0;
  spec.write_every = 4;
  // A scale-out racing the whole plan: its chunk streams cross every
  // partition/loss window the plan opens (the titular scenario).
  spec.before_load = [](chaos::ChaosRig& rig) {
    rig.sim.ScheduleAt(2 * kSecond, [&migrator = rig.migrator]() {
      (void)migrator.StartMove(5, nullptr);
    });
    return nullptr;
  };
  spec.collect = [](const chaos::ChaosRig& rig, chaos::ChaosRun* run) {
    run->counters["net_partitions"] = rig.injector.net_partitions();
    run->counters["net_losses"] = rig.injector.net_losses();
    run->counters["net_delays"] = rig.injector.net_delays();
    run->counters["suspicions"] = rig.engine.suspicions();
    run->counters["fenced_failovers"] = rig.engine.fenced_failovers();
    run->counters["fenced_rejections"] = rig.engine.fenced_rejections();
    run->counters["fenced_commits"] = rig.engine.fenced_commits();
    run->counters["net_retransmits"] = rig.migrator.net_retransmits();
    run->counters["net_double_applies"] = rig.migrator.net_double_applies();
    run->counters["msgs_dropped"] =
        rig.engine.net()->messages_dropped_partition() +
        rig.engine.net()->messages_dropped_loss();
    run->counters["degraded_at_end"] =
        rig.engine.replication()->degraded_buckets();
    run->counters["rows_at_end"] = rig.engine.TotalRowCount();
    run->counters["rows_lost"] = rig.engine.rows_lost();
    run->counters["rows_net_created"] = rig.engine.rows_net_created();
  };
  spec.check_seed = [](uint64_t seed, const chaos::ChaosRun& run) {
    // The two split-brain tripwires, per seed, unconditionally.
    EXPECT_EQ(run.at("fenced_commits"), 0) << "seed " << seed;
    EXPECT_EQ(run.at("net_double_applies"), 0) << "seed " << seed;
    // Row conservation after heal: crash losses are accounted, and the
    // write workload may legally re-create lost keys via upsert.
    EXPECT_EQ(run.at("rows_at_end"), chaos::kRows - run.at("rows_lost") +
                                         run.at("rows_net_created"))
        << "seed " << seed;
  };
  // Partitions open, messages drop, nodes get suspected and fenced,
  // failovers run, the commit gate rejects, and the chunk protocol
  // retransmits.
  spec.floors = {{{"net_partitions"}, 6},    {{"net_losses"}, 4},
                 {{"net_delays"}, 3},        {{"suspicions"}, 6},
                 {{"fenced_failovers"}, 2},  {{"fenced_rejections"}, 10},
                 {{"net_retransmits"}, 2},   {{"msgs_dropped"}, 200}};
  return spec;
}

PSTORE_CHAOS_SWEEP(NetSpec, NetSeedShard, NoSplitBrainNoDoubleApply,
                   NetChaosTest, SweepExercisesNetworkMachinery,
                   SameSeedReplaysIdentically, DifferentSeedsDiverge)

// ---- The opt-in contract (Rng stream audit regressions) -------------

/// A baseline (net-off) run, parameterized by a NetConfig whose
/// `enabled` stays false: every field of the disabled config must be
/// inert, or toggling unrelated knobs would perturb golden traces.
std::pair<int64_t, int64_t> RunBaseline(net::NetConfig net) {
  auto db = MakeKvDatabase();
  Simulator sim;
  EngineConfig config = SmallEngineConfig();
  config.initial_nodes = 3;
  config.replication.enabled = true;
  config.replication.k = 1;
  config.replication.db_size_mb = 10.0;
  config.replication.rebuild_chunk_kb = 100.0;
  config.replication.rebuild_rate_kbps = 10000.0;
  config.replication.wire_kbps = 100000.0;
  config.net = net;
  ClusterEngine engine(&sim, db.catalog, db.registry, config);
  EXPECT_EQ(engine.net(), nullptr);
  const int64_t rows = 100;
  for (int64_t k = 0; k < rows; ++k) {
    EXPECT_TRUE(engine.LoadRow(db.table, Row({Value(k), Value(k)})).ok());
  }
  MigrationOptions opts;
  opts.chunk_kb = 100;
  opts.rate_kbps = 10000;
  opts.wire_kbps = 100000;
  opts.db_size_mb = 10;
  MigrationExecutor migrator(&engine, opts);
  (void)migrator.StartMove(5, nullptr);
  for (int64_t i = 0; i < 200; ++i) {
    TxnRequest req;
    req.key = i % rows;
    req.proc = i % 4 == 0 ? db.put : db.get;
    if (i % 4 == 0) req.args.push_back(Value(i));
    sim.ScheduleAt(i * 10 * kMillisecond,
                   [&engine, req]() { engine.Submit(req); });
  }
  sim.RunUntil(30 * kSecond);
  return {sim.events_executed(), engine.txns_committed()};
}

TEST(NetOffIdentityTest, DisabledNetConfigKnobsAreInert) {
  const auto base = RunBaseline(net::NetConfig{});
  net::NetConfig wild;
  wild.enabled = false;  // still off — but every other knob extreme
  wild.min_latency_us = 5000.0;
  wild.mean_latency_us = 50000.0;
  wild.heartbeat_period = kMillisecond;
  wild.suspicion_timeout = 2 * kMillisecond;
  wild.lease_timeout = 3 * kMillisecond;
  wild.failover_timeout = 4 * kMillisecond;
  wild.retransmit_timeout_factor = 100.0;
  EXPECT_EQ(base, RunBaseline(wild));
  EXPECT_GT(base.second, 0);
}

TEST(NetOffIdentityTest, NetFaultEventsDrawNothingWhenSubstrateOff) {
  auto db = MakeKvDatabase();
  Simulator sim;
  EngineConfig config = SmallEngineConfig();
  ClusterEngine engine(&sim, db.catalog, db.registry, config);
  MigrationOptions opts;
  opts.chunk_kb = 100;
  opts.rate_kbps = 10000;
  opts.wire_kbps = 100000;
  opts.db_size_mb = 10;
  MigrationExecutor migrator(&engine, opts);

  const uint64_t seed = 77;
  FaultPlan plan;
  for (int i = 0; i < 3; ++i) {
    FaultEvent e;
    e.at = (i + 1) * kSecond;
    e.type = i == 0 ? FaultType::kNetPartition
                    : i == 1 ? FaultType::kNetLoss : FaultType::kNetDelay;
    e.duration = kSecond;
    e.probability = 0.5;
    e.stall = kMillisecond;
    plan.events.push_back(e);
  }
  FaultInjector injector(&engine, &migrator, seed);
  ASSERT_TRUE(injector.Arm(plan).ok());
  sim.RunUntil(10 * kSecond);
  // Every event fired, was recorded as skipped, and consumed NOTHING
  // from the injector's Rng — the stream audit that keeps pre-existing
  // chaos traces byte-identical when this binary gains net fault types.
  EXPECT_EQ(injector.net_partitions(), 0);
  EXPECT_EQ(injector.net_losses(), 0);
  EXPECT_EQ(injector.net_delays(), 0);
  EXPECT_EQ(injector.rng_state_hash(), Rng(seed).StateHash());
  EXPECT_NE(injector.trace().ToString().find("skipped"), std::string::npos);
}

TEST(NetOffIdentityTest, DefaultChaosPlansContainNoNetFaults) {
  // The net weights sit in trailing zero-weight buckets: default plans
  // must never draw a net event (pre-existing seeds stay unchanged).
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    ChaosConfig chaos;
    chaos.num_events = 20;
    const FaultPlan plan = RandomFaultPlan(&rng, chaos);
    for (const FaultEvent& e : plan.events) {
      EXPECT_NE(e.type, FaultType::kNetPartition) << "seed " << seed;
      EXPECT_NE(e.type, FaultType::kNetLoss) << "seed " << seed;
      EXPECT_NE(e.type, FaultType::kNetDelay) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace pstore
