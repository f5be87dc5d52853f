#include <gtest/gtest.h>

#include "../chaos/chaos_harness.h"

/// Chaos sweep for the replication stack: random crash / restart /
/// replica-lag plans against a k=1 cluster running a write workload,
/// with scoped crash targeting (primary-heavy, backup-heavy) and a
/// reactive controller that treats recovery as overload. Every seed
/// must keep every invariant — placement sanity, primary/backup row-set
/// equality, k-safety restoration liveness, and rows_lost-aware
/// conservation.

namespace pstore {
namespace {

chaos::ChaosSpec ReplicationSpec() {
  chaos::ChaosSpec spec;
  spec.engine = chaos::ReplicatedEngineConfig();
  spec.reactive = chaos::StandardReactive();
  spec.chaos.horizon = 40 * kSecond;
  spec.chaos.num_events = 6;
  spec.chaos.max_window = 10 * kSecond;
  spec.chaos.max_stall = 20 * kMillisecond;
  // Crash/restart/replica-lag dominate: this suite is about failover,
  // re-replication, and recovery, not migration faults.
  spec.chaos.crash_weight = 2.0;
  spec.chaos.restart_weight = 2.0;
  spec.chaos.stall_weight = 0.5;
  spec.chaos.chunk_failure_weight = 0.5;
  spec.chaos.misforecast_weight = 0.0;
  spec.chaos.load_spike_weight = 0.5;
  spec.chaos.replica_lag_weight = 2.0;
  // Alternate scoped targeting on auto-picked crashes, deterministically
  // by event index, so the sweep exercises both heavy-side pickers.
  spec.shape_plan = [](FaultPlan* plan) {
    int crash_index = 0;
    for (FaultEvent& event : plan->events) {
      if (event.type != FaultType::kNodeCrash) continue;
      event.scope = (crash_index++ % 2 == 0) ? CrashScope::kPrimaryHeavy
                                             : CrashScope::kBackupHeavy;
    }
  };
  spec.write_every = 4;  // the write stream keeps backups busy
  spec.collect = [](const chaos::ChaosRig& rig, chaos::ChaosRun* run) {
    const replication::ReplicaManager& rep = *rig.engine.replication();
    run->counters["crashes"] = rig.injector.crashes();
    run->counters["restarts"] = rig.injector.restarts();
    run->counters["replica_lags"] = rig.injector.replica_lags();
    run->counters["promotions"] = rep.promotions();
    run->counters["applies"] = rep.applies();
    run->counters["rebuilds"] = rep.rebuilds_completed();
    run->counters["recoveries"] = rig.engine.recoveries();
    run->counters["rows_lost"] = rig.engine.rows_lost();
  };
  // Crashes promote backups, writes ship applies, lag windows open,
  // rebuilds restore k, restarts replay recovery, and the recovery-aware
  // controller scales out.
  spec.floors = {{{"crashes"}, 4},      {{"restarts"}, 2},
                 {{"replica_lags"}, 2}, {{"promotions"}, 20},
                 {{"applies"}, 2000},   {{"rebuilds"}, 20},
                 {{"recoveries"}, 2},   {{"scale_outs"}, 2}};
  return spec;
}

PSTORE_CHAOS_SWEEP(ReplicationSpec, ReplicationSeedShard,
                   ZeroViolationsWithActiveReplication, ReplicationChaosTest,
                   SweepExercisesReplicationMachinery,
                   SameSeedReplaysIdentically, DifferentSeedsDiverge)

}  // namespace
}  // namespace pstore
