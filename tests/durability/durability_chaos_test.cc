#include <gtest/gtest.h>

#include "../chaos/chaos_harness.h"
#include "durability/content_store.h"

/// Chaos sweep for the durability stack (DESIGN.md §14): random plans
/// mixing crash/restart with the storage faults (bit rot, torn writes,
/// disk stalls) against a k=1 cluster with the content-modeled store and
/// an active scrubber. Every seed must keep the durability tripwire at
/// zero (no corrupt record is ever replayed into live state), lose no
/// committed rows, and pass every placement / row-set invariant; the
/// replay test compares runs down to the durable store's digest.

namespace pstore {
namespace {

chaos::ChaosSpec DurabilitySpec() {
  chaos::ChaosSpec spec;
  spec.engine = chaos::ReplicatedEngineConfig();
  spec.engine.replication.durability.enabled = true;
  spec.engine.replication.durability.scrub_rate_kbps = 64.0;
  spec.chaos.horizon = 40 * kSecond;
  spec.chaos.num_events = 8;
  spec.chaos.max_window = 10 * kSecond;
  // Crash/restart keep restart-replay validation busy; the three
  // storage faults damage disks under it; everything else stays off so
  // failures implicate the durability machinery.
  spec.chaos.crash_weight = 2.0;
  spec.chaos.restart_weight = 2.0;
  spec.chaos.stall_weight = 0.0;
  spec.chaos.chunk_failure_weight = 0.0;
  spec.chaos.misforecast_weight = 0.0;
  spec.chaos.disk_corruption_weight = 2.0;
  spec.chaos.torn_write_weight = 1.0;
  spec.chaos.disk_stall_weight = 1.0;
  spec.write_every = 4;  // keeps the command logs and backups busy
  spec.collect = [](const chaos::ChaosRig& rig, chaos::ChaosRun* run) {
    const durability::ContentDurableStore* store =
        rig.engine.replication()->content();
    ASSERT_NE(store, nullptr);
    run->counters["store_hash"] = static_cast<int64_t>(store->StateHash());
    run->counters["crashes"] = rig.injector.crashes();
    run->counters["restarts"] = rig.injector.restarts();
    run->counters["disk_corruptions"] = rig.injector.disk_corruptions();
    run->counters["torn_writes"] = rig.injector.torn_writes();
    run->counters["disk_stalls"] = rig.injector.disk_stalls();
    run->counters["records_corrupted"] = store->records_corrupted();
    run->counters["records_torn"] = store->records_torn();
    run->counters["crc_detected"] = store->crc_failures_detected();
    run->counters["torn_detected"] = store->torn_segments_detected();
    run->counters["fallbacks"] = store->checkpoint_fallbacks();
    run->counters["rereplicates"] = store->replays_unrecoverable();
    run->counters["scrub_found"] = store->scrub_corruptions_found();
    run->counters["scrub_repairs"] = store->scrub_repairs();
    run->counters["corrupt_served"] = store->corrupt_records_served();
    run->counters["recoveries"] = rig.engine.recoveries();
    run->counters["rows_lost"] = rig.engine.rows_lost();
  };
  spec.check_seed = [](uint64_t seed, const chaos::ChaosRun& run) {
    // The tripwire: damaged bits must never reach live state, no
    // matter what the plan did to the disks.
    EXPECT_EQ(run.at("corrupt_served"), 0) << "seed " << seed;
    // k=1 and at most one node down at a time: every committed row
    // survives every plan.
    EXPECT_EQ(run.at("rows_lost"), 0) << "seed " << seed;
  };
  // The plans must actually damage disks, validation must detect
  // damage, and the scrubber must find and repair some of it.
  spec.floors = {{{"disk_corruptions"}, 2},
                 {{"torn_writes"}, 1},
                 {{"disk_stalls"}, 1},
                 {{"records_corrupted", "records_torn"}, 10},
                 {{"crc_detected", "torn_detected"}, 10},
                 {{"scrub_found"}, 0},
                 {{"scrub_repairs"}, 0},
                 {{"fallbacks", "rereplicates"}, 0},
                 {{"recoveries"}, 1}};
  return spec;
}

PSTORE_CHAOS_SWEEP(DurabilitySpec, DurabilitySeedShard,
                   NoCorruptRecordServedAndNoRowLost, DurabilityChaosTest,
                   SweepExercisesDurabilityMachinery,
                   SameSeedReplaysIdenticallyDownToTheStore,
                   DifferentSeedsDiverge)

}  // namespace
}  // namespace pstore
