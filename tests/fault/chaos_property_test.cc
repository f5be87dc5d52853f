#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "../chaos/chaos_harness.h"
#include "common/murmur.h"

/// The fault-model chaos sweep (DESIGN.md §7): a 3-node cluster with
/// 200 preloaded rows under a steady read-only load and a reactive
/// controller, with a random crash/restart/stall/chunk-failure/
/// misforecast plan per seed and an invariant check every virtual
/// second.

namespace pstore {
namespace {

/// One fingerprint over the migrator's whole move history, so the
/// replay test compares every record.
int64_t HistoryHash(const std::vector<MoveRecord>& history) {
  uint64_t h = 0;
  for (const MoveRecord& m : history) {
    const int64_t fields[] = {m.start,      m.end,     m.from_nodes,
                              m.to_nodes,   m.aborted, m.truncated};
    h = MurmurHash64A(fields, sizeof(fields), h);
  }
  return static_cast<int64_t>(h);
}

chaos::ChaosSpec FaultSpec() {
  chaos::ChaosSpec spec;
  spec.engine = testing_util::SmallEngineConfig();
  spec.engine.initial_nodes = 3;
  spec.reactive = chaos::StandardReactive();
  spec.reactive->headroom = 0.10;
  spec.chaos.horizon = 60 * kSecond;
  spec.chaos.num_events = 8;
  spec.chaos.max_window = 10 * kSecond;
  spec.chaos.max_stall = 2 * kSecond;
  // Steady read-only load (conservation stays exact under Gets).
  spec.rate = 40.0;
  spec.prescheduled = true;
  spec.run_seconds = 80.0;
  spec.settle_seconds = 30.0;
  spec.collect = [](const chaos::ChaosRig& rig, chaos::ChaosRun* run) {
    const std::vector<MoveRecord>& history = rig.migrator.history();
    run->counters["history_hash"] = HistoryHash(history);
    run->counters["runs_with_migration"] = history.empty() ? 0 : 1;
    run->counters["crashes"] = rig.injector.crashes();
    run->counters["rng_state"] =
        static_cast<int64_t>(rig.injector.rng_state_hash());
    run->counters["kb_moved_bits"] =
        std::bit_cast<int64_t>(rig.migrator.total_kb_moved());
  };
  spec.check_seed = [](uint64_t seed, const chaos::ChaosRun& run) {
    EXPECT_GT(run.checks_run, 60) << "seed " << seed;
  };
  // Crashes are unevenly distributed across seeds, so the floors sum
  // the whole sweep rather than a prefix.
  spec.floors = {{{"crashes"}, 10}, {{"runs_with_migration"}, 10}};
  spec.floor_seeds = 50;
  spec.diverging_seeds = {1, 2};
  return spec;
}

PSTORE_CHAOS_SWEEP(FaultSpec, ChaosSeedShard, ZeroInvariantViolations,
                   ChaosPropertyTest, SweepExercisesFaultMachinery,
                   GoldenSameSeedIdenticalReplay, DifferentSeedsDifferentRuns)

}  // namespace
}  // namespace pstore
