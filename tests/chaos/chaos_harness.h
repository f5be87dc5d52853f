#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "../test_util.h"
#include "cluster/engine.h"
#include "core/reactive_controller.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "migration/migration_executor.h"
#include "sim/simulator.h"

/// \file chaos_harness.h
/// The one harness behind every 50-seed chaos sweep. A sweep is a
/// ChaosSpec (engine/chaos config, load shape, controller, hooks) plus a
/// per-seed predicate; PSTORE_CHAOS_SWEEP generates its shared tests:
/// ten 5-seed shards, the "machinery exercised" aggregate floors, the
/// same-seed replay test and the different-seed divergence test.
///
/// One run: load kRows rows, build the migrator, start the reactive
/// controller (if any), draw the plan from `seed ^ 0x9e3779b97f4a7c15`,
/// arm the injector, audit every virtual second, offer load for the run
/// window, stop, settle, and run a final Check(). Every step schedules
/// in that fixed order, so a seed replays byte-identically.

namespace pstore::chaos {

/// Rows every run preloads (keys 0 .. kRows-1).
inline constexpr int64_t kRows = 200;

/// Everything observable about one run.
struct ChaosRun {
  std::string plan;
  std::string trace;
  uint64_t trace_fingerprint = 0;
  std::vector<std::string> violations;
  int64_t events_executed = 0;
  int64_t committed = 0;
  int64_t checks_run = 0;
  /// Counters by name: the suite's (injector, engine, migrator,
  /// controller) plus the harness's "completions_hash" of per-partition
  /// completions, which pins where every txn ran.
  std::map<std::string, int64_t> counters;

  /// The named counter; fails the test if the suite never set it.
  int64_t at(const std::string& name) const;
};

/// The live objects of one run, handed to a spec's hooks.
struct ChaosRig {
  uint64_t seed;
  const testing_util::KvDatabase& db;
  Simulator& sim;
  ClusterEngine& engine;
  MigrationExecutor& migrator;
  FaultInjector& injector;
  /// How the load generator submits each txn (default: engine.Submit).
  std::function<void(TxnRequest)> submit;
};

/// Per-run state a hook adds to the run (overload's retrying client,
/// guard's predictive controller). The harness keeps it alive until the
/// run ends, stops it right after the checker, and collects its
/// counters last.
class ChaosPart {
 public:
  ChaosPart() = default;
  ChaosPart(const ChaosPart&) = delete;  // callbacks hold `this`
  ChaosPart& operator=(const ChaosPart&) = delete;
  virtual ~ChaosPart() = default;
  virtual void Stop() {}
  virtual void Collect(ChaosRun* run) const = 0;
};

using PartHook = std::function<std::unique_ptr<ChaosPart>(ChaosRig&)>;

/// A "machinery exercised" floor: summed over the aggregate's seeds, the
/// named counters must exceed `above`.
struct Floor {
  std::vector<std::string> counters;
  int64_t above = 0;
};

/// 100 kB chunks at 10 MB/s over a 100 MB/s wire, 10 MB database.
MigrationOptions StandardMigration();

/// q = 100, q_hat = 125, high watermark 0.9, 1 s ticks, 5 s scale-in hold.
ReactiveConfig StandardReactive();

/// 3 nodes, 5 ms service, k = 1 with a 10 MB rebuild model and 5 s
/// checkpoints.
EngineConfig ReplicatedEngineConfig();

struct ChaosSpec {
  EngineConfig engine;
  MigrationOptions migration = StandardMigration();
  ChaosConfig chaos;
  /// Reactive controller, fed the engine's breakers and started before
  /// the plan is armed; its scale-outs are counted as "scale_outs".
  std::optional<ReactiveConfig> reactive;

  /// Offered load: `rate` txn/s on keys (i * 48271) % kRows, Gets except
  /// every `write_every`-th txn, a Put (0 = read-only).
  double rate = 100.0;
  int32_t write_every = 0;
  /// Scale the rate live by the injector's offered-load multiplier
  /// (load spikes, flash crowds).
  bool follow_injected_load = false;
  /// Schedule the whole window up front instead of a self-scheduling
  /// chain (the two orders tie-break differently at equal times).
  bool prescheduled = false;
  double run_seconds = 60.0;
  double settle_seconds = 60.0;

  /// Edits the drawn plan before it is armed.
  std::function<void(FaultPlan*)> shape_plan;
  /// Runs right after the plan is armed, before the checker starts.
  PartHook after_arm;
  /// Runs after the checker starts, right before the load does.
  PartHook before_load;
  /// Adds the suite's counters to the finished run.
  std::function<void(const ChaosRig&, ChaosRun*)> collect;
  /// Suite-specific per-seed assertions. The harness itself asserts no
  /// violations, a clean final Check(), checks_run > 0, committed > 0.
  std::function<void(uint64_t seed, const ChaosRun&)> check_seed;

  std::vector<Floor> floors;
  uint64_t floor_seeds = 10;  ///< Floors sum over seeds 1 .. floor_seeds.
  std::pair<uint64_t, uint64_t> diverging_seeds = {3, 4};
};

ChaosRun RunChaos(const ChaosSpec& spec, uint64_t seed);

// The shared tests, one function each; PSTORE_CHAOS_SWEEP wires them up.
inline constexpr uint64_t kSeedsPerShard = 5;
void ExpectShardHolds(const ChaosSpec& spec, uint64_t first_seed);
void ExpectMachineryExercised(const ChaosSpec& spec);
void ExpectSameSeedReplaysIdentically(const ChaosSpec& spec);
void ExpectDifferentSeedsDiverge(const ChaosSpec& spec);

}  // namespace pstore::chaos

/// Generates a sweep's tests from `spec_fn` (a function returning its
/// ChaosSpec): `Shard.ShardTest` over seeds 1..50 in 5-seed shards (the
/// parameter is the first seed) and, in `Suite`, the aggregate floors,
/// the same-seed replay (seed 42) and the different-seed divergence.
#define PSTORE_CHAOS_SWEEP(spec_fn, Shard, ShardTest, Suite, FloorsTest,   \
                           ReplayTest, DivergeTest)                        \
  class Shard : public ::testing::TestWithParam<uint64_t> {};              \
  TEST_P(Shard, ShardTest) {                                               \
    ::pstore::chaos::ExpectShardHolds(spec_fn(), GetParam());              \
  }                                                                        \
  INSTANTIATE_TEST_SUITE_P(                                                \
      FiftySeeds, Shard,                                                   \
      ::testing::Range(uint64_t{1}, uint64_t{51},                          \
                       ::pstore::chaos::kSeedsPerShard));                  \
  TEST(Suite, FloorsTest) {                                                \
    ::pstore::chaos::ExpectMachineryExercised(spec_fn());                  \
  }                                                                        \
  TEST(Suite, ReplayTest) {                                                \
    ::pstore::chaos::ExpectSameSeedReplaysIdentically(spec_fn());          \
  }                                                                        \
  TEST(Suite, DivergeTest) {                                               \
    ::pstore::chaos::ExpectDifferentSeedsDiverge(spec_fn());               \
  }
