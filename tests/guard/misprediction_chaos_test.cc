#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../chaos/chaos_harness.h"
#include "core/predictive_controller.h"
#include "prediction/spar.h"

/// \file misprediction_chaos_test.cc
/// 50-seed misprediction chaos sweep (DESIGN.md §16). Each seed drives a
/// SPAR-fed PredictiveController with the forecast-divergence guard
/// enabled through a random control-plane fault mix — flash crowds the
/// forecast cannot see, trace dropouts that starve the controller of
/// fresh telemetry, plus crashes, restarts and migration faults. The
/// hard lines: zero invariant violations (so no bucket is ever stranded
/// or double-owned by an aborted plan), plan-repair bookkeeping that
/// reconciles exactly, and guard counters that obey their own algebra.

namespace pstore {
namespace {

/// SPAR fitted on four minutes of seasonal history at 2 s slots; the
/// sweep offers the same base load, so only the injected flash crowds
/// (which the forecast never sees) cause divergence. Started once the
/// plan is armed, with the injector's dropout windows as its probe.
class GuardedController final : public chaos::ChaosPart {
 public:
  static std::unique_ptr<chaos::ChaosPart> Start(chaos::ChaosRig& rig) {
    auto part = std::make_unique<GuardedController>(rig);
    part->controller_.Start();
    return part;
  }

  explicit GuardedController(chaos::ChaosRig& rig)
      : spar_(SparConfigFor()),
        controller_(&rig.engine, &rig.migrator, &spar_, Config()) {
    std::vector<double> history;
    for (int32_t i = 0; i < 120; ++i) {
      history.push_back(200.0 + 20.0 * std::sin(2.0 * M_PI * i / 30.0));
    }
    EXPECT_TRUE(spar_.Fit(history, Config().horizon_intervals).ok());
    controller_.SeedHistory(std::move(history));
    controller_.set_trace_dropout_probe(
        [&injector = rig.injector]() {
          return injector.trace_dropout_active();
        });
  }

  void Stop() override { controller_.Stop(); }

  void Collect(chaos::ChaosRun* run) const override {
    run->counters["divergences"] = controller_.guard_monitor()->divergences();
    run->counters["rejoins"] = controller_.guard_monitor()->rejoins();
    run->counters["vetoes"] = controller_.guard_vetoes();
    run->counters["plan_repairs"] = controller_.plan_repairs();
  }

 private:
  static SparConfig SparConfigFor() {
    SparConfig spar;
    spar.period = 30;
    spar.num_periods = 2;
    spar.num_recent = 5;
    return spar;
  }

  static ControllerConfig Config() {
    ControllerConfig pc;
    pc.move_model.q = 100.0;
    pc.move_model.partitions_per_node = 2;
    pc.move_model.d_minutes = 0.6;
    pc.move_model.interval_minutes = 2.0 / 60.0;
    pc.q_hat = 125.0;
    pc.horizon_intervals = 8;
    pc.prediction_inflation = 0.15;
    pc.guard.enabled = true;
    return pc;
  }

  SparPredictor spar_;
  PredictiveController controller_;
};

chaos::ChaosSpec MispredictionSpec() {
  chaos::ChaosSpec spec;
  spec.engine = testing_util::SmallEngineConfig();
  spec.engine.initial_nodes = 3;
  spec.migration.rate_kbps = 500;  // Slow moves: repairs catch them mid-flight.
  spec.migration.wire_kbps = 50000;
  // The control-plane faults dominate the mix, with crashes, restarts
  // and migration faults riding along so repairs race real failures.
  spec.chaos.horizon = 60 * kSecond;
  spec.chaos.num_events = 8;
  spec.chaos.max_window = 15 * kSecond;
  spec.chaos.max_stall = 2 * kSecond;
  spec.chaos.flash_crowd_weight = 3.0;
  spec.chaos.trace_dropout_weight = 2.0;
  spec.after_arm = GuardedController::Start;
  // 200 txn/s base, multiplied live by the injector's offered load
  // scale so flash-crowd windows genuinely surge while the forecast
  // path stays blind to them.
  spec.rate = 200.0;
  spec.follow_injected_load = true;
  spec.settle_seconds = 20.0;
  spec.collect = [](const chaos::ChaosRig& rig, chaos::ChaosRun* run) {
    run->counters["flash_crowds"] = rig.injector.flash_crowds();
    run->counters["trace_dropouts"] = rig.injector.trace_dropouts();
    run->counters["crashes"] = rig.injector.crashes();
    run->counters["moves_truncated"] = rig.migrator.moves_truncated();
    run->counters["moves_aborted"] = rig.migrator.moves_aborted();
  };
  spec.check_seed = [](uint64_t seed, const chaos::ChaosRun& run) {
    // Repair bookkeeping reconciles: the controller's repairs are the
    // only source of truncation, and truncations abort.
    EXPECT_EQ(run.at("plan_repairs"), run.at("moves_truncated"))
        << "seed " << seed;
    EXPECT_LE(run.at("moves_truncated"), run.at("moves_aborted"))
        << "seed " << seed;
    // Guard algebra: rejoins never outnumber divergences, and each
    // divergence vetoes at least the window that confirmed it.
    EXPECT_LE(run.at("rejoins"), run.at("divergences")) << "seed " << seed;
    EXPECT_GE(run.at("vetoes"), run.at("divergences")) << "seed " << seed;
    // With no flash crowd drawn, the forecast matches the offered load
    // and the guard must never fire (dropouts alone feed it stale but
    // *accurate* samples of the steady base).
    if (run.at("flash_crowds") == 0 && run.at("crashes") == 0) {
      EXPECT_EQ(run.at("divergences"), 0) << "seed " << seed;
    }
  };
  // Flash crowds and dropouts fire, the guard diverges, vetoes and
  // rejoins, and at least one repair truncates a move mid-flight.
  spec.floors = {{{"flash_crowds"}, 10}, {{"trace_dropouts"}, 5},
                 {{"divergences"}, 4},   {{"vetoes"}, 40},
                 {{"rejoins"}, 0},       {{"plan_repairs"}, 0}};
  return spec;
}

PSTORE_CHAOS_SWEEP(MispredictionSpec, MispredictionSeedShard,
                   GuardedControlSurvivesMispredictionChaos,
                   MispredictionChaosTest, SweepExercisesGuardMachinery,
                   SameSeedReplaysIdentically, DifferentSeedsDiverge)

}  // namespace
}  // namespace pstore
