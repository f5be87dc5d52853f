#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>

#include "../chaos/chaos_harness.h"
#include "overload/retry_budget.h"

/// Chaos sweep for the overload-control stack: node crashes and load
/// spikes against a cluster running bounded queues, deadline shedding,
/// priority eviction, per-node breakers, breaker-aware reactive scaling,
/// and a client retry budget. Every seed must keep every invariant
/// (including shed conservation).

namespace pstore {
namespace {

/// The client side: sheds re-enter through a token-bucket retry budget
/// with jittered backoff on a dedicated Rng stream.
class RetryingClient final : public chaos::ChaosPart {
 public:
  explicit RetryingClient(chaos::ChaosRig& rig)
      : sim_(rig.sim),
        engine_(rig.engine),
        budget_(policy_),
        rng_(rig.seed ^ 0x94d049bb133111ebULL) {
    rig.submit = [this](TxnRequest req) { Submit(std::move(req), 0); };
  }

  void Collect(chaos::ChaosRun* run) const override {
    run->counters["retries"] = retries_;
  }

 private:
  void Submit(TxnRequest req, int32_t attempt) {
    if (attempt == 0) budget_.OnRequest();
    TxnRequest copy = req;
    engine_.Submit(std::move(req), [this, copy = std::move(copy),
                                    attempt](const TxnResult& result) mutable {
      if (!result.shed) return;
      if (attempt + 1 >= policy_.max_attempts) return;
      if (!budget_.TrySpend()) return;
      ++retries_;
      sim_.Schedule(budget_.Backoff(attempt + 1, &rng_),
                    [this, copy = std::move(copy), attempt]() mutable {
                      Submit(std::move(copy), attempt + 1);
                    });
    });
  }

  Simulator& sim_;
  ClusterEngine& engine_;
  overload::RetryPolicy policy_;
  overload::RetryBudget budget_;
  Rng rng_;
  int64_t retries_ = 0;
};

/// 3 nodes saturating at ~300 txn/s, a 100 txn/s base load amplified
/// live by kLoadSpike windows (2x-8x), crash/restart faults in the same
/// plan, and shed-aware retries.
chaos::ChaosSpec OverloadSpec() {
  chaos::ChaosSpec spec;
  spec.engine = testing_util::SmallEngineConfig();
  spec.engine.initial_nodes = 3;
  spec.engine.txn_service_us_mean = 20000.0;  // ~50 txn/s per partition
  spec.engine.overload.enabled = true;
  spec.engine.overload.max_queue_depth = 16;
  spec.engine.overload.queue_deadline = 200 * kMillisecond;
  spec.engine.overload.policy = overload::AdmissionPolicy::kPriorityShed;
  spec.engine.overload.breaker.window = kSecond;
  spec.engine.overload.breaker.shed_threshold = 0.2;
  spec.engine.overload.breaker.min_samples = 20;
  spec.engine.overload.breaker.cooldown = 3 * kSecond;
  spec.reactive = chaos::StandardReactive();
  spec.reactive->headroom = 0.10;
  spec.chaos.horizon = 40 * kSecond;
  spec.chaos.num_events = 6;
  spec.chaos.max_window = 10 * kSecond;
  spec.chaos.max_stall = 2 * kSecond;
  // Crashes and load spikes dominate the mix: this suite is about
  // overload behaviour under failures, not migration faults.
  spec.chaos.crash_weight = 2.0;
  spec.chaos.restart_weight = 1.0;
  spec.chaos.stall_weight = 0.5;
  spec.chaos.chunk_failure_weight = 0.5;
  spec.chaos.misforecast_weight = 0.5;
  spec.chaos.load_spike_weight = 3.0;
  spec.follow_injected_load = true;
  spec.settle_seconds = 30.0;
  spec.before_load = [](chaos::ChaosRig& rig) {
    return std::make_unique<RetryingClient>(rig);
  };
  spec.collect = [](const chaos::ChaosRig& rig, chaos::ChaosRun* run) {
    run->counters["shed"] = rig.engine.txns_shed();
    run->counters["breaker_trips"] = rig.engine.admission()->total_trips();
    run->counters["load_spikes"] = rig.injector.load_spikes();
    run->counters["crashes"] = rig.injector.crashes();
  };
  // Spikes fire, queues shed, breakers trip, retries spend budget, and
  // the breaker-aware controller scales out as its safety net.
  spec.floors = {{{"load_spikes"}, 4}, {{"crashes"}, 2},
                 {{"shed"}, 200},      {{"breaker_trips"}, 2},
                 {{"retries"}, 20},    {{"scale_outs"}, 2}};
  return spec;
}

PSTORE_CHAOS_SWEEP(OverloadSpec, OverloadSeedShard,
                   ZeroViolationsWithActiveOverload, OverloadChaosTest,
                   SweepExercisesOverloadMachinery, SameSeedReplaysIdentically,
                   DifferentSeedsDiverge)

}  // namespace
}  // namespace pstore
