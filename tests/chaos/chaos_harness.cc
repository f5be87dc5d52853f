#include "chaos_harness.h"

#include "common/murmur.h"
#include "fault/invariant_checker.h"

namespace pstore::chaos {

int64_t ChaosRun::at(const std::string& name) const {
  const auto it = counters.find(name);
  if (it == counters.end()) {
    ADD_FAILURE() << "run has no counter \"" << name << "\"";
    return 0;
  }
  return it->second;
}

MigrationOptions StandardMigration() {
  MigrationOptions migration;
  migration.chunk_kb = 100;
  migration.rate_kbps = 10000;
  migration.wire_kbps = 100000;
  migration.db_size_mb = 10;
  return migration;
}

ReactiveConfig StandardReactive() {
  ReactiveConfig reactive;
  reactive.q = 100.0;
  reactive.q_hat = 125.0;
  reactive.high_watermark = 0.9;
  reactive.monitor_period = kSecond;
  reactive.scale_in_hold = 5 * kSecond;
  return reactive;
}

EngineConfig ReplicatedEngineConfig() {
  EngineConfig config = testing_util::SmallEngineConfig();
  config.initial_nodes = 3;
  config.txn_service_us_mean = 5000.0;
  config.replication.enabled = true;
  config.replication.k = 1;
  config.replication.db_size_mb = 10.0;
  config.replication.rebuild_chunk_kb = 100.0;
  config.replication.rebuild_rate_kbps = 10000.0;
  config.replication.wire_kbps = 100000.0;
  config.replication.checkpoint_period = 5 * kSecond;
  return config;
}

namespace {

TxnRequest MakeRequest(const ChaosSpec& spec, const ChaosRig& rig,
                       int64_t i) {
  TxnRequest req;
  req.key = (i * 48271) % kRows;
  if (spec.write_every > 0 && i % spec.write_every == 0) {
    req.proc = rig.db.put;
    req.args.push_back(Value(i));
  } else {
    req.proc = rig.db.get;
  }
  return req;
}

/// Offers the spec's load over [0, run_seconds). The returned chain (if
/// any) must outlive the simulation.
std::shared_ptr<std::function<void(int64_t)>> StartLoad(const ChaosSpec& spec,
                                                       ChaosRig& rig) {
  if (spec.prescheduled) {
    const auto n = static_cast<int64_t>(spec.rate * spec.run_seconds);
    for (int64_t i = 0; i < n; ++i) {
      rig.sim.ScheduleAt(
          SecondsToDuration(static_cast<double>(i) / spec.rate),
          [&rig, req = MakeRequest(spec, rig, i)]() { rig.submit(req); });
    }
    return nullptr;
  }
  auto generate = std::make_shared<std::function<void(int64_t)>>();
  *generate = [&spec, &rig, self = generate.get()](int64_t i) {
    if (rig.sim.Now() >= SecondsToDuration(spec.run_seconds)) return;
    rig.submit(MakeRequest(spec, rig, i));
    const double rate =
        spec.rate *
        (spec.follow_injected_load ? rig.injector.offered_load_scale() : 1.0);
    const auto gap = static_cast<SimDuration>(1e6 / rate);
    rig.sim.Schedule(gap < 1 ? 1 : gap, [self, i]() { (*self)(i + 1); });
  };
  rig.sim.Schedule(0, [self = generate.get()]() { (*self)(0); });
  return generate;
}

void ExpectSeedHolds(const ChaosSpec& spec, uint64_t seed) {
  const ChaosRun run = RunChaos(spec, seed);
  EXPECT_TRUE(run.violations.empty())
      << "seed " << seed << ": " << run.violations.size()
      << " violations; first: " << run.violations[0] << "\nplan:\n"
      << run.plan << "\ntrace:\n"
      << run.trace;
  EXPECT_GT(run.checks_run, 0) << "seed " << seed;
  EXPECT_GT(run.committed, 0) << "seed " << seed;
  if (spec.check_seed) spec.check_seed(seed, run);
}

}  // namespace

ChaosRun RunChaos(const ChaosSpec& spec, uint64_t seed) {
  const testing_util::KvDatabase db = testing_util::MakeKvDatabase();
  Simulator sim;
  ClusterEngine engine(&sim, db.catalog, db.registry, spec.engine);
  for (int64_t k = 0; k < kRows; ++k) {
    EXPECT_TRUE(engine.LoadRow(db.table, Row({Value(k), Value(k)})).ok());
  }
  MigrationExecutor migrator(&engine, spec.migration);

  std::optional<ReactiveController> reactive;
  if (spec.reactive) {
    reactive.emplace(&engine, &migrator, *spec.reactive);
    reactive->set_overload(engine.admission());
    reactive->Start();
  }

  // The plan itself is drawn from the seed, so one integer reproduces
  // the entire run.
  Rng plan_rng(seed ^ 0x9e3779b97f4a7c15ULL);
  FaultPlan plan = RandomFaultPlan(&plan_rng, spec.chaos);
  if (spec.shape_plan) spec.shape_plan(&plan);
  FaultInjector injector(&engine, &migrator, seed);
  EXPECT_TRUE(injector.Arm(plan).ok());

  ChaosRig rig{seed, db, sim, engine, migrator, injector,
               [&engine](TxnRequest req) { engine.Submit(std::move(req)); }};
  std::vector<std::unique_ptr<ChaosPart>> parts;
  auto add_part = [&](const PartHook& hook) {
    if (!hook) return;
    if (auto part = hook(rig)) parts.push_back(std::move(part));
  };
  add_part(spec.after_arm);

  InvariantChecker checker(&engine, &migrator);
  checker.set_expected_rows(kRows);
  checker.StartPeriodic(kSecond);

  add_part(spec.before_load);
  const auto load = StartLoad(spec, rig);

  sim.RunUntil(SecondsToDuration(spec.run_seconds));
  checker.Stop();
  if (reactive) reactive->Stop();
  for (const auto& part : parts) part->Stop();
  sim.RunUntil(SecondsToDuration(spec.run_seconds + spec.settle_seconds));

  const Status final_check = checker.Check();
  EXPECT_TRUE(final_check.ok()) << final_check.ToString();

  ChaosRun run;
  run.plan = plan.ToString();
  run.trace = injector.trace().ToString();
  run.trace_fingerprint = injector.trace().Fingerprint();
  for (const InvariantViolation& v : checker.violations()) {
    run.violations.push_back(v.ToString());
  }
  run.events_executed = sim.events_executed();
  run.committed = engine.txns_committed();
  run.checks_run = checker.checks_run();
  // Per-partition completions pin where every txn ran, not just how many.
  std::vector<int64_t> completed;
  for (PartitionId p = 0; p < engine.total_partitions(); ++p) {
    completed.push_back(engine.executor(p)->completed());
  }
  run.counters["completions_hash"] = static_cast<int64_t>(
      MurmurHash64A(completed.data(), completed.size() * sizeof(int64_t)));
  if (reactive) run.counters["scale_outs"] = reactive->scale_outs();
  if (spec.collect) spec.collect(rig, &run);
  for (const auto& part : parts) part->Collect(&run);
  return run;
}

void ExpectShardHolds(const ChaosSpec& spec, uint64_t first_seed) {
  for (uint64_t seed = first_seed; seed < first_seed + kSeedsPerShard;
       ++seed) {
    ExpectSeedHolds(spec, seed);
  }
}

void ExpectMachineryExercised(const ChaosSpec& spec) {
  // Aggregate over a fixed seed range (the machinery fires unevenly
  // across seeds, so a single seed would be flaky): the plans must
  // actually drive the suite's fault paths, not skip them. Per-seed
  // safety lives in the shards; this unit only accumulates counters.
  std::vector<int64_t> totals(spec.floors.size(), 0);
  for (uint64_t seed = 1; seed <= spec.floor_seeds; ++seed) {
    const ChaosRun run = RunChaos(spec, seed);
    for (size_t f = 0; f < spec.floors.size(); ++f) {
      for (const std::string& name : spec.floors[f].counters) {
        totals[f] += run.at(name);
      }
    }
  }
  for (size_t f = 0; f < spec.floors.size(); ++f) {
    std::string names;
    for (const std::string& name : spec.floors[f].counters) {
      names += (names.empty() ? "" : " + ") + name;
    }
    EXPECT_GT(totals[f], spec.floors[f].above)
        << names << " over seeds 1.." << spec.floor_seeds;
  }
}

void ExpectSameSeedReplaysIdentically(const ChaosSpec& spec) {
  const ChaosRun a = RunChaos(spec, 42);
  const ChaosRun b = RunChaos(spec, 42);
  EXPECT_EQ(a.plan, b.plan);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.trace_fingerprint, b.trace_fingerprint);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.checks_run, b.checks_run);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_TRUE(a.violations.empty());
}

void ExpectDifferentSeedsDiverge(const ChaosSpec& spec) {
  const ChaosRun a = RunChaos(spec, spec.diverging_seeds.first);
  const ChaosRun b = RunChaos(spec, spec.diverging_seeds.second);
  EXPECT_NE(a.plan, b.plan);
  EXPECT_NE(a.trace_fingerprint, b.trace_fingerprint);
}

}  // namespace pstore::chaos
