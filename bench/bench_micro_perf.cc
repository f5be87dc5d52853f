/// Micro-benchmarks (google-benchmark) for the hot components: the DP
/// planner (runs every control interval online), SPAR fit/predict/refit,
/// the migration schedule generator, partition-map assignment and
/// rebalancing, row storage, and the engine's transaction path on the
/// virtual clock.
///
/// Unlike the figure harnesses, this binary measures *wall-clock* cost,
/// so its output feeds the regression gate: a custom reporter collects
/// one case per benchmark into bench_out/BENCH_micro_perf.json (schema
/// in bench_util.h; with --benchmark_repetitions=N the case carries the
/// median) and tools/bench_compare diffs that against the committed
/// baseline in bench/baselines/.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "cluster/engine.h"
#include "common/rng.h"
#include "core/reactive_controller.h"
#include "migration/migration_executor.h"
#include "migration/parallel_schedule.h"
#include "obs/telemetry.h"
#include "planner/dp_planner.h"
#include "prediction/spar.h"
#include "sim/simulator.h"
#include "storage/fragment.h"
#include "storage/partition_map.h"
#include "storage/schema.h"
#include "txn/procedure.h"
#include "workload/b2w_schema.h"

namespace pstore {
namespace {

MoveModelConfig PlannerConfig() {
  MoveModelConfig config;
  config.q = 285.0;
  config.partitions_per_node = 6;
  config.d_minutes = 85.0;
  config.interval_minutes = 5.0;
  return config;
}

void BM_DpPlannerSineHorizon(benchmark::State& state) {
  const int32_t horizon = static_cast<int32_t>(state.range(0));
  DpPlanner planner((MoveModel(PlannerConfig())));
  std::vector<double> load(static_cast<size_t>(horizon) + 1);
  for (size_t t = 0; t < load.size(); ++t) {
    load[t] = 1500 + 1200 * std::sin(0.3 * static_cast<double>(t));
  }
  const int32_t n0 = planner.NodesForLoad(load[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.BestMoves(load, n0));
  }
}
BENCHMARK(BM_DpPlannerSineHorizon)->Arg(12)->Arg(24)->Arg(56)->Arg(288);

void BM_SparPredict(benchmark::State& state) {
  SparConfig config;
  config.period = 288;
  config.num_periods = 7;
  config.num_recent = 6;
  std::vector<double> series(288 * 30);
  for (size_t t = 0; t < series.size(); ++t) {
    series[t] = 100 + 50 * std::sin(2 * M_PI * (t % 288) / 288.0);
  }
  SparPredictor predictor(config);
  if (!predictor.Fit(series, 12).ok()) state.SkipWithError("fit failed");
  const int64_t t = static_cast<int64_t>(series.size()) - 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.Forecast(series, t, 12));
  }
}
BENCHMARK(BM_SparPredict);

void BM_SparFit(benchmark::State& state) {
  SparConfig config;
  config.period = 288;
  config.num_periods = 7;
  config.num_recent = 6;
  std::vector<double> series(288 * 28);
  for (size_t t = 0; t < series.size(); ++t) {
    series[t] = 100 + 50 * std::sin(2 * M_PI * (t % 288) / 288.0);
  }
  for (auto _ : state) {
    SparPredictor predictor(config);
    benchmark::DoNotOptimize(predictor.Fit(series, 4));
  }
}
BENCHMARK(BM_SparFit);

// One predictive-controller refit tick: the model was fitted up to slot
// L, six new measurements arrived, Refit must absorb them. Starts each
// iteration from a copy of the same fitted predictor so every tick does
// identical work.
void BM_SparRefitTick(benchmark::State& state) {
  SparConfig config;
  config.period = 288;
  config.num_periods = 7;
  config.num_recent = 6;
  std::vector<double> series(288 * 28);
  for (size_t t = 0; t < series.size(); ++t) {
    series[t] = 100 + 50 * std::sin(2 * M_PI * (t % 288) / 288.0);
  }
  std::vector<double> prefix(series.begin(), series.end() - 6);
  SparPredictor fitted(config);
  if (!fitted.Fit(prefix, 4).ok()) state.SkipWithError("fit failed");
  for (auto _ : state) {
    SparPredictor predictor = fitted;
    benchmark::DoNotOptimize(predictor.Refit(series, 4));
  }
}
BENCHMARK(BM_SparRefitTick);

void BM_BuildMoveSchedule(benchmark::State& state) {
  const int32_t a = static_cast<int32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildMoveSchedule(3, a));
  }
}
BENCHMARK(BM_BuildMoveSchedule)->Arg(14)->Arg(40);

// Full (before, after) sweep of the schedule generator, covering both
// scale-out and scale-in shapes at the sizes the controllers request.
void BM_MigrationScheduleGeneration(benchmark::State& state) {
  const int32_t b = static_cast<int32_t>(state.range(0));
  const int32_t a = static_cast<int32_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildMoveSchedule(b, a));
  }
}
BENCHMARK(BM_MigrationScheduleGeneration)
    ->Args({3, 14})
    ->Args({14, 3})
    ->Args({6, 40})
    ->Args({14, 84});

void BM_PartitionMapRebalance(benchmark::State& state) {
  PartitionMap map(1024, 18);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Rebalanced(84));
  }
}
BENCHMARK(BM_PartitionMapRebalance);

// Assignment churn: the per-bucket update path that crash failover and
// migration hammer (a failover reassigns every bucket of a dead node).
void BM_PartitionMapAssign(benchmark::State& state) {
  constexpr int32_t kBuckets = 1024;
  constexpr int32_t kPartitions = 84;
  PartitionMap map(kBuckets, kPartitions);
  Rng rng(7);
  for (auto _ : state) {
    for (int32_t i = 0; i < kBuckets; ++i) {
      const BucketId b = static_cast<BucketId>(rng.NextBounded(kBuckets));
      const PartitionId p =
          static_cast<PartitionId>(rng.NextBounded(kPartitions));
      map.Assign(b, p);
    }
    benchmark::DoNotOptimize(map.PartitionOfBucket(0));
  }
  state.SetItemsProcessed(state.iterations() * kBuckets);
}
BENCHMARK(BM_PartitionMapAssign);

// One partition's storage holding about the elastic_spike end-of-run
// row count (~300k) in the B2W table mix, with rows shaped like the B2W
// preload: carts with 1-4 encoded lines, checkouts, stock, and stock
// transactions. Built once per process; the cases share it.
struct B2wFragmentFixture {
  static constexpr int64_t kCarts = 120000;
  static constexpr int64_t kCheckouts = 80000;
  static constexpr int64_t kStock = 20000;
  static constexpr int64_t kStockTxns = 80000;

  Catalog catalog;
  std::unique_ptr<StorageFragment> fragment;
  /// (table, key) of every loaded row, in load order.
  std::vector<std::pair<TableId, int64_t>> rows;
  /// One row per table whose key column the cases overwrite.
  std::vector<Row> templates;

  static B2wFragmentFixture& Get() {
    static B2wFragmentFixture* fixture = new B2wFragmentFixture();
    return *fixture;
  }

 private:
  B2wFragmentFixture() {
    const B2wTables tables = *RegisterB2wTables(&catalog);
    fragment = std::make_unique<StorageFragment>(&catalog, 1024);
    templates.resize(catalog.num_tables());
    Rng rng(11);
    auto load = [&](TableId table, int64_t count, auto make_row) {
      for (int64_t i = 0; i < count; ++i) {
        const auto key = static_cast<int64_t>(rng.Next() >> 1);
        Row row = make_row(key);
        if (!fragment->Insert(table, row).ok()) continue;  // Key reused.
        rows.emplace_back(table, key);
        templates[static_cast<size_t>(table)] = std::move(row);
      }
    };
    load(tables.cart, kCarts, [&](int64_t key) {
      std::vector<LineItem> lines;
      const int64_t n = rng.NextInt(1, 4);
      for (int64_t j = 0; j < n; ++j) {
        lines.push_back(LineItem{rng.NextInt(1, 1 << 30), rng.NextInt(1, 3),
                                 5.0 + rng.NextDouble() * 200.0});
      }
      return Row({Value(key), Value(rng.NextInt(1, 1 << 30)), Value("ACTIVE"),
                  Value(LinesTotal(lines)), Value(EncodeLines(lines))});
    });
    load(tables.checkout, kCheckouts, [&](int64_t key) {
      return Row({Value(key), Value(rng.NextInt(1, 1 << 30)), Value("OPEN"),
                  Value(50.0 + rng.NextDouble() * 300.0), Value("CC"),
                  Value(EncodeLines({LineItem{rng.NextInt(1, 1 << 30), 1,
                                              25.0}}))});
    });
    load(tables.stock, kStock, [&](int64_t key) {
      return Row({Value(key), Value(rng.NextInt(100, 100000)),
                  Value(int64_t{0}), Value(int64_t{0})});
    });
    load(tables.stock_transaction, kStockTxns, [&](int64_t key) {
      return Row({Value(key), Value(rng.NextInt(1, 1 << 30)),
                  Value(rng.NextInt(1, 1 << 30)), Value(rng.NextInt(1, 3)),
                  Value("RESERVED")});
    });
  }
};

// Point read of a random loaded row: the first storage call of most
// B2W procedures.
void BM_FragmentGet(benchmark::State& state) {
  B2wFragmentFixture& fx = B2wFragmentFixture::Get();
  Rng rng(3);
  for (auto _ : state) {
    const auto& [table, key] = fx.rows[rng.NextBounded(fx.rows.size())];
    benchmark::DoNotOptimize(fx.fragment->Get(table, key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FragmentGet);

// Replacement of a random loaded row by a same-shaped row: the write
// half of the read-modify-write B2W procedures.
void BM_FragmentUpsert(benchmark::State& state) {
  B2wFragmentFixture& fx = B2wFragmentFixture::Get();
  Rng rng(5);
  for (auto _ : state) {
    const auto& [table, key] = fx.rows[rng.NextBounded(fx.rows.size())];
    Row& row = fx.templates[static_cast<size_t>(table)];
    row.Set(0, Value(key));
    benchmark::DoNotOptimize(fx.fragment->Upsert(table, row));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FragmentUpsert);

struct EngineFixture {
  Simulator sim;
  ProcedureId put{};
  std::unique_ptr<ClusterEngine> engine;

  EngineFixture() {
    Catalog catalog;
    const TableId table = *catalog.AddTable(Schema(
        "KV", {{"k", ColumnType::kInt64}, {"v", ColumnType::kInt64}}, 0));
    ProcedureRegistry registry;
    put = *registry.Register(ProcedureDef{
        "Put",
        [table](ExecutionContext& ctx, const TxnRequest& req) {
          TxnResult r;
          r.status = ctx.Upsert(table,
                                Row({Value(req.key), Value(int64_t{1})}));
          return r;
        },
        1.0});
    EngineConfig config;
    config.num_buckets = 1024;
    config.partitions_per_node = 6;
    config.max_nodes = 4;
    config.initial_nodes = 4;
    config.txn_service_us_mean = 100.0;
    config.txn_service_cv = 0.1;
    engine = std::make_unique<ClusterEngine>(&sim, catalog, registry, config);
  }
};

void BM_EngineTxnPath(benchmark::State& state) {
  EngineFixture fx;
  int64_t key = 0;
  for (auto _ : state) {
    TxnRequest req;
    req.proc = fx.put;
    req.key = ++key;
    fx.engine->Submit(std::move(req));
    fx.sim.RunUntil(fx.sim.Now() + 200);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineTxnPath);

// One reactive-controller monitor tick over a live engine: sample the
// submitted-rate counters, smooth, compare against the watermarks. The
// watermarks are pinned so no tick ever triggers a migration — this
// isolates the recurring monitoring cost every elastic run pays.
void BM_ControllerTick(benchmark::State& state) {
  EngineFixture fx;
  MigrationOptions migration;
  migration.chunk_kb = 100;
  migration.rate_kbps = 10000;
  migration.wire_kbps = 100000;
  migration.db_size_mb = 10;
  MigrationExecutor migrator(fx.engine.get(), migration);
  ReactiveConfig reactive;
  reactive.q = 100.0;
  reactive.q_hat = 125.0;
  reactive.monitor_period = kSecond;
  // The smallest valid watermark: the 1-txn/tick load stays above it,
  // so no tick ever scales in.
  reactive.low_watermark = std::numeric_limits<double>::min();
  ReactiveController controller(fx.engine.get(), &migrator, reactive);
  controller.Start();
  int64_t key = 0;
  for (auto _ : state) {
    TxnRequest req;
    req.proc = fx.put;
    req.key = ++key;
    fx.engine->Submit(std::move(req));
    fx.sim.RunUntil(fx.sim.Now() + reactive.monitor_period);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ControllerTick);

// The engine txn path with a TxnTraceRecorder attached, at sampling
// rate range(0)%. Rate 0 is the default-off configuration and must cost
// the same as BM_EngineTxnPath (one cached-null pointer test); rate 100
// bounds the worst-case per-txn tracing overhead. The record cap keeps
// memory flat once the trace fills; later samples take the counted-drop
// path, which is the steady state of a long traced run.
void BM_ObsSamplingOverhead(benchmark::State& state) {
  EngineFixture fx;
  obs::TelemetryBundle telemetry;
  obs::TxnTraceRecorder::Config tc;
  tc.sample_rate = static_cast<double>(state.range(0)) / 100.0;
  tc.max_records = 1 << 16;
  telemetry.txn_traces.Configure(tc);
  fx.engine->set_telemetry(telemetry.view());
  int64_t key = 0;
  for (auto _ : state) {
    TxnRequest req;
    req.proc = fx.put;
    req.key = ++key;
    fx.engine->Submit(std::move(req));
    fx.sim.RunUntil(fx.sim.Now() + 200);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSamplingOverhead)->Arg(0)->Arg(100);

/// Console output as usual, plus one BenchCaseResult per benchmark for
/// the JSON result file the regression gate reads. With
/// --benchmark_repetitions=N the case carries the library's median
/// aggregate, whether or not --benchmark_report_aggregates_only hides
/// the individual repetitions; a single run stands for itself.
class JsonCollectingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCollectingReporter(OutputOptions options)
      : ConsoleReporter(options) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      const bool median = run.run_type == Run::RT_Aggregate &&
                          run.aggregate_name == "median";
      if (run.error_occurred) continue;
      if (run.run_type == Run::RT_Aggregate && !median) continue;
      const std::string name = run.run_name.str();
      const auto [it, added] = index_.emplace(name, cases_.size());
      if (added) {
        cases_.emplace_back();
      } else if (!median) {
        continue;  // A later repetition; the median row replaces the first.
      }
      bench::BenchCaseResult& result = cases_[it->second];
      result.name = name;
      result.value = run.GetAdjustedRealTime();  // default unit: ns/op
      result.unit = "ns/op";
      const auto rate = run.counters.find("items_per_second");
      if (rate != run.counters.end()) result.items_per_s = rate->second;
      result.iterations = static_cast<int64_t>(run.iterations);
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<bench::BenchCaseResult>& cases() const { return cases_; }

 private:
  std::vector<bench::BenchCaseResult> cases_;
  std::map<std::string, size_t> index_;  // name -> position in cases_
};

/// Tabular console output, coloured the way the library's own reporter
/// decides it: only when --benchmark_color allows it ("auto", the
/// default, means only when stdout is a terminal). Reads argv before
/// benchmark::Initialize consumes the flag.
benchmark::ConsoleReporter::OutputOptions ConsoleOptions(int argc,
                                                         char** argv) {
  constexpr std::string_view kFlag = "--benchmark_color=";
  std::string color = "auto";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, kFlag.size()) == kFlag) {
      color = std::string(arg.substr(kFlag.size()));
    }
  }
  for (char& c : color) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  const bool use_color =
      color == "auto" ? isatty(fileno(stdout)) != 0
                      : !(color.empty() || color == "0" || color == "f" ||
                          color == "false" || color == "n" || color == "no" ||
                          color == "off");
  return use_color ? benchmark::ConsoleReporter::OO_Defaults
                   : benchmark::ConsoleReporter::OO_Tabular;
}

}  // namespace
}  // namespace pstore

int main(int argc, char** argv) {
  pstore::JsonCollectingReporter reporter(pstore::ConsoleOptions(argc, argv));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!pstore::bench::WriteBenchJson("micro_perf", "perf",
                                     reporter.cases())) {
    return 1;
  }
  return 0;
}
