#include "traced.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>

#include "cluster/engine.h"
#include "common/histogram.h"
#include "core/predictive_controller.h"
#include "migration/migration_executor.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "planner/dp_planner.h"
#include "prediction/spar.h"
#include "sim/simulator.h"
#include "storage/fragment.h"
#include "workload/b2w_client.h"
#include "workload/b2w_procedures.h"
#include "workload/b2w_schema.h"
#include "workload/b2w_trace.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

constexpr double kNsPerS = 1e9;

/// Names of the registered B2W procedures, in id order.
std::vector<std::string> B2wProcedureNames() {
  pstore::Catalog catalog;
  pstore::ProcedureRegistry registry;
  auto tables = pstore::RegisterB2wTables(&catalog);
  if (!tables.ok() || !pstore::RegisterB2wProcedures(&registry, *tables).ok()) {
    std::fprintf(stderr, "cannot register the B2W procedures\n");
    std::abort();
  }
  std::vector<std::string> names;
  for (size_t id = 0; id < registry.size(); ++id) {
    names.push_back(registry.Get(static_cast<pstore::ProcedureId>(id)).name);
  }
  return names;
}

/// Every per-layer metric name, in output order (trace.overhead_frac,
/// which needs the untraced run, is added by run.py).
std::vector<std::string> LayerMetricNames() {
  std::vector<std::string> names = {
      "sim.events",
      "sim.events_per_txn",
      "sim.host_ns_per_event",
      "sim.pending_events_p50",
      "sim.pending_events_max",
      "sim.slice_host_ms_p50",
      "sim.slice_host_ms_p99",
      "sim.probe_event_ns",
      "cluster.self_s",
      "cluster.host_ns_per_txn",
      "cluster.txns_submitted",
      "cluster.txns_shed",
      "cluster.txns_in_flight_end",
      "cluster.queue_delay_ms_p50",
      "cluster.queue_delay_ms_p99",
      "cluster.queue_depth_max",
      "cluster.partition_skew",
      "txn.calls",
      "txn.calls_per_completion",
      "txn.write_frac",
      "txn.self_s",
      "txn.call_ns_p50",
      "txn.call_ns_p99",
  };
  for (const std::string& proc : B2wProcedureNames()) {
    names.push_back("txn." + proc + ".calls");
    names.push_back("txn." + proc + ".self_s");
  }
  for (const char* name :
       {"storage.rows_end", "storage.probe_get_ns", "storage.probe_upsert_ns",
        "workload.trace_gen_s", "workload.preload_s", "prediction.fit_s",
        "prediction.refit_calls", "prediction.refit_s",
        "prediction.forecast_calls", "prediction.forecast_us_p50",
        "prediction.forecast_us_p99", "prediction.forecast_mre",
        "planner.decide_calls", "planner.self_s", "planner.decide_us_p50",
        "planner.decide_us_p99", "core.moves_started",
        "core.infeasible_cycles", "core.safety_net_activations",
        "core.refits", "migration.moves", "migration.moves_aborted",
        "migration.chunks_landed", "migration.kb_moved",
        "migration.chunk_retries", "migration.in_flight_s",
        "replication.applies", "replication.applies_per_write",
        "net.messages_sent", "net.messages_per_txn"}) {
    names.emplace_back(name);
  }
  return names;
}

/// Every per-layer metric, initialised to 0 in output order; a layer
/// that does not run on a workload keeps its zeros.
class LayerSheet {
 public:
  LayerSheet() {
    for (const std::string& name : LayerMetricNames()) {
      index_[name] = values_.size();
      values_.emplace_back(name, 0.0);
    }
  }
  void Set(const std::string& name, double value) {
    auto it = index_.find(name);
    if (it == index_.end()) {
      std::fprintf(stderr, "unknown layer metric %s\n", name.c_str());
      std::abort();
    }
    values_[it->second].second = value;
  }
  NamedValues Take() { return std::move(values_); }

 private:
  std::map<std::string, size_t> index_;
  NamedValues values_;
};

/// Nearest-rank percentile of unsorted samples; 0 if empty.
double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  return samples[std::clamp<size_t>(rank, 1, samples.size()) - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Count, total and distribution of one timed call site.
struct CallStats {
  int64_t calls = 0;
  int64_t ns = 0;
  pstore::Histogram hist;

  void Add(int64_t elapsed_ns) {
    ++calls;
    ns += elapsed_ns;
    hist.Record(elapsed_ns);
  }
};

/// What the controller hands its DP planner after a forecast (see
/// PredictiveController::PlanAndAct): the rate just measured, the
/// forecast and the active nodes.
struct PlanInput {
  double rate = 0;
  std::vector<double> forecast;
  int32_t nodes = 0;
};

/// Timings of the wrapped predictor, each forecast value keyed by the
/// control slot it predicts (for the error against the realized
/// series), and the planner input that follows each forecast.
struct PredictorStats {
  int64_t fit_ns = 0;
  CallStats refit;
  CallStats forecast;
  std::vector<std::pair<int64_t, double>> predicted;
  std::vector<PlanInput> plan_inputs;
};

/// Decorator that times every call into a LoadPredictor.
class TimedPredictor : public pstore::LoadPredictor {
 public:
  TimedPredictor(std::unique_ptr<pstore::LoadPredictor> inner,
                 PredictorStats* stats, const pstore::ClusterEngine* engine)
      : inner_(std::move(inner)), stats_(stats), engine_(engine) {}

  std::string name() const override { return inner_->name(); }
  pstore::Status Fit(const std::vector<double>& train,
                     int32_t max_horizon) override {
    const int64_t t0 = NowNs();
    pstore::Status st = inner_->Fit(train, max_horizon);
    stats_->fit_ns += NowNs() - t0;
    return st;
  }
  pstore::Status Refit(const std::vector<double>& train,
                       int32_t max_horizon) override {
    const int64_t t0 = NowNs();
    pstore::Status st = inner_->Refit(train, max_horizon);
    stats_->refit.Add(NowNs() - t0);
    return st;
  }
  int64_t MinHistory() const override { return inner_->MinHistory(); }
  pstore::Result<std::vector<double>> Forecast(
      const std::vector<double>& series, int64_t t,
      int32_t horizon) const override {
    const int64_t t0 = NowNs();
    auto out = inner_->Forecast(series, t, horizon);
    stats_->forecast.Add(NowNs() - t0);
    if (out.ok()) {
      for (size_t h = 0; h < out->size(); ++h) {
        stats_->predicted.emplace_back(t + 1 + static_cast<int64_t>(h),
                                       (*out)[h]);
      }
      stats_->plan_inputs.push_back(PlanInput{
          series[static_cast<size_t>(t)], *out, engine_->active_nodes()});
    }
    return out;
  }
  pstore::Result<double> ForecastAt(const std::vector<double>& series,
                                    int64_t t, int32_t tau) const override {
    const int64_t t0 = NowNs();
    auto out = inner_->ForecastAt(series, t, tau);
    stats_->forecast.Add(NowNs() - t0);
    if (out.ok()) stats_->predicted.emplace_back(t + tau, *out);
    return out;
  }

 private:
  std::unique_ptr<pstore::LoadPredictor> inner_;
  PredictorStats* stats_;
  const pstore::ClusterEngine* engine_;
};

/// Replays every plan the controller made, after the run: a DpPlanner
/// built as the controller builds its own, fed what PlanAndAct fed it
/// (the measured rate, then the forecast raised by the prediction
/// inflation; these runs set no capacity reservations), each BestMoves
/// timed on its own. Returns the DP cells evaluated, which equal the
/// controller's when the replay is faithful.
int64_t ReplayPlans(const PredictorStats& stats,
                    const pstore::ControllerConfig& config, int32_t max_nodes,
                    CallStats* plans) {
  const pstore::DpPlanner planner(pstore::MoveModel(config.move_model),
                                  max_nodes);
  int64_t cells = 0;
  std::vector<double> load;
  for (const PlanInput& in : stats.plan_inputs) {
    load.assign(1, in.rate);
    for (double v : in.forecast) {
      load.push_back(std::max(0.0, v * (1.0 + config.prediction_inflation)));
    }
    const int64_t t0 = NowNs();
    const pstore::Plan plan = planner.BestMoves(load, in.nodes);
    plans->Add(NowNs() - t0);
    cells += plan.dp_cells_evaluated;
  }
  return cells;
}

/// Mean relative error of the recorded forecasts against `realized`
/// (slots not yet realized, or with zero load, are skipped).
double ForecastMre(const PredictorStats& stats,
                   const std::vector<double>& realized) {
  double sum = 0;
  int64_t n = 0;
  for (const auto& [slot, value] : stats.predicted) {
    if (slot < 0 || slot >= static_cast<int64_t>(realized.size())) continue;
    const double actual = realized[static_cast<size_t>(slot)];
    if (actual <= 0) continue;
    sum += std::fabs(value - actual) / actual;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0;
}

void SetPredictionLayer(const PredictorStats& stats,
                        const std::vector<double>& realized,
                        LayerSheet* sheet) {
  sheet->Set("prediction.fit_s", stats.fit_ns / kNsPerS);
  sheet->Set("prediction.refit_calls", stats.refit.calls);
  sheet->Set("prediction.refit_s", stats.refit.ns / kNsPerS);
  sheet->Set("prediction.forecast_calls", stats.forecast.calls);
  sheet->Set("prediction.forecast_us_p50",
             stats.forecast.hist.Percentile(50) / 1e3);
  sheet->Set("prediction.forecast_us_p99",
             stats.forecast.hist.Percentile(99) / 1e3);
  sheet->Set("prediction.forecast_mre", ForecastMre(stats, realized));
}

/// Host ns of one no-op Schedule + pop on a fresh Simulator that already
/// holds `pending` far-future events (median of several batches).
double ProbeEventNs(int64_t pending) {
  pstore::Simulator sim;
  for (int64_t i = 0; i < pending; ++i) {
    sim.ScheduleAt(pstore::kDay * 365 + i, [] {});
  }
  constexpr int kBatch = 20000;
  std::vector<double> per_event;
  for (int rep = 0; rep < 15; ++rep) {
    const int64_t t0 = NowNs();
    for (int i = 0; i < kBatch; ++i) {
      sim.Schedule(0, [] {});
      sim.RunUntil(sim.Now());
    }
    per_event.push_back(static_cast<double>(NowNs() - t0) / kBatch);
  }
  return Percentile(per_event, 50);
}

/// A row of `schema` keyed by `key`, with plausible filler values.
pstore::Row SyntheticRow(const pstore::Schema& schema, int64_t key) {
  std::vector<pstore::Value> values;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (c == schema.partition_key_column()) {
      values.emplace_back(key);
      continue;
    }
    switch (schema.columns()[c].type) {
      case pstore::ColumnType::kInt64:
        values.emplace_back(static_cast<int64_t>(key * 7 + 1));
        break;
      case pstore::ColumnType::kDouble:
        values.emplace_back(42.5);
        break;
      default:
        values.emplace_back("4711:2:129.90;815:1:19.99");
        break;
    }
  }
  return pstore::Row(std::move(values));
}

/// Host ns of one StorageFragment::Get and one Upsert on a fragment
/// holding `rows_per_table[t]` rows of each table (median of batches).
void ProbeStorage(const pstore::Catalog& catalog, int32_t num_buckets,
                  const std::vector<int64_t>& rows_per_table,
                  pstore::TableId probe_table, double* get_ns,
                  double* upsert_ns) {
  pstore::StorageFragment fragment(&catalog, num_buckets);
  const int64_t key_stride = 1000003;  // spreads keys over buckets
  for (size_t t = 0; t < rows_per_table.size(); ++t) {
    const auto table = static_cast<pstore::TableId>(t);
    const pstore::Schema& schema = catalog.GetSchema(table);
    for (int64_t i = 0; i < rows_per_table[t]; ++i) {
      (void)fragment.Insert(table, SyntheticRow(schema, i * key_stride));
    }
  }
  const int64_t n = std::max<int64_t>(
      1, rows_per_table[static_cast<size_t>(probe_table)]);
  const pstore::Schema& schema = catalog.GetSchema(probe_table);
  constexpr int kBatch = 5000;
  std::vector<pstore::Row> rows;
  for (int i = 0; i < kBatch; ++i) {
    rows.push_back(SyntheticRow(schema, (i * 7919 % n) * key_stride));
  }
  std::vector<double> gets, upserts;
  int64_t found = 0;
  for (int rep = 0; rep < 15; ++rep) {
    int64_t t0 = NowNs();
    for (int i = 0; i < kBatch; ++i) {
      found += fragment.Get(probe_table, (i * 7919 % n) * key_stride).ok();
    }
    gets.push_back(static_cast<double>(NowNs() - t0) / kBatch);
    t0 = NowNs();
    for (int i = 0; i < kBatch; ++i) {
      (void)fragment.Upsert(probe_table, rows[static_cast<size_t>(i)]);
    }
    upserts.push_back(static_cast<double>(NowNs() - t0) / kBatch);
  }
  if (found == 0) std::fprintf(stderr, "storage probe found no rows\n");
  *get_ns = Percentile(gets, 50);
  *upsert_ns = Percentile(upserts, 50);
}

/// Per-procedure counters filled by the wrapped bodies.
struct ProcStats {
  CallStats time;
  int64_t writes = 0;
  int64_t mutations = 0;
};

/// Copies `plain` into a registry whose bodies run under a timer.
pstore::ProcedureRegistry WrapProcedures(const pstore::ProcedureRegistry& plain,
                                         std::vector<ProcStats>* stats,
                                         pstore::Histogram* all_calls) {
  stats->assign(plain.size(), ProcStats{});
  pstore::ProcedureRegistry wrapped;
  for (size_t id = 0; id < plain.size(); ++id) {
    pstore::ProcedureDef def = plain.Get(static_cast<pstore::ProcedureId>(id));
    def.body = [inner = def.body, s = &(*stats)[id], all_calls](
                   pstore::ExecutionContext& ctx,
                   const pstore::TxnRequest& req) {
      const int64_t before = ctx.mutations();
      const int64_t t0 = NowNs();
      pstore::TxnResult result = inner(ctx, req);
      const int64_t elapsed = NowNs() - t0;
      s->time.Add(elapsed);
      all_calls->Record(elapsed);
      const int64_t wrote = ctx.mutations() - before;
      if (wrote > 0) ++s->writes;
      s->mutations += wrote;
      return result;
    };
    (void)wrapped.Register(std::move(def));
  }
  return wrapped;
}

}  // namespace

pstore::Result<TracedOutcome> TraceWorkload(
    const pstore::ExperimentConfig& config_in) {
  using namespace pstore;
  // Mirrors RunElasticityExperiment (src/core/experiment.cc) step by
  // step; the digest comparison with the untraced run proves it.
  ExperimentConfig config = config_in;
  PSTORE_RETURN_NOT_OK(config.Validate());
  if ((config.strategy != ElasticityStrategy::kStatic &&
       config.strategy != ElasticityStrategy::kPStoreSpar) ||
      config.controller_overridden) {
    return Status::InvalidArgument(
        "traced run supports Static and SPAR with derived controller "
        "settings");
  }
  LayerSheet sheet;
  constexpr int32_t kSlot = 5;  // trace minutes per control slot

  int64_t t0 = NowNs();
  config.trace.days =
      std::max(config.trace.days, config.train_days + config.replay_days);
  auto trace = GenerateB2wTrace(config.trace);
  if (!trace.ok()) return trace.status();
  sheet.Set("workload.trace_gen_s", (NowNs() - t0) / kNsPerS);

  Simulator sim;
  Catalog catalog;
  auto tables = RegisterB2wTables(&catalog);
  if (!tables.ok()) return tables.status();
  ProcedureRegistry plain;
  auto procs = RegisterB2wProcedures(&plain, *tables);
  if (!procs.ok()) return procs.status();
  std::vector<ProcStats> proc_stats;
  Histogram call_ns;
  ProcedureRegistry registry = WrapProcedures(plain, &proc_stats, &call_ns);

  EngineConfig engine_config = config.engine;
  const int64_t replay_begin_minute =
      static_cast<int64_t>(config.train_days) * 1440;
  const int64_t replay_end_minute =
      replay_begin_minute + static_cast<int64_t>(config.replay_days) * 1440;
  B2wClientConfig client_config;
  client_config.speedup = config.speedup;
  client_config.peak_txn_rate = config.peak_txn_rate;
  client_config.seed = config.trace.seed ^ 0x5eedULL;
  const double peak_trace = *std::max_element(trace->begin(), trace->end());
  const double scale = config.peak_txn_rate / peak_trace;
  const double initial_rate =
      (*trace)[static_cast<size_t>(replay_begin_minute)] * scale;
  const double q = 285.0;
  engine_config.initial_nodes =
      config.strategy == ElasticityStrategy::kStatic
          ? config.static_nodes
          : std::clamp<int32_t>(
                static_cast<int32_t>(std::ceil(initial_rate * 1.2 / q)), 1,
                engine_config.max_nodes);

  ClusterEngine engine(&sim, catalog, registry, engine_config);
  obs::MetricsRegistry metrics;
  obs::Telemetry telemetry;
  telemetry.metrics = &metrics;
  engine.set_telemetry(telemetry);
  B2wClient client(&engine, *tables, *procs, *trace, client_config);
  t0 = NowNs();
  PSTORE_RETURN_NOT_OK(client.PreloadData());
  sheet.Set("workload.preload_s", (NowNs() - t0) / kNsPerS);

  MigrationExecutor migrator(&engine, config.migration);
  migrator.set_telemetry(telemetry);

  const double slot_virtual_minutes = kSlot / config.speedup;
  ControllerConfig controller_config = config.controller;
  controller_config.move_model.q = 285.0;
  controller_config.move_model.partitions_per_node =
      engine_config.partitions_per_node;
  controller_config.move_model.d_minutes = config.migration.db_size_mb *
                                           1024.0 /
                                           config.migration.rate_kbps / 60.0 *
                                           1.1;
  controller_config.move_model.interval_minutes = slot_virtual_minutes;
  controller_config.q_hat = 350.0;
  const double two_d_over_p = 2.0 * controller_config.move_model.d_minutes /
                              engine_config.partitions_per_node;
  controller_config.horizon_intervals = std::max<int32_t>(
      8, static_cast<int32_t>(std::ceil(two_d_over_p / slot_virtual_minutes)) +
             4);
  controller_config.horizon_intervals =
      std::min(controller_config.horizon_intervals, 1440 / kSlot - 1);

  const std::vector<double> control_series =
      AggregateSlots(client.ScaledTrace(), kSlot);
  const int64_t replay_begin_slot = replay_begin_minute / kSlot;

  PredictorStats predictor_stats;
  std::unique_ptr<LoadPredictor> predictor;
  std::unique_ptr<PredictiveController> pstore;
  if (config.strategy == ElasticityStrategy::kPStoreSpar) {
    SparConfig spar;
    spar.period = 1440 / kSlot;
    spar.num_periods = config.spar_periods;
    spar.num_recent = config.spar_recent;
    predictor = std::make_unique<TimedPredictor>(
        std::make_unique<SparPredictor>(spar), &predictor_stats, &engine);
    const std::vector<double> train(
        control_series.begin(), control_series.begin() + replay_begin_slot);
    PSTORE_RETURN_NOT_OK(
        predictor->Fit(train, controller_config.horizon_intervals));
    pstore = std::make_unique<PredictiveController>(
        &engine, &migrator, predictor.get(), controller_config);
    pstore->set_telemetry(telemetry);
    pstore->SeedHistory(std::vector<double>(
        control_series.begin(), control_series.begin() + replay_begin_slot));
    pstore->Start();
  }

  // --- Run, in slices of one virtual second ---------------------------
  client.Start(replay_begin_minute, replay_end_minute);
  const SimDuration replay_duration = static_cast<SimDuration>(
      static_cast<double>(replay_end_minute - replay_begin_minute) * 60.0 /
      config.speedup * kSecond);
  std::vector<double> slice_ms;
  std::vector<double> pending;
  size_t deepest_queue = 0;
  int64_t run_ns = 0;
  auto run_to = [&](SimTime end) {
    while (sim.Now() < end) {
      const SimTime next = std::min(sim.Now() + kSecond, end);
      const int64_t s0 = NowNs();
      sim.RunUntil(next);
      const int64_t elapsed = NowNs() - s0;
      run_ns += elapsed;
      slice_ms.push_back(elapsed / 1e6);
      pending.push_back(static_cast<double>(sim.events_scheduled() -
                                            sim.events_executed()));
      for (int32_t p = 0; p < engine.active_partitions(); ++p) {
        deepest_queue =
            std::max(deepest_queue, engine.executor(p)->queue_length());
      }
    }
  };
  run_to(replay_duration);
  if (pstore) pstore->Stop();
  run_to(replay_duration + 30 * kSecond);
  const int64_t f0 = NowNs();
  engine.mutable_latencies().Flush(sim.Now());
  run_ns += NowNs() - f0;

  // --- Collect, exactly as RunElasticityExperiment does ----------------
  ExperimentResult result;
  result.strategy_name = ElasticityStrategyName(config.strategy);
  result.latency_windows = engine.latencies().windows();
  result.violations_p50 =
      engine.latencies().CountViolations(50, config.sla_threshold_us);
  result.violations_p95 =
      engine.latencies().CountViolations(95, config.sla_threshold_us);
  result.violations_p99 =
      engine.latencies().CountViolations(99, config.sla_threshold_us);
  result.allocation = engine.allocation_timeline();
  result.moves = migrator.history();
  result.avg_machines = engine.AverageNodesAllocated();
  result.submitted = engine.txns_submitted();
  result.committed = engine.txns_committed();
  result.aborted = engine.txns_aborted();
  result.end_time = sim.Now();
  if (pstore) result.infeasible_cycles = pstore->infeasible_cycles();
  const double window_seconds =
      DurationToSeconds(engine.config().throughput_window);
  for (int64_t count : engine.throughput_windows()) {
    result.throughput_txn_s.push_back(static_cast<double>(count) /
                                      window_seconds);
  }
  const auto& accesses = engine.partition_access_counts();
  const int32_t active = engine.active_partitions();
  if (active > 0) {
    double mean = 0;
    int64_t max_count = 0;
    for (int32_t p = 0; p < active; ++p) {
      mean += static_cast<double>(accesses[static_cast<size_t>(p)]);
      max_count = std::max(max_count, accesses[static_cast<size_t>(p)]);
    }
    mean /= active;
    result.max_partition_access_over_mean =
        mean > 0 ? static_cast<double>(max_count) / mean : 0;
  }

  TracedOutcome out;
  out.digest = DigestEngine(result);
  out.run_s = run_ns / kNsPerS;
  const double completions =
      static_cast<double>(result.committed + result.aborted);
  out.completions = completions;

  // --- sim --------------------------------------------------------------
  const double events = static_cast<double>(sim.events_executed());
  const double pending_p50 = Percentile(pending, 50);
  sheet.Set("sim.events", events);
  sheet.Set("sim.events_per_txn", Ratio(events, completions));
  sheet.Set("sim.host_ns_per_event",
            Ratio(static_cast<double>(run_ns), events));
  sheet.Set("sim.pending_events_p50", pending_p50);
  sheet.Set("sim.pending_events_max", Percentile(pending, 100));
  sheet.Set("sim.slice_host_ms_p50", Percentile(slice_ms, 50));
  sheet.Set("sim.slice_host_ms_p99", Percentile(slice_ms, 99));
  sheet.Set("sim.probe_event_ns",
            ProbeEventNs(static_cast<int64_t>(pending_p50)));

  // --- txn --------------------------------------------------------------
  int64_t calls = 0, writes = 0, txn_ns = 0, mutations = 0;
  for (size_t id = 0; id < proc_stats.size(); ++id) {
    const ProcStats& s = proc_stats[id];
    calls += s.time.calls;
    writes += s.writes;
    mutations += s.mutations;
    txn_ns += s.time.ns;
    const std::string prefix =
        "txn." + plain.Get(static_cast<ProcedureId>(id)).name;
    sheet.Set(prefix + ".calls", static_cast<double>(s.time.calls));
    sheet.Set(prefix + ".self_s", s.time.ns / kNsPerS);
  }
  out.storage_writes = static_cast<double>(mutations);
  sheet.Set("txn.calls", static_cast<double>(calls));
  sheet.Set("txn.calls_per_completion",
            Ratio(static_cast<double>(calls), completions));
  sheet.Set("txn.write_frac", Ratio(static_cast<double>(writes),
                                    static_cast<double>(calls)));
  sheet.Set("txn.self_s", txn_ns / kNsPerS);
  sheet.Set("txn.call_ns_p50", static_cast<double>(call_ns.Percentile(50)));
  sheet.Set("txn.call_ns_p99", static_cast<double>(call_ns.Percentile(99)));

  // --- cluster ----------------------------------------------------------
  const int64_t predictor_run_ns =
      predictor_stats.forecast.ns + predictor_stats.refit.ns;
  const double cluster_self_s =
      (run_ns - txn_ns - predictor_run_ns) / kNsPerS;
  sheet.Set("cluster.self_s", cluster_self_s);
  sheet.Set("cluster.host_ns_per_txn",
            Ratio(cluster_self_s * kNsPerS, completions));
  sheet.Set("cluster.txns_submitted",
            static_cast<double>(engine.txns_submitted()));
  sheet.Set("cluster.txns_shed", static_cast<double>(engine.txns_shed()));
  sheet.Set("cluster.txns_in_flight_end",
            static_cast<double>(engine.txns_in_flight()));
  const Histogram& queue_delay =
      metrics.GetHistogram("cluster.queue_delay_us")->histogram();
  sheet.Set("cluster.queue_delay_ms_p50", queue_delay.Percentile(50) / 1e3);
  sheet.Set("cluster.queue_delay_ms_p99", queue_delay.Percentile(99) / 1e3);
  sheet.Set("cluster.queue_depth_max", static_cast<double>(deepest_queue));
  sheet.Set("cluster.partition_skew", result.max_partition_access_over_mean);

  // --- storage ----------------------------------------------------------
  sheet.Set("storage.rows_end", static_cast<double>(engine.TotalRowCount()));
  std::vector<int64_t> rows_per_table(catalog.num_tables(), 0);
  for (int32_t p = 0; p < active; ++p) {
    for (size_t t = 0; t < rows_per_table.size(); ++t) {
      rows_per_table[t] +=
          engine.fragment(p)->RowCount(static_cast<TableId>(t));
    }
  }
  for (int64_t& rows : rows_per_table) rows /= std::max(active, 1);
  double get_ns = 0, upsert_ns = 0;
  ProbeStorage(catalog, engine_config.num_buckets, rows_per_table,
               tables->cart, &get_ns, &upsert_ns);
  sheet.Set("storage.probe_get_ns", get_ns);
  sheet.Set("storage.probe_upsert_ns", upsert_ns);

  // --- prediction / planner / core -------------------------------------
  int64_t replay_plan_diff = 0, replay_cell_diff = 0;
  if (pstore) {
    SetPredictionLayer(predictor_stats, pstore->load_series(), &sheet);
    sheet.Set("core.moves_started",
              static_cast<double>(pstore->moves_started()));
    sheet.Set("core.infeasible_cycles",
              static_cast<double>(pstore->infeasible_cycles()));
    sheet.Set("core.safety_net_activations",
              static_cast<double>(pstore->safety_net_activations()));
    sheet.Set("core.refits", static_cast<double>(pstore->refits()));
    // The controller's DP planner runs inside its tick, so it is timed
    // by replaying its plans (a check proves the replay faithful).
    CallStats plans;
    const int64_t cells = ReplayPlans(predictor_stats, controller_config,
                                      engine.max_nodes(), &plans);
    replay_plan_diff =
        plans.calls - metrics.GetCounter("controller.plans")->value();
    replay_cell_diff =
        cells - metrics.GetCounter("planner.dp_cells_evaluated")->value();
    sheet.Set("planner.decide_calls", static_cast<double>(plans.calls));
    sheet.Set("planner.self_s", plans.ns / kNsPerS);
    sheet.Set("planner.decide_us_p50", plans.hist.Percentile(50) / 1e3);
    sheet.Set("planner.decide_us_p99", plans.hist.Percentile(99) / 1e3);
  }

  // --- migration --------------------------------------------------------
  double in_flight_s = 0;
  for (const MoveRecord& m : result.moves) {
    const SimTime end = m.end >= 0 ? m.end : result.end_time;
    in_flight_s += DurationToSeconds(end - m.start);
  }
  sheet.Set("migration.moves", static_cast<double>(result.moves.size()));
  sheet.Set("migration.moves_aborted",
            static_cast<double>(migrator.moves_aborted()));
  sheet.Set("migration.chunks_landed",
            static_cast<double>(
                metrics.GetCounter("migration.chunks_landed")->value()));
  sheet.Set("migration.kb_moved", migrator.total_kb_moved());
  sheet.Set("migration.chunk_retries",
            static_cast<double>(migrator.chunk_retries()));
  sheet.Set("migration.in_flight_s", in_flight_s);

  // --- replication / net ------------------------------------------------
  const double applies = static_cast<double>(
      metrics.GetCounter("replication.applies")->value());
  sheet.Set("replication.applies", applies);
  sheet.Set("replication.applies_per_write",
            Ratio(applies, static_cast<double>(writes) - applies));
  const double messages =
      engine.net() != nullptr
          ? static_cast<double>(engine.net()->messages_sent())
          : 0;
  sheet.Set("net.messages_sent", messages);
  sheet.Set("net.messages_per_txn", Ratio(messages, completions));

  // --- checks only the rebuilt run can read -----------------------------
  int64_t corrupt_served = 0;
  if (engine.replication() != nullptr &&
      engine.replication()->content() != nullptr) {
    corrupt_served = engine.replication()->content()->corrupt_records_served();
  }
  out.must_be_zero = {
      {"txns_in_flight_end", static_cast<double>(engine.txns_in_flight())},
      {"rows_lost", static_cast<double>(engine.rows_lost())},
      {"fenced_commits", static_cast<double>(engine.fenced_commits())},
      {"corrupt_records_served", static_cast<double>(corrupt_served)},
      {"net_double_applies",
       static_cast<double>(migrator.net_double_applies())},
      {"planner_replay_plan_diff", static_cast<double>(replay_plan_diff)},
      {"planner_replay_cell_diff", static_cast<double>(replay_cell_diff)},
  };
  metrics.FreezeCallbackGauges();
  out.layers = sheet.Take();
  return out;
}

}  // namespace perfbench
