#include "workloads.h"

#include <cstdio>
#include <cstring>

#include "workload/b2w_trace.h"

namespace perfbench {

namespace {

// Workload input sizes.
constexpr int32_t kSpikeTrainDays = 28;
constexpr double kSpikePeakTxnRate = 1900.0;
constexpr double kSpikeFallbackMultiplier = 8.0;
constexpr int32_t kKsafeTrainDays = 28;
constexpr double kKsafeSpeedup = 40.0;

class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void AddInt(int64_t v) { Add(static_cast<uint64_t>(v)); }
  void AddDouble(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kElasticSpike, Workload::kKsafeStatic}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kElasticSpike:
      return "elastic_spike";
    case Workload::kKsafeStatic:
      return "ksafe_static";
  }
  return "?";
}

pstore::ExperimentConfig EngineExperimentConfig(Workload workload,
                                                uint64_t seed,
                                                bool shortened) {
  // The load curve and the request stream are the paper's fixed day;
  // the seed selects the engine's service-time stream, so every seed
  // replays the same transactions.
  pstore::ExperimentConfig config;
  config.replay_days = 1;
  config.engine.seed = 42 + seed;
  if (workload == Workload::kElasticSpike) {
    // Fig. 11's spike day at the R x 8 fallback rate.
    config.strategy = pstore::ElasticityStrategy::kPStoreSpar;
    config.train_days = shortened ? 9 : kSpikeTrainDays;
    config.trace = pstore::B2wSpikeDay(config.train_days, 20160901);
    config.trace.spike_boost = 1.0;
    config.peak_txn_rate = kSpikePeakTxnRate;
    config.controller.infeasible_rate_multiplier = kSpikeFallbackMultiplier;
    if (shortened) config.speedup = 200.0;
    return config;
  }
  // ksafe_static: 10 static nodes with every engine subsystem on.
  config.strategy = pstore::ElasticityStrategy::kStatic;
  config.static_nodes = 10;
  config.train_days = shortened ? 9 : kKsafeTrainDays;
  config.trace = pstore::B2wRegularTraffic(config.train_days + 1);
  config.speedup = shortened ? 800.0 : kKsafeSpeedup;
  pstore::EngineConfig& engine = config.engine;
  engine.overload.enabled = true;
  engine.replication.enabled = true;
  engine.replication.k = 1;
  engine.replication.durability.enabled = true;
  engine.net.enabled = true;
  engine.topology.enabled = true;
  return config;
}

uint64_t DigestEngine(const pstore::ExperimentResult& r) {
  Fnv fnv;
  fnv.AddInt(static_cast<int64_t>(r.latency_windows.size()));
  for (const auto& w : r.latency_windows) {
    fnv.AddInt(w.start);
    fnv.AddInt(w.count);
    fnv.AddDouble(w.mean);
    fnv.AddInt(w.p50);
    fnv.AddInt(w.p95);
    fnv.AddInt(w.p99);
    fnv.AddInt(w.max);
  }
  fnv.AddInt(static_cast<int64_t>(r.throughput_txn_s.size()));
  for (double t : r.throughput_txn_s) fnv.AddDouble(t);
  fnv.AddInt(static_cast<int64_t>(r.allocation.size()));
  for (const auto& a : r.allocation) {
    fnv.AddInt(a.at);
    fnv.AddInt(a.nodes);
  }
  fnv.AddInt(static_cast<int64_t>(r.moves.size()));
  for (const auto& m : r.moves) {
    fnv.AddInt(m.start);
    fnv.AddInt(m.end);
    fnv.AddInt(m.from_nodes);
    fnv.AddInt(m.to_nodes);
    fnv.AddInt(m.aborted ? 1 : 0);
    fnv.AddInt(m.truncated ? 1 : 0);
  }
  for (int64_t v : {r.violations_p50, r.violations_p95, r.violations_p99,
                    r.submitted, r.committed, r.aborted,
                    r.infeasible_cycles, r.end_time}) {
    fnv.AddInt(v);
  }
  fnv.AddDouble(r.avg_machines);
  fnv.AddDouble(r.max_partition_access_over_mean);
  return fnv.value();
}

std::string HexDigest(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace perfbench
