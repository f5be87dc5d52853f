/// pstore_perfbench: runs one benchmark workload and prints its raw
/// measurements as one JSON document on stdout. run.py builds this
/// binary, checks the outputs and turns them into metrics.
///
///   pstore_perfbench --workload elastic_spike --seed 1 --seconds 30
///                    [--trace 0|1] [--short]
///
/// --trace 0 repeats the untraced run (the public entry point
/// RunElasticityExperiment) until --seconds of host time have passed,
/// with rounds of a host-speed calibration and set-up-only runs before
/// every repetition and after the last. --trace 1 makes one untraced
/// run and then the traced rebuild of the same run (traced.h). --short
/// selects the small self-test inputs. `pstore_perfbench --calibrate`,
/// which the rounds run in a fresh process, prints the calibration's
/// time alone.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "traced.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupsPerRound = 5;
constexpr int kCalibrationsPerRound = 3;

double SecondsSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

struct Options {
  Workload workload = Workload::kElasticSpike;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool shortened = false;
};

bool ParseArgs(int argc, char** argv, Options* opt) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--short") {
      opt->shortened = true;
    } else if (arg == "--workload" && has_value) {
      if (!ParseWorkload(argv[++i], &opt->workload)) return false;
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      opt->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt->trace = std::string(argv[++i]) == "1";
    } else {
      return false;
    }
  }
  return have_workload && opt->seconds > 0;
}

/// Process CPU seconds (user + system) so far.
double CpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

pstore::JsonValue Num(double v) { return pstore::JsonValue(v); }

/// Keeps the calibration's result observable.
volatile uint64_t calibration_sink = 0;

/// Host seconds of a fixed calibration job that uses no code of the
/// program: hash-map inserts and random lookups over a working set of
/// tens of MiB, then heap pushes and pops, the access pattern of the
/// storage fragments and the event queue. On a shared host the speed of
/// such code drifts by up to 1.3x over minutes, and the benchmark's own
/// times drift with it; run.py divides that drift out (see README.md).
double CalibrationSeconds() {
  const Clock::time_point start = Clock::now();
  uint64_t x = 88172645463325252ULL;
  auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::unordered_map<uint64_t, uint64_t> map;
  for (uint64_t i = 0; i < 400000; ++i) map[next() % 4000000] = i;
  uint64_t sum = 0;
  for (int i = 0; i < 2000000; ++i) {
    const auto it = map.find(next() % 4000000);
    if (it != map.end()) sum += it->second;
  }
  std::priority_queue<uint64_t> heap;
  for (int i = 0; i < 1000000; ++i) {
    heap.push(next());
    if (heap.size() > 1000) heap.pop();
  }
  calibration_sink = sum + heap.top();
  return SecondsSince(start, Clock::now());
}

/// The `--calibrate` mode: prints the median of kCalibrationsPerRound
/// calibration runs, after an untimed first run that faults the pages
/// in, as the workload's repetitions reuse a warm heap.
int PrintCalibration() {
  CalibrationSeconds();
  std::vector<double> runs;
  for (int i = 0; i < kCalibrationsPerRound; ++i) {
    runs.push_back(CalibrationSeconds());
  }
  std::sort(runs.begin(), runs.end());
  std::printf("%.9f\n", runs[runs.size() / 2]);
  return 0;
}

/// Runs `--calibrate` in a fresh process of this binary, so that the
/// calibration's memory never counts towards this process's peak
/// resident set and no state of this process, such as its heap, can
/// change the calibration's speed.
pstore::Result<double> MedianCalibrationSeconds() {
  int fds[2];
  if (pipe(fds) != 0) return pstore::Status::Internal("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return pstore::Status::Internal("fork failed");
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execl("/proc/self/exe", "pstore_perfbench", "--calibrate",
          static_cast<char*>(nullptr));
    _exit(127);
  }
  close(fds[1]);
  std::string out;
  char buf[64];
  ssize_t got;
  while ((got = read(fds[0], buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<size_t>(got));
  }
  close(fds[0]);
  int status = 0;
  const bool exited = waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                      WEXITSTATUS(status) == 0;
  char* end = nullptr;
  const double seconds = std::strtod(out.c_str(), &end);
  if (!exited || end == out.c_str() || !(seconds > 0)) {
    return pstore::Status::Internal("calibration process failed");
  }
  return seconds;
}

/// Thrown by a stopping FirstStepMarker at the first simulated step.
struct FirstStepReached {};

/// Marks where set-up ends in RunElasticityExperiment: a read-only
/// exporter whose only gauge records the host clock when it is first
/// sampled, at virtual time 0 after every set-up step, and whose period
/// outlasts the run. A stopping marker then throws FirstStepReached, so
/// the run ends there and everything it built unwinds.
class FirstStepMarker {
 public:
  explicit FirstStepMarker(bool stop) : exporter_(&registry_) {
    registry_.RegisterCallbackGauge("perfbench.first_step", [this, stop]() {
      if (!at_) {
        at_ = Clock::now();
        cpu_ = CpuSeconds();
      }
      if (stop) throw FirstStepReached{};
      return 0.0;
    });
  }

  void Attach(pstore::ExperimentConfig* config) {
    config->telemetry_exporter = &exporter_;
    config->telemetry_sample_period = 1000 * pstore::kDay;
  }
  const std::optional<Clock::time_point>& at() const { return at_; }
  double cpu() const { return cpu_; }

 private:
  pstore::obs::MetricsRegistry registry_;
  pstore::obs::TimeseriesExporter exporter_;
  std::optional<Clock::time_point> at_;
  double cpu_ = 0;
};

/// One untraced run through RunElasticityExperiment, split into set-up
/// and simulated run at the first simulated step.
pstore::Result<pstore::JsonValue> UntracedRep(
    const pstore::ExperimentConfig& base) {
  pstore::ExperimentConfig config = base;
  FirstStepMarker marker(/*stop=*/false);
  marker.Attach(&config);

  const double start_cpu = CpuSeconds();
  const Clock::time_point start = Clock::now();
  auto result = pstore::RunElasticityExperiment(config);
  const Clock::time_point end = Clock::now();
  const double end_cpu = CpuSeconds();
  if (!result.ok()) return result.status();
  if (!marker.at()) return pstore::Status::Internal("no first-step marker");

  int64_t worst_p99 = 0;
  for (const auto& w : result->latency_windows) {
    worst_p99 = std::max(worst_p99, w.p99);
  }
  pstore::JsonValue rep = pstore::JsonValue::Object();
  rep.Set("setup_s", Num(SecondsSince(start, *marker.at())));
  rep.Set("run_s", Num(SecondsSince(*marker.at(), end)));
  rep.Set("setup_cpu_s", Num(marker.cpu() - start_cpu));
  rep.Set("run_cpu_s", Num(end_cpu - marker.cpu()));
  rep.Set("digest", pstore::JsonValue(HexDigest(DigestEngine(*result))));
  rep.Set("submitted", pstore::JsonValue(result->submitted));
  rep.Set("committed", pstore::JsonValue(result->committed));
  rep.Set("aborted", pstore::JsonValue(result->aborted));
  rep.Set("violations_p95", pstore::JsonValue(result->violations_p95));
  rep.Set("violations_p99", pstore::JsonValue(result->violations_p99));
  rep.Set("worst_second_p99_ms", Num(static_cast<double>(worst_p99) / 1e3));
  rep.Set("seconds", pstore::JsonValue(
                         static_cast<int64_t>(result->latency_windows.size())));
  rep.Set("avg_machines", Num(result->avg_machines));
  rep.Set("moves", pstore::JsonValue(
                       static_cast<int64_t>(result->moves.size())));
  return rep;
}

/// Host seconds of the workload's set-up alone: the same
/// RunElasticityExperiment call as UntracedRep, stopped at its first
/// simulated step.
pstore::Result<double> SetupOnlySeconds(const pstore::ExperimentConfig& base) {
  pstore::ExperimentConfig config = base;
  FirstStepMarker marker(/*stop=*/true);
  marker.Attach(&config);
  const Clock::time_point start = Clock::now();
  try {
    auto result = pstore::RunElasticityExperiment(config);
    if (!result.ok()) return result.status();
  } catch (const FirstStepReached&) {
    return SecondsSince(start, *marker.at());
  }
  return pstore::Status::Internal("set-up-only run passed its first step");
}

pstore::JsonValue NamedValuesJson(const NamedValues& values) {
  pstore::JsonValue obj = pstore::JsonValue::Object();
  for (const auto& [name, value] : values) obj.Set(name, Num(value));
  return obj;
}

int Run(const Options& opt) {
  const pstore::ExperimentConfig config =
      EngineExperimentConfig(opt.workload, opt.seed, opt.shortened);

  pstore::JsonValue doc = pstore::JsonValue::Object();
  doc.Set("workload", pstore::JsonValue(WorkloadName(opt.workload)));
  doc.Set("seed", pstore::JsonValue(static_cast<int64_t>(opt.seed)));
  doc.Set("shortened", pstore::JsonValue(opt.shortened));
  // A round goes before every repetition and after the last: a
  // calibration, which measures the host's speed there, and (untraced
  // runs only) set-up-only runs of the same experiment. A repetition
  // yields one set-up sample, and repetitions are few; the rounds spread
  // more set-up samples over the whole run, as host speed drifts.
  pstore::JsonValue rounds = pstore::JsonValue::Array();
  auto setup_round = [&]() -> pstore::Status {
    auto calibration = MedianCalibrationSeconds();
    if (!calibration.ok()) return calibration.status();
    pstore::JsonValue round = pstore::JsonValue::Object();
    round.Set("calibration_s", Num(*calibration));
    pstore::JsonValue setups = pstore::JsonValue::Array();
    for (int i = 0; !opt.trace && i < kSetupsPerRound; ++i) {
      auto seconds = SetupOnlySeconds(config);
      if (!seconds.ok()) return seconds.status();
      setups.Append(Num(*seconds));
    }
    round.Set("setups", std::move(setups));
    rounds.Append(std::move(round));
    return pstore::Status::OK();
  };

  pstore::JsonValue reps = pstore::JsonValue::Array();
  pstore::Status status;
  const Clock::time_point start = Clock::now();
  do {
    status = setup_round();
    if (!status.ok()) break;
    auto rep = UntracedRep(config);
    if (!rep.ok()) {
      status = rep.status();
      break;
    }
    reps.Append(std::move(*rep));
  } while (!opt.trace &&
           SecondsSince(start, Clock::now()) < opt.seconds);
  if (status.ok()) status = setup_round();
  if (!status.ok()) {
    std::fprintf(stderr, "run failed: %s\n", status.ToString().c_str());
    return 1;
  }
  doc.Set("reps", std::move(reps));
  doc.Set("rounds", std::move(rounds));
  doc.Set("peak_rss_mb", Num(PeakRssMb()));

  if (opt.trace) {
    auto traced = TraceWorkload(config);
    if (!traced.ok()) {
      std::fprintf(stderr, "traced run failed: %s\n",
                   traced.status().ToString().c_str());
      return 1;
    }
    pstore::JsonValue t = pstore::JsonValue::Object();
    t.Set("digest", pstore::JsonValue(HexDigest(traced->digest)));
    t.Set("run_s", Num(traced->run_s));
    t.Set("completions", Num(traced->completions));
    t.Set("storage_writes", Num(traced->storage_writes));
    t.Set("must_be_zero", NamedValuesJson(traced->must_be_zero));
    t.Set("layers", NamedValuesJson(traced->layers));
    doc.Set("traced", std::move(t));
  }
  std::fputs(doc.Dump().c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--calibrate") {
    return perfbench::PrintCalibration();
  }
  perfbench::Options opt;
  if (!perfbench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload elastic_spike|ksafe_static "
                 "[--seed N] [--seconds S] [--trace 0|1] [--short]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(opt);
}
