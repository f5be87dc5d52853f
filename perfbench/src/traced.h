#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/experiment.h"
#include "workloads.h"

/// \file traced.h
/// The traced run: the same simulation as the untraced run, rebuilt from
/// the program's public components so that the benchmark can put timers
/// around the pieces a caller supplies (procedure bodies, the load
/// predictor), step the simulator in slices of one virtual second, read
/// the counters the program exposes, and replay the controller's plans
/// on their own. Nothing inside the program is instrumented.

namespace perfbench {

/// Ordered (name, value) pairs.
using NamedValues = std::vector<std::pair<std::string, double>>;

/// What one traced run yields.
struct TracedOutcome {
  /// Digest of the simulated outputs; must equal the untraced run's.
  uint64_t digest = 0;
  /// Host seconds of the traced simulated run (set-up excluded).
  double run_s = 0;
  /// Every per-layer metric, by name (trace.overhead_frac excepted,
  /// which needs the untraced run time).
  NamedValues layers;
  /// Output-check counters that only the rebuilt run can read (engine
  /// state not carried by ExperimentResult, and how far the plan replay
  /// is from the controller's own plans). Each must read 0.
  NamedValues must_be_zero;
  /// Committed + aborted, for the attribution line.
  double completions = 0;
  /// Successful storage writes across all procedure calls.
  double storage_writes = 0;
};

/// Traced rebuild of RunElasticityExperiment for `config` (strategies
/// kStatic and kPStoreSpar).
pstore::Result<TracedOutcome> TraceWorkload(
    const pstore::ExperimentConfig& config);

}  // namespace perfbench
