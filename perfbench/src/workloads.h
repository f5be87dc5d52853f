#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/experiment.h"

/// \file workloads.h
/// The benchmark workloads, their inputs as a function of the workload
/// seed, and the digest of their simulated outputs. Both the untraced
/// run (main.cc) and the traced run (traced.cc) build their inputs from
/// here, so the two cannot drift apart.

namespace perfbench {

enum class Workload { kElasticSpike, kKsafeStatic };

/// Parses a workload name; false if unknown.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

/// The experiment handed to pstore::RunElasticityExperiment.
/// `shortened` swaps in a small input of the same shape (the self-test
/// size).
pstore::ExperimentConfig EngineExperimentConfig(Workload workload,
                                                uint64_t seed,
                                                bool shortened);

/// FNV-1a digest of every simulated output. Equal digests mean equal
/// latency windows, throughput windows, allocation timeline, move
/// records and txn counters.
uint64_t DigestEngine(const pstore::ExperimentResult& result);

/// Lower-case hex rendering of a digest.
std::string HexDigest(uint64_t digest);

}  // namespace perfbench
