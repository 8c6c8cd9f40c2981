// The benchmark's four workloads, driven through rtmac's public API.
//
// Each workload turns --seed into its inputs (topologies, configs, grids)
// before any clock starts, then repeats one fixed unit of work for the
// requested number of seconds. End-to-end timings report the best
// repetition, per-layer timings the median over the repetitions.
// Every unit is checked (delivered <= arrivals per link, per-link deliveries
// sum to the medium's count, finite deficiency, no event-queue regrowth)
// and digested; a unit that fails a check counts as a failed run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t workers = 1;  ///< pool threads (sweep or shard jobs); +1 caller
  std::size_t nproc = 1;    ///< CPUs in the process's affinity mask
  std::string out_dir;      ///< scratch files: metrics, stream, spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;  ///< simulated runs checked
  std::uint64_t failed = 0;     ///< runs that failed a check
  std::vector<std::string> failures;  ///< first few failure messages
  std::string digest;           ///< hex digest of the N-worker result
  std::vector<Metric> metrics;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload; throws std::invalid_argument on an unknown name.
[[nodiscard]] Outcome run_workload(const Options& opts);

}  // namespace perfbench
