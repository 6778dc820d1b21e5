// The benchmark workloads, driven through the public iw::Client API
// against primary (and, for commit_rf1, replica) SegmentServers on
// loopback TcpServers inside this process.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< journals go in a per-run subdirectory, removed at the end
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  ///< observations behind the value
};

struct RunResult {
  std::string why;  ///< the workload's one-line reason
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> problems;  ///< first few failures, for the report
  std::vector<std::pair<std::string, std::string>> config;  ///< knobs used
  /// Host conditions over the timed phase (CPU busy and hypervisor-steal
  /// shares), to tell a slow system from a contended host.
  std::vector<std::pair<std::string, double>> conditions;
};

/// Runs one workload end to end: repeated set-up, the timed phase, the
/// post-run checks (replica, recovery). Throws std::invalid_argument for
/// an unknown workload.
RunResult run_workload(const RunConfig& config);

}  // namespace pb
