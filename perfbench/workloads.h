// The benchmark's workloads. Each call runs one workload for about
// `seconds` of wall time and returns every metric it measured.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  /// Outputs checked and every repetition agreed.
  bool correct = true;
  /// Instances started (in the run the end-to-end counts come from).
  int64_t attempted = 0;
  /// Started instances not terminal after the drain, or aborted without
  /// being designated for abort.
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// One line per failed instance: enough to rerun it.
  std::vector<std::string> repro;
  /// Problems that make `correct` false.
  std::vector<std::string> errors;
  /// Every repetition / window and the run's provenance, as JSON.
  std::string detail;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// The Table 3 failure mix on the virtual-time simulator, central
/// (`dist` false) or distributed control.
Outcome RunSimFailmix(bool dist, uint64_t seed, double seconds, bool traced);

/// Distributed control on the live runtime with durable agent logs
/// under `work_dir`, fed open-loop Poisson arrivals.
Outcome RunLiveDist(uint64_t seed, double seconds, bool traced,
                    const std::string& work_dir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
