// crew_perfbench: runs one benchmark workload and prints its metrics.
//
//   crew_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--work-dir <dir>]
//
// Human-readable lines first (one per metric, failure repro lines), then
// one line "PERFBENCH <json>" with every metric, the outcome counts, the
// per-repetition detail and the run's provenance. run.py reduces that
// line to the benchmark's result.
#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: crew_perfbench --workload <sim-central-failmix|"
               "sim-dist-failmix|rt-dist-durable> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir = ".perfbench-work";
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || workload.empty() || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }

  // Keep freed heap in the process and serve large blocks from it: with
  // glibc's defaults, set-ups alternated between reusing heap and
  // faulting in fresh pages that the last teardown had trimmed, which
  // moved rt's set-up time by 2-3x from one set-up to the next.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);

  perfbench::Outcome out;
  int64_t tick_us = 0;
  if (workload == "sim-central-failmix" || workload == "sim-dist-failmix") {
    out = perfbench::RunSimFailmix(workload == "sim-dist-failmix", seed,
                                   seconds, trace == 1);
  } else if (workload == "rt-dist-durable") {
    tick_us = 10;
    out = perfbench::RunLiveDist(seed, seconds, trace == 1, work_dir);
  } else {
    return Usage();
  }

  for (const perfbench::Metric& m : out.metrics) {
    std::printf("%-40s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& line : out.repro) std::printf("%s\n", line.c_str());
  for (const std::string& line : out.errors) {
    std::printf("ERROR %s\n", line.c_str());
  }

  perfbench::JsonObject metrics;
  for (const perfbench::Metric& m : out.metrics) {
    metrics.Raw(m.name, perfbench::JsonObject()
                            .Num("value", m.value)
                            .Str("unit", m.unit)
                            .str());
  }
  std::vector<std::string> errors;
  for (const std::string& e : out.errors) {
    errors.push_back(perfbench::JsonObject().Str("e", e).str());
  }
  perfbench::JsonObject provenance;
  provenance.Str("workload", workload)
      .Num("seed", static_cast<double>(seed))
      .Num("seconds", seconds)
      .Num("trace", trace)
      .Num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Str("compiler", PERFBENCH_COMPILER)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Num("tick_us", static_cast<double>(tick_us));
  std::printf("PERFBENCH %s\n",
              perfbench::JsonObject()
                  .Num("correct", out.correct)
                  .Num("attempted", static_cast<double>(out.attempted))
                  .Num("failed", static_cast<double>(out.failed))
                  .Num("repro_lines", static_cast<double>(out.repro.size()))
                  .Raw("errors", perfbench::JsonArray(errors))
                  .Raw("metrics", metrics.str())
                  .Raw("provenance", provenance.str())
                  .Raw("detail", out.detail.empty() ? "{}" : out.detail)
                  .str()
                  .c_str());
  return 0;
}
