// Small helpers shared by the workloads: percentiles, process
// clocks, heap size, and a flat JSON object writer for the result line.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <malloc.h>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Nearest-rank percentile of `values` (copied; 0 when empty).
inline double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(pct / 100.0 * values.size());
  if (rank >= values.size()) rank = values.size() - 1;
  return values[rank];
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Process CPU time over all threads, in seconds.
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/// CPU time of the calling thread, in nanoseconds. Set-up is timed this
/// way: it counts the work set-up does, not the time other tenants of a
/// shared host hold the CPU (that moved rt's wall-clock set-up by 3x
/// between runs).
inline int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Bytes currently allocated from the heap, all arenas.
inline int64_t HeapInUse() {
  struct mallinfo2 info = mallinfo2();
  return static_cast<int64_t>(info.uordblks + info.hblkhd);
}

/// Builds one JSON object; values are numbers, strings, or raw JSON.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return Raw(key, buf);
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    quoted += crew::obs::JsonEscape(value);
    quoted += '"';
    return Raw(key, quoted);
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

inline std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += items[i];
  }
  return out + "]";
}

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
