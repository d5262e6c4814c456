// Scale-out cluster sweep: for each process count N, spawns a real
// N-process dist deployment (front end at ep0, one full agent per
// remaining endpoint) via net::Supervisor, open-loop drives W workflow
// instances through the "drive" control verb, and reports throughput
// (wf/s), pooled sojourn percentiles (exact cross-process histogram
// merge), per-node placement imbalance (max/mean instances routed) and
// admin-message cost per instance. The last number is the one to watch:
// the targeted end-of-instance purge keeps it flat as agents are added
// (EXPERIMENTS.md and BENCH_cluster_broadcast.json hold the curve of the
// retired purge-to-every-agent broadcast, which grew O(agents)).
//
// Flags:
//   --smoke            one small 8-process config (<~30s) for CI
//   --counts=8,16,32   process counts to sweep (default 8,16,32,64)
//   --workflows=N      instances per config (default 2000)
//   --rate=N           open-loop starts/s (0 = blast, default 0)
//   --placement=P      static | rr | hash | least (default hash)
//   --classes=N        workload classes Wf0..Wf<N-1> (default 8)
//   --tick-us=N        virtual tick length in the nodes (default 20)
//   --timeout-ms=N     per-config quiesce timeout (default 600000)
//   --json=PATH        output path (default BENCH_cluster.json)
//   --node-bin=PATH    crew_node binary (default: compiled-in path)
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "net/supervisor.h"
#include "net/telemetry.h"
#include "net/testbed.h"
#include "net/topology.h"
#include "obs/trace.h"

#ifndef CREW_NODE_BIN
#define CREW_NODE_BIN ""
#endif

namespace crew {
namespace {

struct SweepFlags {
  std::vector<int> counts = {8, 16, 32, 64};
  int workflows = 2000;
  int64_t rate = 0;
  std::string placement = "hash";
  int classes = 8;
  int64_t tick_us = 10;
  int timeout_ms = 600000;
  std::string json_path = "BENCH_cluster.json";
  std::string node_bin = CREW_NODE_BIN;
  bool smoke = false;
};

struct ConfigResult {
  int processes = 0;
  int agents = 0;
  int workflows = 0;
  double wall_ms = 0;
  double wf_per_sec = 0;
  int64_t committed = 0;
  int64_t aborted = 0;
  int64_t messages_total = 0;
  double messages_per_wf = 0;
  int64_t sojourn_samples = 0;
  double p50_us = 0, p95_us = 0, p99_us = 0;
  net::PlacementImbalance imbalance;
  bool ok = false;
  std::string error;
};

std::vector<int> ParseCounts(const std::string& text) {
  std::vector<int> out;
  const char* p = text.c_str();
  while (*p != '\0') {
    int v = std::atoi(p);
    if (v > 1) out.push_back(v);
    const char* comma = std::strchr(p, ',');
    if (comma == nullptr) break;
    p = comma + 1;
  }
  return out;
}

ConfigResult RunConfig(const SweepFlags& flags, int processes) {
  ConfigResult r;
  r.processes = processes;
  r.agents = processes - 1;  // front end at ep0, one agent per other ep
  r.workflows = flags.workflows;

  char dir_template[] = "/tmp/crew_cluster_sweep_XXXXXX";
  char* dir = mkdtemp(dir_template);
  if (dir == nullptr) {
    r.error = "mkdtemp failed";
    return r;
  }

  net::TestbedOptions testbed_options;
  testbed_options.mode = "dist";
  testbed_options.num_agents = r.agents;
  testbed_options.placement = flags.placement;
  testbed_options.num_classes = flags.classes;

  Result<net::Topology> topology =
      net::Testbed::UnixTopology(testbed_options, dir, processes);
  if (!topology.ok()) {
    r.error = topology.status().ToString();
    return r;
  }
  std::string topology_file = std::string(dir) + "/topology.txt";
  Status saved = topology.value().Save(topology_file);
  if (!saved.ok()) {
    r.error = saved.ToString();
    return r;
  }

  net::LaunchOptions options;
  options.node_binary = flags.node_bin;
  options.topology_file = topology_file;
  options.mode = "dist";
  options.num_agents = r.agents;
  options.num_instances = flags.workflows;
  options.tick_us = flags.tick_us;
  // Throughput run: a blast legitimately queues healthy steps past the
  // equivalence default, and overdue probes are not what we measure.
  // Kept as small as that allows — the pending timers also gate
  // quiescence, so their real-time span (ticks * tick_us) is a flat
  // addition to every config's wall clock.
  options.pending_timeout = 50000;
  options.placement = flags.placement;
  options.num_classes = flags.classes;
  options.drive_on_start = false;  // the "drive" verb injects the load
  options.telemetry_interval_ms = 200;

  net::Supervisor supervisor(topology.value(), options);
  Status started = supervisor.StartAll();
  if (!started.ok()) {
    r.error = started.ToString();
    return r;
  }

  // The placer (front end) lives at ep0 by UnixTopology construction.
  net::Endpoint control;
  control.kind = net::Endpoint::Kind::kUnix;
  control.path = std::string(dir) + "/ep0.sock";

  // Wait until every control socket answers before starting the clock.
  for (const auto& process : supervisor.processes()) {
    bool up = false;
    for (int attempt = 0; attempt < 500 && !up; ++attempt) {
      up = supervisor.Request(process.endpoint, "ping").ok();
      if (!up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    if (!up) {
      r.error = "node " + process.endpoint.Address() + " never came up";
      supervisor.ShutdownAll();
      return r;
    }
  }

  // Least-loaded: feed the placer live per-node routed counts while the
  // run is in flight.
  std::atomic<bool> feed_stop{false};
  std::thread feeder;
  if (flags.placement == "least") {
    feeder = std::thread([&]() {
      while (!feed_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        std::map<NodeId, int64_t> counts =
            net::PlacementCounts(supervisor.CollectTelemetry(500));
        if (counts.empty()) continue;
        std::string feed = "feed";
        char sep = ' ';
        for (const auto& [id, n] : counts) {
          feed += sep;
          feed += "n" + std::to_string(id) + ":" + std::to_string(n);
          sep = ',';
        }
        (void)supervisor.Request(control, feed);
      }
    });
  }

  auto t0 = std::chrono::steady_clock::now();
  Result<std::string> driven = supervisor.Request(
      control, "drive " + std::to_string(flags.workflows) + " " +
                   std::to_string(flags.rate));
  Status quiesced = driven.ok()
                        ? supervisor.WaitQuiescent(flags.timeout_ms)
                        : driven.status();
  auto wall = std::chrono::steady_clock::now() - t0;

  std::vector<net::NodeTelemetry> telemetry = supervisor.CollectTelemetry();
  feed_stop.store(true, std::memory_order_release);
  if (feeder.joinable()) feeder.join();
  supervisor.ShutdownAll();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  if (!quiesced.ok()) {
    r.error = quiesced.ToString();
    return r;
  }

  r.wall_ms =
      std::chrono::duration_cast<std::chrono::microseconds>(wall).count() /
      1000.0;
  r.wf_per_sec =
      r.wall_ms > 0 ? flags.workflows / (r.wall_ms / 1000.0) : 0;

  net::ClusterAggregate agg = net::AggregateTelemetry(telemetry);
  r.committed = agg.wf_committed;
  r.aborted = agg.wf_aborted;
  r.messages_total = agg.messages_total;
  r.messages_per_wf =
      flags.workflows > 0
          ? static_cast<double>(agg.messages_total) / flags.workflows
          : 0;
  obs::LatencyHistogram sojourn =
      net::PooledLatency(telemetry, "wf.sojourn_ticks");
  r.sojourn_samples = sojourn.count();
  double tick = static_cast<double>(flags.tick_us);
  r.p50_us = sojourn.Percentile(50) * tick;
  r.p95_us = sojourn.Percentile(95) * tick;
  r.p99_us = sojourn.Percentile(99) * tick;
  r.imbalance =
      net::ComputeImbalance(net::PlacementCounts(telemetry), r.agents);
  r.ok = r.committed + r.aborted == flags.workflows;
  if (!r.ok) {
    r.error = "terminal count mismatch: committed=" +
              std::to_string(r.committed) + " aborted=" +
              std::to_string(r.aborted) + " of " +
              std::to_string(flags.workflows);
  }
  return r;
}

int Main(int argc, char** argv) {
  SweepFlags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      flags.smoke = true;
    } else if (arg.rfind("--counts=", 0) == 0) {
      flags.counts = ParseCounts(arg.substr(9));
    } else if (arg.rfind("--workflows=", 0) == 0) {
      flags.workflows = std::atoi(arg.c_str() + 12);
    } else if (arg.rfind("--rate=", 0) == 0) {
      flags.rate = std::atoll(arg.c_str() + 7);
    } else if (arg.rfind("--placement=", 0) == 0) {
      flags.placement = arg.substr(12);
    } else if (arg.rfind("--classes=", 0) == 0) {
      flags.classes = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--tick-us=", 0) == 0) {
      flags.tick_us = std::atoll(arg.c_str() + 10);
    } else if (arg.rfind("--timeout-ms=", 0) == 0) {
      flags.timeout_ms = std::atoi(arg.c_str() + 13);
    } else if (arg.rfind("--json=", 0) == 0) {
      flags.json_path = arg.substr(7);
    } else if (arg.rfind("--node-bin=", 0) == 0) {
      flags.node_bin = arg.substr(11);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (flags.smoke) {
    flags.counts = {8};
    flags.workflows = 120;
    flags.rate = 0;
  }
  if (flags.node_bin.empty()) {
    std::fprintf(stderr, "need --node-bin=<crew_node path>\n");
    return 2;
  }
  if (flags.counts.empty()) {
    std::fprintf(stderr, "need at least one process count\n");
    return 2;
  }

  std::printf(
      "cluster sweep: %d wf per config, rate=%lld/s, placement=%s, "
      "classes=%d\n",
      flags.workflows, static_cast<long long>(flags.rate),
      flags.placement.c_str(), flags.classes);

  std::vector<ConfigResult> results;
  int failures = 0;
  for (int processes : flags.counts) {
    ConfigResult r = RunConfig(flags, processes);
    if (!r.ok) {
      ++failures;
      std::fprintf(stderr, "  %2d procs: FAIL (%s)\n", processes,
                   r.error.c_str());
    } else {
      std::printf(
          "  %2d procs (%2d agents): %6d wf in %8.1f ms => %8.0f wf/s  "
          "sojourn p50=%.0f p95=%.0f p99=%.0f us  msgs/wf=%.1f  "
          "imbalance=%.2f\n",
          r.processes, r.agents, r.workflows, r.wall_ms, r.wf_per_sec,
          r.p50_us, r.p95_us, r.p99_us, r.messages_per_wf,
          r.imbalance.max_over_mean);
    }
    results.push_back(std::move(r));
  }

  double speedup = 0;
  if (results.size() > 1 && results.front().ok && results.back().ok &&
      results.front().wf_per_sec > 0) {
    speedup = results.back().wf_per_sec / results.front().wf_per_sec;
  }

  std::ofstream out(flags.json_path, std::ios::binary | std::ios::trunc);
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"bench\":\"cluster_sweep\",\"smoke\":%s,"
                "\"placement\":\"%s\",\"classes\":%d,"
                "\"workflows\":%d,\"rate\":%lld,"
                "\"tick_us\":%lld,\"configs\":[",
                flags.smoke ? "true" : "false", flags.placement.c_str(),
                flags.classes, flags.workflows, static_cast<long long>(flags.rate),
                static_cast<long long>(flags.tick_us));
  out << buf;
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    if (i > 0) out << ",";
    std::snprintf(
        buf, sizeof(buf),
        "{\"processes\":%d,\"agents\":%d,\"ok\":%s,\"wall_ms\":%.3f,"
        "\"wf_per_sec\":%.1f,\"committed\":%lld,\"aborted\":%lld,"
        "\"messages_total\":%lld,\"messages_per_wf\":%.2f,"
        "\"sojourn_us\":{\"samples\":%lld,\"p50\":%.1f,\"p95\":%.1f,"
        "\"p99\":%.1f},"
        "\"imbalance\":{\"nodes\":%d,\"total\":%lld,\"max\":%lld,"
        "\"mean\":%.2f,\"max_over_mean\":%.2f}}",
        r.processes, r.agents, r.ok ? "true" : "false", r.wall_ms,
        r.wf_per_sec, static_cast<long long>(r.committed),
        static_cast<long long>(r.aborted),
        static_cast<long long>(r.messages_total), r.messages_per_wf,
        static_cast<long long>(r.sojourn_samples), r.p50_us, r.p95_us,
        r.p99_us, r.imbalance.nodes,
        static_cast<long long>(r.imbalance.total),
        static_cast<long long>(r.imbalance.max_count), r.imbalance.mean,
        r.imbalance.max_over_mean);
    out << buf;
  }
  std::snprintf(buf, sizeof(buf),
                "],\"speedup_smallest_to_largest\":%.2f}\n", speedup);
  out << buf;
  out.close();
  std::printf("wrote %s\n", flags.json_path.c_str());

  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace crew

int main(int argc, char** argv) { return crew::Main(argc, argv); }
