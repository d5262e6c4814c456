// crew_launch: spawns a multi-process deployment — one crew_node per
// endpoint — runs the standard mixed workload to completion and checks
// every instance reached its expected terminal state. With --kill it
// SIGKILLs one node mid-run and restarts it (bumped incarnation, durable
// AGDB replay), demonstrating the crash-recovery path end to end; this
// is what the CI multi-process smoke runs.

#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "net/supervisor.h"
#include "net/telemetry.h"
#include "net/testbed.h"
#include "net/trace_merge.h"
#include "runtime/wire.h"

namespace crew::net {

struct LaunchFlags {
  std::string node_bin;
  std::string workdir;
  std::string mode = "dist";
  int endpoints = 3;
  int engines = 2;
  int agents = 3;
  int instances = 9;
  uint64_t seed = 42;
  int64_t tick_us = 20;
  int64_t pending_timeout = 5000;
  std::string kill;  // endpoint address, or "auto" for the last one
  int kill_after_ms = 40;
  int timeout_ms = 120000;
  int status_interval_ms = 0;  // live cluster snapshots (0 = off)
  std::string trace_dir;       // per-process shards + merged trace
  std::string placement = "static";  // static | rr | hash | least
  int classes = 0;                   // sweep workload classes (0 = mixed)
};

void LaunchUsage() {
  std::fprintf(
      stderr,
      "crew_launch --node-bin <crew_node> --workdir <dir> [options]\n"
      "  --mode central|parallel|dist   (default dist)\n"
      "  --endpoints N                  processes to spread nodes over\n"
      "  --engines N --agents N --instances N\n"
      "  --seed N --tick-us N --pending-timeout N\n"
      "  --kill auto|<address>          SIGKILL+restart a node mid-run\n"
      "  --kill-after-ms N --timeout-ms N\n"
      "  --status-interval-ms N         print live aggregated cluster\n"
      "                                 metrics every N ms\n"
      "  --trace-dir <dir>              per-process trace shards; merged\n"
      "                                 into <dir>/trace_merged.json\n"
      "  --placement static|rr|hash|least  instance placement policy\n"
      "  --classes N                    N all-committing workload classes\n"
      "                                 Wf0..Wf<N-1> (0 = standard mix)\n");
}

bool ParseLaunchFlags(int argc, char** argv, LaunchFlags* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (arg == "--node-bin" && (value = next())) {
      flags->node_bin = value;
    } else if (arg == "--workdir" && (value = next())) {
      flags->workdir = value;
    } else if (arg == "--mode" && (value = next())) {
      flags->mode = value;
    } else if (arg == "--endpoints" && (value = next())) {
      flags->endpoints = std::atoi(value);
    } else if (arg == "--engines" && (value = next())) {
      flags->engines = std::atoi(value);
    } else if (arg == "--agents" && (value = next())) {
      flags->agents = std::atoi(value);
    } else if (arg == "--instances" && (value = next())) {
      flags->instances = std::atoi(value);
    } else if (arg == "--seed" && (value = next())) {
      flags->seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--tick-us" && (value = next())) {
      flags->tick_us = std::atoll(value);
    } else if (arg == "--pending-timeout" && (value = next())) {
      flags->pending_timeout = std::atoll(value);
    } else if (arg == "--kill" && (value = next())) {
      flags->kill = value;
    } else if (arg == "--kill-after-ms" && (value = next())) {
      flags->kill_after_ms = std::atoi(value);
    } else if (arg == "--timeout-ms" && (value = next())) {
      flags->timeout_ms = std::atoi(value);
    } else if (arg == "--status-interval-ms" && (value = next())) {
      flags->status_interval_ms = std::atoi(value);
    } else if (arg == "--trace-dir" && (value = next())) {
      flags->trace_dir = value;
    } else if (arg == "--placement" && (value = next())) {
      flags->placement = value;
    } else if (arg == "--classes" && (value = next())) {
      flags->classes = std::atoi(value);
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", arg.c_str());
      return false;
    }
  }
  return !flags->node_bin.empty() && !flags->workdir.empty();
}

int RunLaunch(const LaunchFlags& flags) {
  mkdir(flags.workdir.c_str(), 0755);

  TestbedOptions testbed_options;
  testbed_options.mode = flags.mode;
  testbed_options.num_engines = flags.engines;
  testbed_options.num_agents = flags.agents;
  Result<Topology> topology =
      Testbed::UnixTopology(testbed_options, flags.workdir, flags.endpoints);
  if (!topology.ok()) {
    std::fprintf(stderr, "crew_launch: %s\n",
                 topology.status().ToString().c_str());
    return 1;
  }
  std::string topology_file = flags.workdir + "/topology.txt";
  Status saved = topology.value().Save(topology_file);
  if (!saved.ok()) {
    std::fprintf(stderr, "crew_launch: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("topology (%s):\n%s", flags.mode.c_str(),
              topology.value().Serialize().c_str());

  LaunchOptions options;
  options.node_binary = flags.node_bin;
  options.topology_file = topology_file;
  options.mode = flags.mode;
  options.num_engines = flags.engines;
  options.num_agents = flags.agents;
  options.num_instances = flags.instances;
  options.seed = flags.seed;
  options.tick_us = flags.tick_us;
  options.pending_timeout = flags.pending_timeout;
  options.placement = flags.placement;
  options.num_classes = flags.classes;
  if (flags.mode == "dist") {
    options.agdb_dir = flags.workdir + "/agdb";
    mkdir(options.agdb_dir.c_str(), 0755);
  }
  if (!flags.trace_dir.empty()) {
    options.trace_dir = flags.trace_dir;
    mkdir(options.trace_dir.c_str(), 0755);
  }

  Supervisor supervisor(topology.value(), options);
  Status started = supervisor.StartAll();
  if (!started.ok()) {
    std::fprintf(stderr, "crew_launch: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("spawned %zu node processes\n",
              supervisor.processes().size());

  // Live view: scrape every node's telemetry document on a cadence and
  // print the aggregate plus per-node transport health. Runs on its own
  // thread so a wedged node (bounded control timeout) cannot stall the
  // kill/quiesce sequencing below.
  // Nodes that can host instances, for the imbalance mean (idle nodes
  // count against balance).
  int placement_nodes = flags.mode == "dist"      ? flags.agents
                        : flags.mode == "parallel" ? flags.engines
                                                   : 1;
  // Least-loaded feed: push per-node routed counts (scraped from the
  // merged metrics) to the placer so its next decisions see live load.
  auto push_load_feed = [&](const std::vector<NodeTelemetry>& nodes) {
    if (flags.placement != "least" || nodes.empty()) return;
    std::map<NodeId, int64_t> counts = PlacementCounts(nodes);
    if (counts.empty()) return;
    std::string feed = "feed";
    char sep = ' ';
    for (const auto& [id, n] : counts) {
      feed += sep;
      feed += "n" + std::to_string(id) + ":" + std::to_string(n);
      sep = ',';
    }
    // The placer lives with the control side at endpoint 0.
    (void)supervisor.Request(supervisor.processes().front().endpoint, feed);
  };

  std::atomic<bool> status_stop{false};
  std::thread status_thread;
  if (flags.status_interval_ms > 0) {
    status_thread = std::thread([&]() {
      while (!status_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(flags.status_interval_ms));
        if (status_stop.load(std::memory_order_acquire)) break;
        std::vector<NodeTelemetry> nodes = supervisor.CollectTelemetry();
        if (nodes.empty()) continue;
        push_load_feed(nodes);
        std::string block =
            AggregateSummaryLine(AggregateTelemetry(nodes)) + "\n";
        PlacementImbalance im =
            ComputeImbalance(PlacementCounts(nodes), placement_nodes);
        if (im.total > 0) {
          char line[128];
          std::snprintf(line, sizeof(line),
                        "  placement: total=%lld max=%lld mean=%.2f "
                        "max/mean=%.2f\n",
                        static_cast<long long>(im.total),
                        static_cast<long long>(im.max_count), im.mean,
                        im.max_over_mean);
          block += line;
        }
        for (const NodeTelemetry& node : nodes) {
          block += NodeSummaryLine(node) + "\n";
        }
        // One write: keeps a snapshot contiguous in the output stream.
        std::fputs(block.c_str(), stdout);
        std::fflush(stdout);
      }
    });
  }

  if (!flags.kill.empty()) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(flags.kill_after_ms));
    Endpoint victim;
    if (flags.kill == "auto") {
      victim = supervisor.processes().back().endpoint;
    } else {
      Result<Endpoint> parsed = Endpoint::Parse(flags.kill);
      if (!parsed.ok()) {
        std::fprintf(stderr, "crew_launch: %s\n",
                     parsed.status().ToString().c_str());
        return 1;
      }
      victim = parsed.value();
    }
    std::printf("killing %s mid-run\n", victim.Address().c_str());
    Status killed = supervisor.Kill(victim);
    if (!killed.ok()) {
      std::fprintf(stderr, "crew_launch: %s\n", killed.ToString().c_str());
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Status restarted = supervisor.Restart(victim);
    if (!restarted.ok()) {
      std::fprintf(stderr, "crew_launch: %s\n",
                   restarted.ToString().c_str());
      return 1;
    }
    std::printf("restarted %s (recovering from log)\n",
                victim.Address().c_str());
  }

  auto stop_status_thread = [&]() {
    if (!status_thread.joinable()) return;
    status_stop.store(true, std::memory_order_release);
    status_thread.join();
  };

  Status quiesced = supervisor.WaitQuiescent(flags.timeout_ms);
  if (!quiesced.ok()) {
    std::fprintf(stderr, "crew_launch: %s\n", quiesced.ToString().c_str());
    stop_status_thread();
    supervisor.ShutdownAll();
    return 1;
  }

  // The expected mix is deterministic: Doomed aborts, the rest commit
  // (sweep classes Wf<k> all commit).
  auto schedule = [&](int i) {
    if (flags.classes > 0) {
      return "Wf" + std::to_string(i % flags.classes);
    }
    if (flags.mode == "dist") {
      switch (i % 3) {
        case 0: return std::string("Doomed");
        case 1: return std::string("Good");
        default: return std::string("Flaky");
      }
    }
    switch (i % 4) {
      case 0: return std::string("Doomed");
      case 1: return std::string("Good");
      case 2: return std::string("Flaky");
      default: return std::string("Par");
    }
  };
  int failures = 0;
  for (int i = 1; i <= flags.instances; ++i) {
    std::string schema = schedule(i);
    const char* expected = schema == "Doomed" ? "aborted" : "committed";
    Result<std::string> state = supervisor.QueryState(schema, i);
    std::string got = state.ok() ? state.value() : state.status().ToString();
    bool ok = state.ok() && state.value() == expected;
    if (!ok) ++failures;
    std::printf("  %-8s #%-3d %-10s %s\n", schema.c_str(), i, got.c_str(),
                ok ? "ok" : "MISMATCH");
  }
  stop_status_thread();

  // Final merged cluster snapshot, written while every process is still
  // alive (the scrape needs live control sockets).
  {
    std::vector<NodeTelemetry> nodes = supervisor.CollectTelemetry();
    if (!nodes.empty()) {
      std::string path = flags.workdir + "/cluster_telemetry.json";
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      if (out) {
        out << ClusterTelemetryJson(nodes) << "\n";
        std::printf("cluster telemetry (%zu nodes) -> %s\n", nodes.size(),
                    path.c_str());
      }
      PlacementImbalance im =
          ComputeImbalance(PlacementCounts(nodes), placement_nodes);
      if (im.total > 0) {
        std::printf(
            "placement (%s): %lld instances over %d nodes, "
            "max=%lld mean=%.2f max/mean=%.2f\n",
            flags.placement.c_str(), static_cast<long long>(im.total),
            im.nodes, static_cast<long long>(im.max_count), im.mean,
            im.max_over_mean);
      }
    }
  }

  supervisor.ShutdownAll();

  // Shards are written at each node's clean exit, so the merge must run
  // after ShutdownAll. Killed incarnations never wrote theirs — skip.
  if (!flags.trace_dir.empty()) {
    std::vector<TraceShard> shards;
    for (const std::string& path : supervisor.TraceShardPaths()) {
      Result<TraceShard> shard = LoadTraceShard(path);
      if (!shard.ok()) continue;
      shards.push_back(std::move(shard).value());
    }
    MergeStats stats;
    std::string merged_path = flags.trace_dir + "/trace_merged.json";
    Status merged = WriteMergedTrace(shards, merged_path, &stats);
    if (!merged.ok()) {
      std::fprintf(stderr, "crew_launch: trace merge: %s\n",
                   merged.ToString().c_str());
    } else {
      std::printf(
          "merged trace: %zu shards, %zu events, %zu cross-process "
          "spans matched -> %s\n",
          stats.shards, stats.events, stats.matched_flows,
          merged_path.c_str());
    }
  }

  if (failures != 0) {
    std::fprintf(stderr, "crew_launch: %d instances off terminal state\n",
                 failures);
    return 1;
  }
  std::printf("all %d instances reached expected terminal states\n",
              flags.instances);
  return 0;
}

}  // namespace crew::net

int main(int argc, char** argv) {
  crew::net::LaunchFlags flags;
  if (!crew::net::ParseLaunchFlags(argc, argv, &flags)) {
    crew::net::LaunchUsage();
    return 2;
  }
  return crew::net::RunLaunch(flags);
}
