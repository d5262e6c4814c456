// Socket-backend load bench: a closed-loop WorkflowStart blast against a
// multi-endpoint loopback deployment (src/net) — the same Testbed
// fragments crew_node hosts, but in-process NetNodes over real
// Unix-domain sockets, so the number isolates transport cost from
// process management. Reports saturation throughput (wf/s) and
// per-instance sojourn percentiles (instance span: navigation start ->
// commit, in virtual ticks scaled to µs), plus the transport's frame
// counters. Machine-readable output in BENCH_net.json.
//
// Flags:
//   --smoke          tiny workload (<2s) for CI
//   --mode=M         central | parallel | dist (default dist)
//   --workflows=N    instances (default 2000)
//   --agents=N       agent count (default 3)
//   --engines=N      parallel-control engine count (default 2)
//   --endpoints=N    socket endpoints to spread nodes over (default 3)
//   --json=PATH      output path (default BENCH_net.json)
//   --trace=PATH     merged cluster Chrome trace (all endpoints on one
//                    clock-aligned timeline, cross-process msg spans)
//   --jsonl=PATH     merged aligned JSONL event log
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/node.h"
#include "net/testbed.h"
#include "net/topology.h"
#include "net/trace_merge.h"
#include "obs/trace.h"
#include "rt/runtime.h"

namespace crew {
namespace {

constexpr uint64_t kSeed = 42;
constexpr int64_t kTickUs = 10;

double Ticks2Us(double ticks) { return ticks * static_cast<double>(kTickUs); }

struct BenchFlags {
  std::string mode = "dist";
  int workflows = 2000;
  int agents = 3;
  int engines = 2;
  int endpoints = 3;
  std::string json_path = "BENCH_net.json";
  std::string trace_path;
  std::string jsonl_path;
  bool smoke = false;
};

struct BenchResult {
  int workflows = 0;
  int64_t committed = 0;
  double wall_ms = 0;
  double wf_per_sec = 0;
  int64_t sojourn_samples = 0;
  double p50_us = 0, p95_us = 0, p99_us = 0, max_us = 0;
  net::SocketTransportStats transport;  // summed over endpoints
};

/// Cluster-wide quiescence, same double-sweep as net::Cluster::Quiesce
/// (re-implemented here because each node needs its own tracer, which
/// Cluster's shared RuntimeOptions cannot express).
void Quiesce(const std::vector<std::unique_ptr<net::NetNode>>& nodes) {
  int64_t last_admitted = -1;
  for (;;) {
    bool quiet = true;
    int64_t admitted = 0;
    for (const auto& node : nodes) {
      if (!node->LooksQuiet()) quiet = false;
      admitted += node->AdmittedWork();
    }
    if (quiet && admitted == last_admitted) return;
    last_admitted = quiet ? admitted : -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

BenchResult RunOnce(const BenchFlags& flags) {
  char dir_template[] = "/tmp/crew_bench_net_XXXXXX";
  char* dir = mkdtemp(dir_template);
  if (dir == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    std::exit(1);
  }

  net::TestbedOptions options;
  options.mode = flags.mode;
  options.num_engines = flags.engines;
  options.num_agents = flags.agents;
  // Generous overdue-step window: a blast can hold a healthy step in
  // queue past the equivalence default, and this bench measures
  // throughput, not probe traffic.
  options.pending_timeout = 50000;

  Result<net::Topology> topology =
      net::Testbed::UnixTopology(options, dir, flags.endpoints);
  if (!topology.ok()) {
    std::fprintf(stderr, "topology: %s\n",
                 topology.status().ToString().c_str());
    std::exit(1);
  }

  std::vector<net::Endpoint> endpoints = topology.value().Endpoints();
  std::vector<std::unique_ptr<obs::RingBufferTracer>> rings;
  std::vector<std::unique_ptr<net::NetNode>> nodes;
  std::vector<std::unique_ptr<net::Testbed>> testbeds;
  for (const net::Endpoint& endpoint : endpoints) {
    rings.push_back(std::make_unique<obs::RingBufferTracer>());
    rt::RuntimeOptions runtime_options;
    runtime_options.seed = kSeed;
    runtime_options.tick_us = kTickUs;
    runtime_options.tracer = rings.back().get();
    nodes.push_back(std::make_unique<net::NetNode>(
        topology.value(), endpoint, runtime_options,
        net::SocketTransportOptions{}));
    Status bound = nodes.back()->Bind();
    if (!bound.ok()) {
      std::fprintf(stderr, "bind: %s\n", bound.ToString().c_str());
      std::exit(1);
    }
  }
  for (auto& node : nodes) {
    testbeds.push_back(std::make_unique<net::Testbed>(
        &node->runtime(), topology.value(), node->self(), options));
  }
  for (auto& node : nodes) node->Start();
  for (auto& node : nodes) {
    if (!node->WaitConnected(std::chrono::seconds(30))) {
      std::fprintf(stderr, "endpoint %s failed to connect\n",
                   node->self().Address().c_str());
      std::exit(1);
    }
  }

  auto t0 = std::chrono::steady_clock::now();
  for (int i = 1; i <= flags.workflows; ++i) {
    NodeId start_node = testbeds[0]->StartNode("Good", i);
    for (size_t k = 0; k < testbeds.size(); ++k) {
      if (!testbeds[k]->Hosts(start_node)) continue;
      net::Testbed* testbed = testbeds[k].get();
      nodes[k]->runtime().Post(start_node, [testbed, i]() {
        (void)testbed->StartInstance("Good", i);
      });
      break;
    }
  }
  Quiesce(nodes);
  auto wall = std::chrono::steady_clock::now() - t0;

  BenchResult result;
  result.workflows = flags.workflows;
  result.wall_ms =
      std::chrono::duration_cast<std::chrono::microseconds>(wall).count() /
      1000.0;
  result.wf_per_sec =
      result.wall_ms > 0 ? flags.workflows / (result.wall_ms / 1000.0) : 0;
  for (auto& testbed : testbeds) {
    result.committed += testbed->committed_count();
  }
  // Per-instance sojourn: every runtime's instance spans, pooled. Each
  // span's begin and end land on the instance's authority node, so the
  // duration is consistent even though the runtimes tick independently.
  obs::LatencyHistogram sojourn("sojourn", "ticks");
  for (auto& ring : rings) {
    for (const obs::TraceRecord& record : ring->records()) {
      if (record.kind != obs::SpanKind::kInstance ||
          record.phase != obs::TracePhase::kComplete ||
          record.name != "instance") {
        continue;
      }
      sojourn.Add(record.dur);
    }
  }
  result.sojourn_samples = sojourn.count();
  result.p50_us = Ticks2Us(sojourn.Percentile(50));
  result.p95_us = Ticks2Us(sojourn.Percentile(95));
  result.p99_us = Ticks2Us(sojourn.Percentile(99));
  result.max_us = Ticks2Us(static_cast<double>(sojourn.max()));
  for (auto& node : nodes) {
    net::SocketTransportStats stats = node->transport().Stats();
    result.transport.frames_sent += stats.frames_sent;
    result.transport.frames_delivered += stats.frames_delivered;
    result.transport.frames_deduped += stats.frames_deduped;
    result.transport.frames_replayed += stats.frames_replayed;
    result.transport.frames_batched += stats.frames_batched;
    result.transport.batches_sent += stats.batches_sent;
    result.transport.bytes_sent += stats.bytes_sent;
    result.transport.write_syscalls += stats.write_syscalls;
    result.transport.connects += stats.connects;
    result.transport.reconnects += stats.reconnects;
  }
  for (auto& node : nodes) node->Shutdown();

  // Merged cluster trace: each endpoint's ring becomes one in-memory
  // shard (same form crew_node writes to disk), clock-aligned by the
  // transports' HELLO samples — the whole blast on one timeline.
  if (!flags.trace_path.empty() || !flags.jsonl_path.empty()) {
    std::vector<net::TraceShard> shards;
    for (size_t k = 0; k < nodes.size(); ++k) {
      shards.push_back(net::ShardFromRing(
          *rings[k], nodes[k]->self().Address(), /*incarnation=*/1,
          kTickUs, nodes[k]->transport().ClockSamples()));
    }
    if (!flags.trace_path.empty()) {
      net::MergeStats stats;
      Status written =
          net::WriteMergedTrace(shards, flags.trace_path, &stats);
      if (!written.ok()) {
        std::fprintf(stderr, "trace: %s\n", written.ToString().c_str());
      } else {
        std::printf("merged trace: %zu shards, %zu events, %zu "
                    "cross-process spans -> %s\n",
                    stats.shards, stats.events, stats.matched_flows,
                    flags.trace_path.c_str());
      }
    }
    if (!flags.jsonl_path.empty()) {
      std::ofstream out(flags.jsonl_path,
                        std::ios::binary | std::ios::trunc);
      out << net::MergedJsonl(shards);
      std::printf("merged jsonl -> %s\n", flags.jsonl_path.c_str());
    }
  }

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return result;
}

int Main(int argc, char** argv) {
  BenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      flags.smoke = true;
    } else if (arg.rfind("--mode=", 0) == 0) {
      flags.mode = arg.substr(7);
    } else if (arg.rfind("--workflows=", 0) == 0) {
      flags.workflows = std::atoi(arg.c_str() + 12);
    } else if (arg.rfind("--agents=", 0) == 0) {
      flags.agents = std::atoi(arg.c_str() + 9);
    } else if (arg.rfind("--engines=", 0) == 0) {
      flags.engines = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--endpoints=", 0) == 0) {
      flags.endpoints = std::atoi(arg.c_str() + 12);
    } else if (arg.rfind("--json=", 0) == 0) {
      flags.json_path = arg.substr(7);
    } else if (arg.rfind("--trace=", 0) == 0) {
      flags.trace_path = arg.substr(8);
    } else if (arg.rfind("--jsonl=", 0) == 0) {
      flags.jsonl_path = arg.substr(8);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (flags.smoke) flags.workflows = 200;

  std::printf(
      "net load: %s, %d wf over %d endpoints, %d agents, tick=%lldus\n",
      flags.mode.c_str(), flags.workflows, flags.endpoints, flags.agents,
      static_cast<long long>(kTickUs));

  BenchResult r = RunOnce(flags);
  std::printf(
      "%-8s %6d wf in %8.1f ms  => %9.0f wf/s   "
      "sojourn p50=%.0fus p95=%.0fus p99=%.0fus max=%.0fus\n",
      flags.mode.c_str(), r.workflows, r.wall_ms, r.wf_per_sec, r.p50_us,
      r.p95_us, r.p99_us, r.max_us);
  std::printf(
      "         frames sent=%lld delivered=%lld deduped=%lld "
      "bytes=%lld batched=%lld/%lld syscalls=%lld connects=%lld "
      "reconnects=%lld\n",
      static_cast<long long>(r.transport.frames_sent),
      static_cast<long long>(r.transport.frames_delivered),
      static_cast<long long>(r.transport.frames_deduped),
      static_cast<long long>(r.transport.bytes_sent),
      static_cast<long long>(r.transport.frames_batched),
      static_cast<long long>(r.transport.batches_sent),
      static_cast<long long>(r.transport.write_syscalls),
      static_cast<long long>(r.transport.connects),
      static_cast<long long>(r.transport.reconnects));

  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"bench\":\"net_throughput\",\"smoke\":%s,\"tick_us\":%lld,"
      "\"mode\":\"%s\",\"endpoints\":%d,\"agents\":%d,"
      "\"workflows\":%d,\"committed\":%lld,\"wall_ms\":%.3f,"
      "\"wf_per_sec\":%.1f,"
      "\"sojourn_us\":{\"samples\":%lld,\"p50\":%.1f,\"p95\":%.1f,"
      "\"p99\":%.1f,\"max\":%.1f},"
      "\"transport\":{\"frames_sent\":%lld,\"frames_delivered\":%lld,"
      "\"frames_deduped\":%lld,\"frames_replayed\":%lld,"
      "\"frames_batched\":%lld,\"batches_sent\":%lld,"
      "\"bytes_sent\":%lld,\"write_syscalls\":%lld,"
      "\"connects\":%lld,\"reconnects\":%lld}}\n",
      flags.smoke ? "true" : "false", static_cast<long long>(kTickUs),
      flags.mode.c_str(),
      flags.endpoints, flags.agents, r.workflows,
      static_cast<long long>(r.committed), r.wall_ms, r.wf_per_sec,
      static_cast<long long>(r.sojourn_samples), r.p50_us, r.p95_us,
      r.p99_us, r.max_us, static_cast<long long>(r.transport.frames_sent),
      static_cast<long long>(r.transport.frames_delivered),
      static_cast<long long>(r.transport.frames_deduped),
      static_cast<long long>(r.transport.frames_replayed),
      static_cast<long long>(r.transport.frames_batched),
      static_cast<long long>(r.transport.batches_sent),
      static_cast<long long>(r.transport.bytes_sent),
      static_cast<long long>(r.transport.write_syscalls),
      static_cast<long long>(r.transport.connects),
      static_cast<long long>(r.transport.reconnects));
  std::ofstream out(flags.json_path);
  out << buf;

  if (r.committed != r.workflows) {
    std::fprintf(stderr, "FAIL: committed %lld of %d workflows\n",
                 static_cast<long long>(r.committed), r.workflows);
    return 1;
  }
  if (r.sojourn_samples != r.workflows) {
    std::fprintf(stderr, "FAIL: %lld sojourn samples for %d workflows\n",
                 static_cast<long long>(r.sojourn_samples), r.workflows);
    return 1;
  }
  std::printf("wrote %s\n", flags.json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace crew

int main(int argc, char** argv) { return crew::Main(argc, argv); }
