// Acceptance test for the multi-process backend: real OS processes (one
// crew_node per endpoint, fork/exec'd by the Supervisor) connected by
// Unix-domain sockets run the standard dist workload to completion, and
// every instance's terminal state matches the in-process rt run of the
// identical deployment — including after one node is SIGKILLed mid-run
// and restarted, recovering its durable AGDB from the write-ahead log.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/supervisor.h"
#include "net/testbed.h"
#include "net/topology.h"
#include "net/trace_merge.h"
#include "obs/trace.h"
#include "rt/runtime.h"
#include "runtime/wire.h"

#ifndef CREW_NODE_BIN
#error "net_proc_test requires CREW_NODE_BIN (path to the crew_node binary)"
#endif

namespace crew::net {
namespace {

using runtime::WorkflowState;

constexpr uint64_t kSeed = 42;
constexpr int kAgents = 3;
constexpr int kInstances = 9;
constexpr int kEndpoints = 3;

struct TempDir {
  std::string path;
  TempDir() {
    char buffer[] = "/tmp/crew_net_proc_XXXXXX";
    char* made = mkdtemp(buffer);
    EXPECT_NE(made, nullptr);
    path = made ? made : "/tmp";
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

TestbedOptions DistOptions() {
  TestbedOptions options;
  options.mode = "dist";
  options.num_agents = kAgents;
  return options;
}

/// The ground truth: the same deployment assembled into one rt::Runtime.
std::map<int, std::string> RunInProcessBaseline() {
  TestbedOptions options = DistOptions();
  Topology topology;
  Endpoint self = Endpoint::Parse("unix:/tmp/unused.sock").value();
  for (NodeId id : Testbed::AllNodes(options)) {
    EXPECT_TRUE(topology.Add(id, self).ok());
  }
  rt::Runtime runtime({.seed = kSeed, .tick_us = 20});
  Testbed testbed(&runtime, topology, self, options);
  runtime.Start();
  std::atomic<int> start_failures{0};
  for (int i = 1; i <= kInstances; ++i) {
    std::string schema = testbed.ScheduleSchema(i);
    runtime.Post(testbed.StartNode(schema, i),
                 [&testbed, &start_failures, schema, i]() {
                   if (!testbed.StartInstance(schema, i).ok()) {
                     start_failures.fetch_add(1);
                   }
                 });
  }
  runtime.Quiesce();
  runtime.Shutdown();
  EXPECT_EQ(start_failures.load(), 0);
  std::map<int, std::string> states;
  for (int i = 1; i <= kInstances; ++i) {
    states[i] = runtime::WorkflowStateName(
        testbed.Terminal({testbed.ScheduleSchema(i), i}));
  }
  return states;
}

/// Spawns the 3-process deployment, optionally SIGKILLs and restarts the
/// last endpoint mid-run, waits for cluster quiescence and returns every
/// instance's terminal state as reported over the control sockets.
std::map<int, std::string> RunProcesses(const std::string& workdir,
                                        bool kill_one) {
  TestbedOptions testbed_options = DistOptions();
  Result<Topology> topology =
      Testbed::UnixTopology(testbed_options, workdir, kEndpoints);
  EXPECT_TRUE(topology.ok()) << topology.status().ToString();
  std::string topology_file = workdir + "/topology.txt";
  EXPECT_TRUE(topology.value().Save(topology_file).ok());

  LaunchOptions options;
  options.node_binary = CREW_NODE_BIN;
  options.topology_file = topology_file;
  options.mode = "dist";
  options.num_agents = kAgents;
  options.num_instances = kInstances;
  options.seed = kSeed;
  options.tick_us = 20;
  options.agdb_dir = workdir + "/agdb";
  mkdir(options.agdb_dir.c_str(), 0755);

  Supervisor supervisor(topology.value(), options);
  Status started = supervisor.StartAll();
  EXPECT_TRUE(started.ok()) << started.ToString();

  if (kill_one) {
    // The last endpoint hosts a workflow agent (the front end is pinned
    // to endpoint 0). Let the run get going, then crash it for real.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    Endpoint victim = supervisor.processes().back().endpoint;
    Status killed = supervisor.Kill(victim);
    EXPECT_TRUE(killed.ok()) << killed.ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Status restarted = supervisor.Restart(victim);
    EXPECT_TRUE(restarted.ok()) << restarted.ToString();
    // The restarted process must come back reachable.
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    bool reachable = false;
    while (!reachable && std::chrono::steady_clock::now() < deadline) {
      Result<std::string> pong = supervisor.Request(victim, "ping");
      reachable = pong.ok() && pong.value() == "ok";
      if (!reachable) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    EXPECT_TRUE(reachable);
  }

  Status quiesced = supervisor.WaitQuiescent(/*timeout_ms=*/120000);
  EXPECT_TRUE(quiesced.ok()) << quiesced.ToString();

  std::map<int, std::string> states;
  for (int i = 1; i <= kInstances; ++i) {
    // Same deterministic schedule every process derives.
    std::string schema;
    switch (i % 3) {
      case 0: schema = "Doomed"; break;
      case 1: schema = "Good"; break;
      default: schema = "Flaky"; break;
    }
    Result<std::string> state = supervisor.QueryState(schema, i);
    states[i] = state.ok() ? state.value() : state.status().ToString();
  }
  supervisor.ShutdownAll();
  return states;
}

TEST(NetProcTest, ThreeProcessDistMatchesInProcessRun) {
  std::map<int, std::string> baseline = RunInProcessBaseline();
  TempDir dir;
  std::map<int, std::string> processes =
      RunProcesses(dir.path, /*kill_one=*/false);
  ASSERT_EQ(processes.size(), baseline.size());
  for (const auto& [i, state] : baseline) {
    EXPECT_EQ(processes.at(i), state) << "instance " << i;
  }
}

TEST(NetProcTest, KillAndRestartMidRunStillMatchesInProcessRun) {
  std::map<int, std::string> baseline = RunInProcessBaseline();
  TempDir dir;
  std::map<int, std::string> processes =
      RunProcesses(dir.path, /*kill_one=*/true);
  ASSERT_EQ(processes.size(), baseline.size());
  for (const auto& [i, state] : baseline) {
    EXPECT_EQ(processes.at(i), state) << "instance " << i;
  }
}

/// A node whose drive has not posted all its starts must not answer
/// "quiet": a supervisor polling it then would take the idle cluster for
/// a finished one and shut it down before the workload ran.
TEST(NetProcTest, NodeWithPendingDriveIsNotQuiet) {
  TempDir dir;
  TestbedOptions testbed_options = DistOptions();
  Result<Topology> topology =
      Testbed::UnixTopology(testbed_options, dir.path, kEndpoints);
  ASSERT_TRUE(topology.ok()) << topology.status().ToString();
  std::string topology_file = dir.path + "/topology.txt";
  ASSERT_TRUE(topology.value().Save(topology_file).ok());

  LaunchOptions options;
  options.node_binary = CREW_NODE_BIN;
  options.topology_file = topology_file;
  options.mode = "dist";
  options.num_agents = kAgents;
  options.num_instances = kInstances;
  options.seed = kSeed;
  options.tick_us = 20;
  options.drive_on_start = false;
  Supervisor supervisor(topology.value(), options);
  ASSERT_TRUE(supervisor.StartAll().ok());
  ASSERT_TRUE(supervisor.WaitQuiescent(/*timeout_ms=*/120000).ok());

  // The front end (endpoint 0) hosts every start. Paced at one start a
  // second, its drive is still waiting to post the first one.
  Endpoint front = supervisor.processes().front().endpoint;
  Result<std::string> drive = supervisor.Request(
      front, "drive " + std::to_string(kInstances) + " 1");
  ASSERT_TRUE(drive.ok()) << drive.status().ToString();
  ASSERT_EQ(drive.value(), "ok " + std::to_string(kInstances));
  Result<std::string> quiet = supervisor.Request(front, "quiet");
  ASSERT_TRUE(quiet.ok()) << quiet.status().ToString();
  EXPECT_EQ(quiet.value().substr(0, 2), "0 ") << quiet.value();
  supervisor.ShutdownAll();
}

/// Incarnation-scoped flow ids across a real SIGKILL+restart: the
/// restarted process mints trace ids carrying its new incarnation, so
/// none of its spans can ever pair with a Begin recorded by its
/// pre-crash life (whose ring died with it and whose shard was never
/// written). The merged trace must still stitch at least one live
/// cross-process span out of the surviving shards.
TEST(NetProcTest, TracedKillAndRestartKeepsIncarnationsSeparate) {
  TempDir dir;
  TestbedOptions testbed_options = DistOptions();
  Result<Topology> topology =
      Testbed::UnixTopology(testbed_options, dir.path, kEndpoints);
  ASSERT_TRUE(topology.ok()) << topology.status().ToString();
  std::string topology_file = dir.path + "/topology.txt";
  ASSERT_TRUE(topology.value().Save(topology_file).ok());

  LaunchOptions options;
  options.node_binary = CREW_NODE_BIN;
  options.topology_file = topology_file;
  options.mode = "dist";
  options.num_agents = kAgents;
  options.num_instances = kInstances;
  options.seed = kSeed;
  options.tick_us = 20;
  options.agdb_dir = dir.path + "/agdb";
  mkdir(options.agdb_dir.c_str(), 0755);
  options.trace_dir = dir.path + "/trace";
  mkdir(options.trace_dir.c_str(), 0755);

  Supervisor supervisor(topology.value(), options);
  ASSERT_TRUE(supervisor.StartAll().ok());

  // Live scrape while the cluster runs: every process must answer the
  // `telemetry` control verb with a JSON document (poll — the control
  // sockets come up asynchronously after spawn).
  std::vector<NodeTelemetry> live;
  auto scrape_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (live.size() < static_cast<size_t>(kEndpoints) &&
         std::chrono::steady_clock::now() < scrape_deadline) {
    live = supervisor.CollectTelemetry();
    if (live.size() < static_cast<size_t>(kEndpoints)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_EQ(live.size(), static_cast<size_t>(kEndpoints));
  for (const NodeTelemetry& node : live) {
    EXPECT_NE(node.json.find("\"frames_sent\":"), std::string::npos);
    EXPECT_NE(node.json.find("\"messages\":{\"total\":"), std::string::npos);
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  Endpoint victim = supervisor.processes().back().endpoint;
  ASSERT_TRUE(supervisor.Kill(victim).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(supervisor.Restart(victim).ok());

  ASSERT_TRUE(supervisor.WaitQuiescent(/*timeout_ms=*/120000).ok());
  supervisor.ShutdownAll();

  // Four incarnations were traced; the SIGKILLed one never wrote its
  // shard (that is the point — its ring died with the process).
  std::vector<std::string> paths = supervisor.TraceShardPaths();
  ASSERT_EQ(paths.size(), static_cast<size_t>(kEndpoints) + 1);
  std::vector<TraceShard> shards;
  for (const std::string& path : paths) {
    Result<TraceShard> shard = LoadTraceShard(path);
    if (shard.ok()) shards.push_back(std::move(shard).value());
  }
  ASSERT_EQ(shards.size(), static_cast<size_t>(kEndpoints));

  const TraceShard* victim_shard = nullptr;
  std::set<uint64_t> all_begin_ids;
  size_t total_begins = 0;
  for (const TraceShard& shard : shards) {
    bool is_victim = shard.endpoint == victim.Address();
    EXPECT_EQ(shard.incarnation, is_victim ? 2u : 1u) << shard.endpoint;
    if (is_victim) victim_shard = &shard;
    for (const obs::TraceRecord& r : shard.records) {
      if (r.phase != obs::TracePhase::kFlowBegin) continue;
      ++total_begins;
      all_begin_ids.insert(r.flow);
      // Minted ids carry the minting incarnation in bits 47..32.
      EXPECT_EQ((r.flow >> 32) & 0xffff, shard.incarnation)
          << shard.endpoint;
    }
  }
  ASSERT_NE(victim_shard, nullptr);
  // Globally unique: a restarted process cannot re-mint a pre-crash id.
  EXPECT_EQ(all_begin_ids.size(), total_begins);

  MergeStats stats;
  std::string merged = MergeTraceShards(shards, &stats);
  EXPECT_EQ(stats.shards, static_cast<size_t>(kEndpoints));
  EXPECT_GE(stats.matched_flows, 1u);
  EXPECT_NE(merged.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(merged.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(merged.find(victim.Address() + "#inc2"), std::string::npos);
}

}  // namespace
}  // namespace crew::net
