// Tests for the multi-process socket backend (src/net), run in-process
// over loopback Unix-domain sockets: transport-level delivery, parking
// and crash-replay semantics, then full equivalence runs — the standard
// mixed workload over a multi-endpoint Cluster must reach the same
// per-instance terminal states and the same message counts per category
// and wire type as the single-runtime rt assembly of the same Testbed.
// Real process boundaries (fork/kill/restart) are covered separately by
// net_proc_test.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/cluster.h"
#include "net/control.h"
#include "net/frame.h"
#include "net/socket_transport.h"
#include "net/telemetry.h"
#include "net/testbed.h"
#include "net/topology.h"
#include "net/trace_merge.h"
#include "obs/trace.h"
#include "rt/runtime.h"
#include "runtime/wire.h"
#include "sim/metrics.h"

namespace crew::net {
namespace {

using runtime::WorkflowState;

constexpr uint64_t kSeed = 42;

/// Unique scratch directory for socket paths; removed on destruction.
/// Lives under /tmp regardless of TMPDIR: UDS paths are capped at ~107
/// bytes and build trees can exceed that.
struct TempDir {
  std::string path;
  TempDir() {
    char buffer[] = "/tmp/crew_net_test_XXXXXX";
    char* made = mkdtemp(buffer);
    EXPECT_NE(made, nullptr);
    path = made ? made : "/tmp";
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// Thread-safe recorder used as a transport's DeliverFn sink.
struct Recorder {
  std::mutex mu;
  std::vector<sim::Message> messages;

  SocketTransport::DeliverFn Sink() {
    return [this](sim::Message message) {
      std::lock_guard<std::mutex> lock(mu);
      messages.push_back(std::move(message));
    };
  }
  size_t Count() {
    std::lock_guard<std::mutex> lock(mu);
    return messages.size();
  }
  bool WaitForCount(size_t want, std::chrono::milliseconds timeout) {
    auto deadline = std::chrono::steady_clock::now() + timeout;
    while (Count() < want) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }
};

/// Blocking client socket connected to a Unix-domain path, or -1.
int RawUnixConnect(const std::string& path) {
  int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool WriteAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = write(fd, bytes.data() + sent, bytes.size() - sent);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

sim::Message Make(NodeId from, NodeId to, int i) {
  sim::Message message;
  message.from = from;
  message.to = to;
  message.type = "msg" + std::to_string(i);
  message.payload = "payload-" + std::to_string(i) + "\nwith=newline";
  message.category = sim::MsgCategory::kNormal;
  return message;
}

Topology TwoEndpointTopology(const TempDir& dir) {
  Topology topology;
  EXPECT_TRUE(
      topology
          .Add(1, Endpoint::Parse("unix:" + dir.path + "/a.sock").value())
          .ok());
  EXPECT_TRUE(
      topology
          .Add(2, Endpoint::Parse("unix:" + dir.path + "/b.sock").value())
          .ok());
  return topology;
}

TEST(SocketTransportTest, LoopbackDeliversInOrderAndDrainsToIdle) {
  TempDir dir;
  Topology topology = TwoEndpointTopology(dir);
  Endpoint a = *topology.Find(1);
  Endpoint b = *topology.Find(2);

  Recorder received;
  SocketTransport ta(topology, a, nullptr);
  SocketTransport tb(topology, b, received.Sink());
  ASSERT_TRUE(ta.Bind().ok());
  ASSERT_TRUE(tb.Bind().ok());
  ta.Start();
  tb.Start();
  ASSERT_TRUE(ta.WaitConnected(std::chrono::seconds(10)));

  constexpr int kCount = 100;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(ta.Send(Make(1, 2, i)).ok());
  }
  ASSERT_TRUE(received.WaitForCount(kCount, std::chrono::seconds(10)));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(received.messages[i].type, "msg" + std::to_string(i));
    EXPECT_EQ(received.messages[i].payload,
              "payload-" + std::to_string(i) + "\nwith=newline");
    EXPECT_EQ(received.messages[i].from, 1);
    EXPECT_EQ(received.messages[i].to, 2);
  }

  // ACKs flow back on the reverse link; the sender drains to idle.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!ta.Idle() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(ta.Idle());
  EXPECT_EQ(ta.Stats().frames_sent, kCount);
  EXPECT_EQ(tb.Stats().frames_delivered, kCount);
  EXPECT_EQ(tb.Stats().frames_deduped, 0);

  ta.Shutdown();
  tb.Shutdown();
}

TEST(SocketTransportTest, ExplicitDownParksOutboundUntilUp) {
  TempDir dir;
  Topology topology = TwoEndpointTopology(dir);

  Recorder received;
  SocketTransport ta(topology, *topology.Find(1), nullptr);
  SocketTransport tb(topology, *topology.Find(2), received.Sink());
  ASSERT_TRUE(ta.Bind().ok());
  ASSERT_TRUE(tb.Bind().ok());
  ta.Start();
  tb.Start();
  ASSERT_TRUE(ta.WaitConnected(std::chrono::seconds(10)));

  ta.SetNodeDown(2, true);
  EXPECT_TRUE(ta.IsNodeDown(2));
  constexpr int kCount = 10;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(ta.Send(Make(1, 2, i)).ok());
  }
  // Parked: nothing may arrive while the destination is marked down. The
  // connection itself is healthy, so a short real-time wait is a fair
  // negative check.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(received.Count(), 0u);
  EXPECT_FALSE(ta.Idle());

  ta.SetNodeDown(2, false);
  EXPECT_FALSE(ta.IsNodeDown(2));
  ASSERT_TRUE(received.WaitForCount(kCount, std::chrono::seconds(10)));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(received.messages[i].type, "msg" + std::to_string(i));
  }
  ta.Shutdown();
  tb.Shutdown();
}

TEST(SocketTransportTest, RestartedPeerReceivesUnackedBacklog) {
  TempDir dir;
  Topology topology = TwoEndpointTopology(dir);
  Endpoint a = *topology.Find(1);
  Endpoint b = *topology.Find(2);

  SocketTransport ta(topology, a, nullptr);
  ASSERT_TRUE(ta.Bind().ok());
  ta.Start();

  Recorder first_life;
  {
    SocketTransport tb(topology, b, first_life.Sink());
    ASSERT_TRUE(tb.Bind().ok());
    tb.Start();
    ASSERT_TRUE(ta.WaitConnected(std::chrono::seconds(10)));
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ta.Send(Make(1, 2, i)).ok());
    }
    ASSERT_TRUE(first_life.WaitForCount(3, std::chrono::seconds(10)));
    // Wait for the ACKs so the first three frames leave the retained
    // queue — otherwise they would legitimately replay to the restarted
    // peer (at-least-once) and muddy the assertion below.
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!ta.Idle() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(ta.Idle());
    // The first dial to a peer is a connect, not a reconnect.
    EXPECT_EQ(ta.Stats().connects, 1);
    EXPECT_EQ(ta.Stats().reconnects, 0);
    tb.Shutdown();  // peer "crashes"
  }

  // Sends while the peer is gone are retained and replayed on reconnect.
  for (int i = 3; i < 7; ++i) {
    ASSERT_TRUE(ta.Send(Make(1, 2, i)).ok());
  }
  Recorder second_life;
  SocketTransportOptions restarted_options;
  restarted_options.incarnation = 2;
  SocketTransport tb2(topology, b, second_life.Sink(), restarted_options);
  ASSERT_TRUE(tb2.Bind().ok());
  tb2.Start();
  ASSERT_TRUE(second_life.WaitForCount(4, std::chrono::seconds(10)));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(second_life.messages[i].type, "msg" + std::to_string(i + 3));
  }
  EXPECT_EQ(second_life.Count(), 4u);
  // Reaching the restarted peer is one reconnect to the same peer.
  EXPECT_EQ(ta.Stats().connects, 1);
  EXPECT_EQ(ta.Stats().reconnects, 1);
  ta.Shutdown();
  tb2.Shutdown();
}

// A reconnecting peer's ACK can carry a watermark learned from this
// endpoint's PREVIOUS incarnation (its reconnect races our HELLO). Such
// an ACK describes a dead sequence space and must be ignored — applying
// it would silently discard fresh unacked frames and break the
// at-least-once crash-restart guarantee. Reproduced deterministically
// with a raw client socket impersonating the stale peer.
TEST(SocketTransportTest, StaleIncarnationAckDoesNotPruneRetained) {
  TempDir dir;
  Topology topology = TwoEndpointTopology(dir);
  Endpoint a = *topology.Find(1);
  Endpoint b = *topology.Find(2);

  // "Restarted" endpoint b: incarnation 2, sequence space back at 1.
  // Endpoint a is never started, so the shipped frames stay retained.
  SocketTransportOptions options;
  options.incarnation = 2;
  SocketTransport tb(topology, b, nullptr, options);
  ASSERT_TRUE(tb.Bind().ok());
  tb.Start();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(tb.Send(Make(2, 1, i)).ok());
  }
  EXPECT_FALSE(tb.Idle());

  // Impersonate endpoint a: HELLO, then an ACK whose watermark covers
  // seq 1..100 of b's incarnation-1 stream.
  int raw = RawUnixConnect(b.path);
  ASSERT_GE(raw, 0);
  Frame hello;
  hello.kind = Frame::Kind::kHello;
  hello.endpoint = a.Address();
  hello.incarnation = 1;
  Frame stale;
  stale.kind = Frame::Kind::kAck;
  stale.watermark = 100;
  stale.incarnation = 1;  // b's previous life
  ASSERT_TRUE(WriteAll(raw, EncodeFrame(hello) + EncodeFrame(stale)));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(tb.Idle())
      << "stale-incarnation ACK discarded retained frames";

  // An ACK scoped to the current incarnation prunes as usual.
  Frame genuine;
  genuine.kind = Frame::Kind::kAck;
  genuine.watermark = 5;
  genuine.incarnation = 2;
  ASSERT_TRUE(WriteAll(raw, EncodeFrame(genuine)));
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!tb.Idle() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(tb.Idle());
  close(raw);
  tb.Shutdown();
}

// An oversize message must be rejected when shipped, not admitted to
// the stream: the receiver's decoder treats its length prefix as
// corruption, and a retained oversize frame would replay on every
// reconnect forever, wedging everything queued behind it.
TEST(SocketTransportTest, OversizeMessageRejectedAtAdmission) {
  TempDir dir;
  Topology topology = TwoEndpointTopology(dir);

  Recorder received;
  SocketTransport ta(topology, *topology.Find(1), nullptr);
  SocketTransport tb(topology, *topology.Find(2), received.Sink());
  ASSERT_TRUE(ta.Bind().ok());
  ASSERT_TRUE(tb.Bind().ok());
  ta.Start();
  tb.Start();
  ASSERT_TRUE(ta.WaitConnected(std::chrono::seconds(10)));

  sim::Message big = Make(1, 2, 0);
  big.payload.assign(kMaxFrameBytes, 'x');
  Status status = ta.Send(std::move(big));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << status.ToString();

  // The stream is unharmed: later messages still deliver.
  ASSERT_TRUE(ta.Send(Make(1, 2, 1)).ok());
  ASSERT_TRUE(received.WaitForCount(1, std::chrono::seconds(10)));
  EXPECT_EQ(received.messages[0].type, "msg1");
  ta.Shutdown();
  tb.Shutdown();
}

// The control plane serves one connection at a time; a client that
// connects and never writes its request line must time out instead of
// blocking quiescence polling and 'exit' forever.
TEST(ControlServerTest, SilentClientDoesNotWedgeControlPlane) {
  TempDir dir;
  std::string path = dir.path + "/node.ctl";
  ControlServer server(
      path, [](const std::string& request) { return "echo " + request; },
      /*io_timeout_ms=*/100);
  ASSERT_TRUE(server.Start().ok());

  int silent = RawUnixConnect(path);
  ASSERT_GE(silent, 0);
  Result<std::string> reply = ControlRequest(path, "ping", 5000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value(), "echo ping");
  close(silent);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Cluster equivalence: same Testbed fragmenting, three ways to host it.

void ExpectSameCounts(const sim::Metrics& baseline,
                      const sim::Metrics& sockets) {
  EXPECT_EQ(baseline.TotalMessages(), sockets.TotalMessages());
  for (int i = 0; i < sim::kNumMsgCategories; ++i) {
    auto category = static_cast<sim::MsgCategory>(i);
    EXPECT_EQ(baseline.MessagesIn(category), sockets.MessagesIn(category))
        << "category " << sim::MsgCategoryName(category);
  }
  EXPECT_EQ(baseline.by_type(), sockets.by_type());
}

struct RunResult {
  std::map<int, WorkflowState> states;
  sim::Metrics metrics;
};

/// Baseline: every node of the deployment in ONE rt::Runtime — the
/// Testbed degenerates to the single-process assembly, no sockets.
RunResult RunInProcess(const TestbedOptions& options, int instances) {
  Topology topology;
  Endpoint self = Endpoint::Parse("unix:/tmp/unused.sock").value();
  for (NodeId id : Testbed::AllNodes(options)) {
    EXPECT_TRUE(topology.Add(id, self).ok());
  }
  rt::Runtime runtime({.seed = kSeed, .tick_us = 20});
  Testbed testbed(&runtime, topology, self, options);
  runtime.Start();
  std::atomic<int> start_failures{0};
  for (int i = 1; i <= instances; ++i) {
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
  RunResult result;
  result.metrics = runtime.MergedMetrics();
  for (int i = 1; i <= instances; ++i) {
    result.states[i] = testbed.Terminal({testbed.ScheduleSchema(i), i});
  }
  return result;
}

/// The same deployment spread over `endpoints` in-process NetNodes
/// talking through real Unix-domain sockets.
RunResult RunOverSockets(const TestbedOptions& options, int instances,
                         int endpoints, const std::string& dir) {
  Result<Topology> topology = Testbed::UnixTopology(options, dir, endpoints);
  EXPECT_TRUE(topology.ok()) << topology.status().ToString();
  Cluster cluster(topology.value(), {.seed = kSeed, .tick_us = 20});
  EXPECT_TRUE(cluster.Bind().ok());
  // Build each endpoint's fragment before any traffic can arrive.
  std::vector<std::unique_ptr<Testbed>> testbeds;
  for (NetNode* node : cluster.nodes()) {
    testbeds.push_back(std::make_unique<Testbed>(
        &node->runtime(), cluster.topology(), node->self(), options));
  }
  cluster.Start();
  EXPECT_TRUE(cluster.WaitConnected(std::chrono::seconds(30)));

  std::atomic<int> start_failures{0};
  std::vector<NetNode*> nodes = cluster.nodes();
  for (int i = 1; i <= instances; ++i) {
    std::string schema = testbeds[0]->ScheduleSchema(i);
    NodeId start_node = testbeds[0]->StartNode(schema, i);
    for (size_t k = 0; k < testbeds.size(); ++k) {
      if (!testbeds[k]->Hosts(start_node)) continue;
      Testbed* testbed = testbeds[k].get();
      nodes[k]->runtime().Post(start_node,
                               [testbed, &start_failures, schema, i]() {
                                 if (!testbed->StartInstance(schema, i).ok()) {
                                   start_failures.fetch_add(1);
                                 }
                               });
      break;
    }
  }
  cluster.Quiesce();
  RunResult result;
  result.metrics = cluster.MergedMetrics();
  cluster.Shutdown();
  EXPECT_EQ(start_failures.load(), 0);
  for (int i = 1; i <= instances; ++i) {
    std::string schema = testbeds[0]->ScheduleSchema(i);
    for (auto& testbed : testbeds) {
      if (!testbed->Authoritative({schema, i})) continue;
      result.states[i] = testbed->Terminal({schema, i});
      break;
    }
  }
  return result;
}

void ExpectEquivalent(const TestbedOptions& options, int instances,
                      int endpoints) {
  TempDir dir;
  RunResult baseline = RunInProcess(options, instances);
  RunResult sockets = RunOverSockets(options, instances, endpoints, dir.path);
  ASSERT_EQ(sockets.states.size(), static_cast<size_t>(instances));
  for (int i = 1; i <= instances; ++i) {
    EXPECT_EQ(sockets.states.at(i), baseline.states.at(i)) << "instance " << i;
  }
  ExpectSameCounts(baseline.metrics, sockets.metrics);
}

TEST(NetEquivalenceTest, DistSameStatesAndCountsOverSockets) {
  TestbedOptions options;
  options.mode = "dist";
  options.num_agents = 3;
  ExpectEquivalent(options, /*instances=*/9, /*endpoints=*/3);
}

TEST(NetEquivalenceTest, CentralSameStatesAndCountsOverSockets) {
  TestbedOptions options;
  options.mode = "central";
  options.num_agents = 4;
  ExpectEquivalent(options, /*instances=*/12, /*endpoints=*/3);
}

TEST(NetEquivalenceTest, ParallelSameStatesAndCountsOverSockets) {
  TestbedOptions options;
  options.mode = "parallel";
  options.num_engines = 2;
  options.num_agents = 4;
  ExpectEquivalent(options, /*instances=*/12, /*endpoints=*/3);
}

// Expected-state sanity: the socket run isn't just *equivalent* to the
// baseline, both match the workload's deterministic terminal mix.
TEST(NetEquivalenceTest, DistTerminalStatesMatchSchedule) {
  TestbedOptions options;
  options.mode = "dist";
  options.num_agents = 3;
  TempDir dir;
  RunResult sockets = RunOverSockets(options, 9, 3, dir.path);
  for (int i = 1; i <= 9; ++i) {
    WorkflowState expected = (i % 3 == 0) ? WorkflowState::kAborted
                                          : WorkflowState::kCommitted;
    EXPECT_EQ(sockets.states.at(i), expected) << "instance " << i;
  }
}

// Placement-routed cluster vs the same policy in one runtime: identical
// terminal states and message counts (the placement seam must not
// change behaviour, only where instances land).
TEST(NetEquivalenceTest, DistHashPlacementMatchesSingleRuntimeBaseline) {
  TestbedOptions options;
  options.mode = "dist";
  options.num_agents = 4;
  options.placement = "hash";
  ExpectEquivalent(options, /*instances=*/12, /*endpoints=*/3);
}

TEST(NetEquivalenceTest, DistRoundRobinWithSweepClassesAllCommit) {
  TestbedOptions options;
  options.mode = "dist";
  options.num_agents = 4;
  options.placement = "rr";
  options.num_classes = 3;
  TempDir dir;
  RunResult baseline = RunInProcess(options, 12);
  RunResult sockets = RunOverSockets(options, 12, 3, dir.path);
  ASSERT_EQ(sockets.states.size(), 12u);
  for (int i = 1; i <= 12; ++i) {
    EXPECT_EQ(sockets.states.at(i), WorkflowState::kCommitted)
        << "instance " << i;
    EXPECT_EQ(sockets.states.at(i), baseline.states.at(i))
        << "instance " << i;
  }
  ExpectSameCounts(baseline.metrics, sockets.metrics);
}

// Least-loaded is sticky and load-timing dependent, so message counts
// may differ run to run — but every instance must still reach the
// schedule's terminal state, answered by the front end (the only node
// that knows the placements).
TEST(NetEquivalenceTest, DistLeastLoadedReachesExpectedTerminalStates) {
  TestbedOptions options;
  options.mode = "dist";
  options.num_agents = 3;
  options.placement = "least";
  TempDir dir;
  RunResult sockets = RunOverSockets(options, 9, 3, dir.path);
  ASSERT_EQ(sockets.states.size(), 9u);
  for (int i = 1; i <= 9; ++i) {
    WorkflowState expected = (i % 3 == 0) ? WorkflowState::kAborted
                                          : WorkflowState::kCommitted;
    EXPECT_EQ(sockets.states.at(i), expected) << "instance " << i;
  }
}

// ---------------------------------------------------------------------------
// Trace shards and the cluster-wide merge.

TEST(TraceMergeTest, ShardRoundTripPreservesHostileStrings) {
  TempDir dir;
  TraceShard shard;
  shard.endpoint = "unix:" + dir.path + "/a.sock";
  shard.incarnation = 3;
  shard.tick_us = 7;
  ClockSample clock;
  clock.peer = "unix:" + dir.path + "/pipe|in|name.sock";
  clock.peer_incarnation = 2;
  clock.remote_sent_ticks = 1234;
  clock.local_recv_ticks = -56;
  clock.count = 9;
  shard.clocks.push_back(clock);
  shard.node_names[4] = "engine|with%weird\nname";
  obs::TraceRecord rec;
  rec.time = 100;
  rec.dur = 25;
  rec.phase = obs::TracePhase::kComplete;
  rec.kind = obs::SpanKind::kMessage;
  rec.node = 4;
  rec.instance = {"WF|1", 7};
  rec.step = 2;
  rec.category = 1;
  rec.value = -3;
  rec.name = "msg:100%|done";
  rec.detail = "a->b\nsecond%7Cline";
  shard.records.push_back(rec);
  obs::TraceRecord flow;
  flow.time = 200;
  flow.phase = obs::TracePhase::kFlowBegin;
  flow.kind = obs::SpanKind::kMessage;
  flow.node = 4;
  flow.flow = 0xabcdef0123456789ull;
  flow.name = "msg:wi1";
  shard.records.push_back(flow);

  std::string path = dir.path + "/x.shard";
  ASSERT_TRUE(WriteTraceShard(shard, path).ok());
  Result<TraceShard> loaded = LoadTraceShard(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const TraceShard& got = loaded.value();
  EXPECT_EQ(got.endpoint, shard.endpoint);
  EXPECT_EQ(got.incarnation, 3u);
  EXPECT_EQ(got.tick_us, 7);
  ASSERT_EQ(got.clocks.size(), 1u);
  EXPECT_EQ(got.clocks[0].peer, clock.peer);
  EXPECT_EQ(got.clocks[0].peer_incarnation, 2u);
  EXPECT_EQ(got.clocks[0].remote_sent_ticks, 1234);
  EXPECT_EQ(got.clocks[0].local_recv_ticks, -56);
  EXPECT_EQ(got.clocks[0].count, 9);
  ASSERT_EQ(got.node_names.size(), 1u);
  EXPECT_EQ(got.node_names.at(4), "engine|with%weird\nname");
  ASSERT_EQ(got.records.size(), 2u);
  EXPECT_EQ(got.records[0].time, 100);
  EXPECT_EQ(got.records[0].dur, 25);
  EXPECT_EQ(got.records[0].phase, obs::TracePhase::kComplete);
  EXPECT_EQ(got.records[0].kind, obs::SpanKind::kMessage);
  EXPECT_EQ(got.records[0].node, 4);
  EXPECT_EQ(got.records[0].instance.workflow, "WF|1");
  EXPECT_EQ(got.records[0].instance.number, 7);
  EXPECT_EQ(got.records[0].step, 2);
  EXPECT_EQ(got.records[0].category, 1);
  EXPECT_EQ(got.records[0].value, -3);
  EXPECT_EQ(got.records[0].name, "msg:100%|done");
  EXPECT_EQ(got.records[0].detail, "a->b\nsecond%7Cline");
  EXPECT_EQ(got.records[1].phase, obs::TracePhase::kFlowBegin);
  EXPECT_EQ(got.records[1].flow, 0xabcdef0123456789ull);
}

TEST(TraceMergeTest, CorruptRecordLineIsRejectedNotMisparsed) {
  TempDir dir;
  TraceShard shard;
  shard.endpoint = "unix:" + dir.path + "/a.sock";
  const std::string head = shard.Serialize();
  obs::TraceRecord rec;
  rec.name = "step";
  rec.detail = "done";
  shard.records.push_back(rec);
  const std::string bytes = shard.Serialize();
  // The records section comes last: its tag, then the entry count.
  const size_t count_at = head.size() + 1;
  ASSERT_EQ(bytes[count_at], 1);

  std::string path = dir.path + "/x.shard";
  auto load = [&](const std::string& file) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << file;
    return LoadTraceShard(path);
  };
  ASSERT_TRUE(load(bytes).ok());
  // Cut inside the record ...
  EXPECT_FALSE(load(bytes.substr(0, bytes.size() - 1)).ok());
  // ... or a count bit-flipped to claim three records where one is.
  std::string flipped = bytes;
  flipped[count_at] ^= 2;
  EXPECT_FALSE(load(flipped).ok());
}

// Two shards on different clocks (tick sizes 50 and 20 us, HELLO
// samples in both directions) holding every record phase, an unnamed
// node track, a negative duration and strings that need JSON escaping.
std::vector<TraceShard> PinnedShards() {
  TraceShard a;
  a.endpoint = "unix:/pin/a.sock";
  a.incarnation = 1;
  a.tick_us = 50;
  a.clocks.push_back({"unix:/pin/b.sock", 2, 100, 130, 2});
  a.node_names[1] = "engine-1";
  obs::TraceRecord step;
  step.time = 4;
  step.dur = 3;
  step.phase = obs::TracePhase::kComplete;
  step.kind = obs::SpanKind::kStep;
  step.node = 1;
  step.instance = {"WF\"q", 1};
  step.step = 2;
  step.value = 7;
  step.name = "step";
  step.detail = "x\ny";
  a.records.push_back(step);
  obs::TraceRecord begin;
  begin.time = 10;
  begin.phase = obs::TracePhase::kFlowBegin;
  begin.kind = obs::SpanKind::kMessage;
  begin.node = 1;
  begin.category = 4;
  begin.flow = 0x100000001ull;
  begin.name = "msg:RunProgram";
  a.records.push_back(begin);
  obs::TraceRecord lost;
  lost.time = 2;
  lost.kind = obs::SpanKind::kOcr;
  lost.name = "orphan";
  a.records.push_back(lost);

  TraceShard b;
  b.endpoint = "unix:/pin/b.sock";
  b.incarnation = 2;
  b.tick_us = 20;
  b.clocks.push_back({"unix:/pin/a.sock", 1, 120, 250, 1});
  b.node_names[2] = "agent \"2\"";
  obs::TraceRecord end = begin;
  end.time = 12;
  end.phase = obs::TracePhase::kFlowEnd;
  end.node = 2;
  end.value = 9;
  b.records.push_back(end);
  obs::TraceRecord program;
  program.time = 30;
  program.dur = -5;
  program.phase = obs::TracePhase::kComplete;
  program.kind = obs::SpanKind::kProgram;
  program.node = 3;
  program.instance = {"WF", 4};
  program.step = 1;
  program.category = 1;
  program.name = "program";
  b.records.push_back(program);
  obs::TraceRecord instant;
  instant.time = 31;
  instant.kind = obs::SpanKind::kCoord;
  instant.node = 2;
  instant.instance = {"WF", 4};
  instant.step = 3;
  instant.category = 4;
  instant.name = "ro.block";
  instant.detail = "tab\there";
  b.records.push_back(instant);
  return {a, b};
}

// Exporter output for PinnedShards(), recorded from the exporters
// before they shared obs's per-record writer.
constexpr const char* kPinnedMergedChrome =
    R"pin({"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"unix:/pin/a.sock#inc1"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"engine-1"}},
{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"unix:/pin/b.sock#inc2"}},
{"name":"thread_name","ph":"M","pid":2,"tid":2,"args":{"name":"agent \"2\""}},
{"name":"thread_name","ph":"M","pid":2,"tid":3,"args":{"name":"node-3"}},
{"name":"orphan","cat":"ocr,normal","ph":"i","s":"t","ts":0,"pid":1,"tid":0,"args":{"endpoint":"unix:/pin/a.sock","incarnation":1,"instance":"#0","step":0,"category":"normal"}},
{"name":"step WF\"q#1 S2","cat":"step,normal","ph":"X","ts":100,"dur":150,"pid":1,"tid":1,"args":{"endpoint":"unix:/pin/a.sock","incarnation":1,"instance":"WF\"q#1","step":2,"category":"normal","value":7,"detail":"x\ny"}},
{"name":"msg:RunProgram","cat":"message,coordination","ph":"b","id":"0x100000001","ts":400,"pid":1,"tid":1,"args":{"endpoint":"unix:/pin/a.sock","incarnation":1,"instance":"#0","step":0,"category":"coordination"}},
{"name":"msg:RunProgram","cat":"message,coordination","ph":"e","id":"0x100000001","ts":2890,"pid":2,"tid":2,"args":{"endpoint":"unix:/pin/b.sock","incarnation":2,"instance":"#0","step":0,"category":"coordination","value":9}},
{"name":"program WF#4 S1","cat":"program,failure-handling","ph":"X","ts":3250,"dur":0,"pid":2,"tid":3,"args":{"endpoint":"unix:/pin/b.sock","incarnation":2,"instance":"WF#4","step":1,"category":"failure-handling"}},
{"name":"ro.block WF#4 S3","cat":"coord,coordination","ph":"i","s":"t","ts":3270,"pid":2,"tid":2,"args":{"endpoint":"unix:/pin/b.sock","incarnation":2,"instance":"WF#4","step":3,"category":"coordination","detail":"tab\there"}}
]}
)pin";
constexpr const char* kPinnedMergedJsonl =
    R"pin({"ts_us":0,"endpoint":"unix:/pin/a.sock","incarnation":1,"kind":"ocr","name":"orphan","node":-1,"instance":"#0","step":0,"category":"normal"}
{"ts_us":100,"endpoint":"unix:/pin/a.sock","incarnation":1,"dur_us":150,"kind":"step","name":"step","node":1,"instance":"WF\"q#1","step":2,"category":"normal","value":7,"detail":"x\ny"}
{"ts_us":400,"endpoint":"unix:/pin/a.sock","incarnation":1,"ph":"fb","flow":"0x100000001","kind":"message","name":"msg:RunProgram","node":1,"instance":"#0","step":0,"category":"coordination"}
{"ts_us":2890,"endpoint":"unix:/pin/b.sock","incarnation":2,"ph":"fe","flow":"0x100000001","kind":"message","name":"msg:RunProgram","node":2,"instance":"#0","step":0,"category":"coordination","value":9}
{"ts_us":3250,"endpoint":"unix:/pin/b.sock","incarnation":2,"dur_us":0,"kind":"program","name":"program","node":3,"instance":"WF#4","step":1,"category":"failure-handling"}
{"ts_us":3270,"endpoint":"unix:/pin/b.sock","incarnation":2,"kind":"coord","name":"ro.block","node":2,"instance":"WF#4","step":3,"category":"coordination","detail":"tab\there"}
)pin";

TEST(TraceMergeTest, MergedExportBytesArePinned) {
  MergeStats stats;
  EXPECT_EQ(MergeTraceShards(PinnedShards(), &stats), kPinnedMergedChrome);
  EXPECT_EQ(MergedJsonl(PinnedShards()), kPinnedMergedJsonl);
  EXPECT_EQ(stats.matched_flows, 1u);
  EXPECT_EQ(stats.reference, "unix:/pin/a.sock#inc1");
  EXPECT_EQ(stats.offsets_us.at("unix:/pin/b.sock#inc2"), -2750);
}

// The tentpole scenario in miniature: two transports (two clocks, one
// skewed half a second), a traced sender whose Ship() opens the flow
// span, the receiver closing it, and the merge aligning both shards
// onto one timeline with the spans paired.
TEST(TraceMergeTest, CrossProcessFlowSpansStitchAcrossTransports) {
  TempDir dir;
  Topology topology = TwoEndpointTopology(dir);
  Endpoint a = *topology.Find(1);
  Endpoint b = *topology.Find(2);

  auto epoch = std::chrono::steady_clock::now();
  auto micros = [epoch]() {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
  };
  constexpr int64_t kSkewUs = 500000;  // b's clock runs 0.5s ahead

  obs::RingBufferTracer ring_a;
  obs::RingBufferTracer ring_b;
  ring_a.SetNodeName(1, "engine-1");
  ring_b.SetNodeName(2, "agent-2");

  Recorder received;
  SocketTransport ta(topology, a, nullptr);
  SocketTransport tb(topology, b, received.Sink());
  ta.InstallTelemetry(&ring_a, micros);
  tb.InstallTelemetry(&ring_b, [micros]() { return micros() + kSkewUs; });
  ASSERT_TRUE(ta.Bind().ok());
  ASSERT_TRUE(tb.Bind().ok());
  ta.Start();
  tb.Start();
  ASSERT_TRUE(ta.WaitConnected(std::chrono::seconds(10)));
  ASSERT_TRUE(tb.WaitConnected(std::chrono::seconds(10)));

  constexpr int kCount = 5;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(ta.Send(Make(1, 2, i)).ok());
  }
  ASSERT_TRUE(received.WaitForCount(kCount, std::chrono::seconds(10)));

  // Receiver half: what rt::Runtime::PushDelivery records on delivery.
  // Trace ids must have propagated over the wire, scoped to the
  // sender's incarnation (1) so ids can never collide across restarts.
  for (const sim::Message& m : received.messages) {
    ASSERT_NE(m.trace_id, 0u);
    EXPECT_EQ((m.trace_id >> 32) & 0xffff, 1u);
    EXPECT_GE(m.trace_sent_ticks, 0);
    obs::TraceRecord end;
    end.time = micros() + kSkewUs;
    end.phase = obs::TracePhase::kFlowEnd;
    end.kind = obs::SpanKind::kMessage;
    end.node = m.to;
    end.flow = m.trace_id;
    end.name = "msg:" + m.type;
    ring_b.Record(end);
  }

  ta.Shutdown();
  tb.Shutdown();

  std::vector<TraceShard> shards;
  shards.push_back(ShardFromRing(ring_a, a.Address(), /*incarnation=*/1,
                                 /*tick_us=*/1, ta.ClockSamples()));
  shards.push_back(ShardFromRing(ring_b, b.Address(), /*incarnation=*/1,
                                 /*tick_us=*/1, tb.ClockSamples()));
  ASSERT_FALSE(shards[0].clocks.empty());  // HELLO exchange was sampled
  ASSERT_FALSE(shards[1].clocks.empty());

  MergeStats stats;
  std::string merged = MergeTraceShards(shards, &stats);
  EXPECT_EQ(stats.shards, 2u);
  EXPECT_EQ(stats.flow_begins, static_cast<size_t>(kCount));
  EXPECT_EQ(stats.flow_ends, static_cast<size_t>(kCount));
  EXPECT_EQ(stats.matched_flows, static_cast<size_t>(kCount));
  EXPECT_EQ(stats.reference, a.Address() + "#inc1");

  // Both halves render as async events under two distinct pids.
  EXPECT_NE(merged.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(merged.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(merged.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(merged.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(merged.find("engine-1"), std::string::npos);
  EXPECT_NE(merged.find("agent-2"), std::string::npos);

  // The estimator recovers the injected skew from the HELLO samples
  // (tolerance: connect latency asymmetry, microseconds in practice).
  ASSERT_EQ(stats.offsets_us.size(), 2u);
  EXPECT_EQ(stats.offsets_us.at(a.Address() + "#inc1"), 0);
  int64_t offset_b = stats.offsets_us.at(b.Address() + "#inc1");
  EXPECT_NEAR(static_cast<double>(offset_b), static_cast<double>(kSkewUs),
              50000.0);
}

// ---------------------------------------------------------------------------
// Telemetry documents and cluster aggregation.

TEST(TelemetryTest, ExtractJsonIntFindsAnchorsAndFallsBack) {
  std::string json = "{\"a\": 5,\"b\":-12,\"c\":\"text\",\"d\":{\"x\":7}}";
  EXPECT_EQ(ExtractJsonInt(json, "\"a\":"), 5);
  EXPECT_EQ(ExtractJsonInt(json, "\"b\":"), -12);
  EXPECT_EQ(ExtractJsonInt(json, "\"d\":{\"x\":"), 7);
  EXPECT_EQ(ExtractJsonInt(json, "\"missing\":", 42), 42);
  EXPECT_EQ(ExtractJsonInt(json, "\"c\":", 42), 42);  // not a number
}

TEST(TelemetryTest, NodeDocumentsAggregateAcrossCluster) {
  sim::Metrics m1;
  m1.CountMessage(1, 2, sim::MsgCategory::kNormal, 100, "wi1");
  m1.CountMessage(1, 2, sim::MsgCategory::kNormal, 60, "wi2");
  m1.AddLoad(1, sim::LoadCategory::kNavigation, 50);
  sim::Metrics m2;
  m2.CountMessage(2, 1, sim::MsgCategory::kAbort, 40, "wi3");
  m2.AddLoad(2, sim::LoadCategory::kProgram, 9);

  rt::RuntimeStats rs1;
  rs1.messages_delivered = 11;
  rs1.mailbox_parks = 3;
  rs1.mailbox_depth = 2;
  rt::RuntimeStats rs2;
  rs2.messages_delivered = 7;
  rs2.messages_parked = 1;

  SocketTransportStats ts1;
  ts1.frames_sent = 20;
  ts1.frames_delivered = 15;
  ts1.frames_replayed = 4;
  ts1.frames_batched = 12;
  ts1.batches_sent = 3;
  ts1.bytes_sent = 5000;
  ts1.write_syscalls = 8;
  ts1.retained_bytes = 1000;
  SocketTransportStats ts2;
  ts2.frames_sent = 5;
  ts2.frames_deduped = 2;
  ts2.connects = 2;
  ts2.reconnects = 1;
  ts2.held_bytes = 64;

  SocketTransportPeerStats peer;
  peer.peer = "unix:/tmp/b.sock";
  peer.connected = true;
  peer.next_seq = 21;
  peer.ack_lag_frames = 6;
  peer.retained_bytes = 1000;

  NodeTelemetry n1{"unix:/tmp/a.sock",
                   NodeTelemetryJson("unix:/tmp/a.sock", 1, m1, rs1, ts1,
                                     {peer})};
  NodeTelemetry n2{"unix:/tmp/b.sock",
                   NodeTelemetryJson("unix:/tmp/b.sock", 2, m2, rs2, ts2,
                                     {})};

  // Per-document scrape hits the right anchors.
  EXPECT_EQ(ExtractJsonInt(n1.json, "\"messages\":{\"total\":"), 2);
  EXPECT_EQ(ExtractJsonInt(n1.json, "\"bytes\":"), 160);
  EXPECT_EQ(ExtractJsonInt(n1.json, "\"load\":{\"total\":"), 50);
  EXPECT_EQ(ExtractJsonInt(n1.json, "\"frames_replayed\":"), 4);
  EXPECT_EQ(ExtractJsonInt(n1.json, "\"frames_batched\":"), 12);
  EXPECT_EQ(ExtractJsonInt(n1.json, "\"batches_sent\":"), 3);
  EXPECT_EQ(ExtractJsonInt(n1.json, "\"write_syscalls\":"), 8);
  // Derived gauges: 12/3 frames per batch, 5000/8 bytes per syscall.
  EXPECT_NE(n1.json.find("\"mean_frames_per_batch\":4.00"),
            std::string::npos);
  EXPECT_NE(n1.json.find("\"bytes_per_syscall\":625.00"),
            std::string::npos);
  // Zero-divisor documents stay well-formed (0.00, not NaN).
  EXPECT_NE(n2.json.find("\"mean_frames_per_batch\":0.00"),
            std::string::npos);
  EXPECT_EQ(ExtractJsonInt(n1.json, "\"ack_lag_frames\":"), 6);
  EXPECT_EQ(ExtractJsonInt(n1.json, "\"incarnation\":"), 1);

  ClusterAggregate agg = AggregateTelemetry({n1, n2});
  EXPECT_EQ(agg.nodes, 2);
  EXPECT_EQ(agg.messages_total, 3);
  EXPECT_EQ(agg.message_bytes, 200);
  EXPECT_EQ(agg.load_total, 59);
  EXPECT_EQ(agg.frames_sent, 25);
  EXPECT_EQ(agg.frames_delivered, 15);
  EXPECT_EQ(agg.frames_deduped, 2);
  EXPECT_EQ(agg.frames_replayed, 4);
  EXPECT_EQ(agg.frames_batched, 12);
  EXPECT_EQ(agg.batches_sent, 3);
  EXPECT_EQ(agg.write_syscalls, 8);
  EXPECT_EQ(agg.connects, 2);
  EXPECT_EQ(agg.reconnects, 1);
  EXPECT_EQ(agg.retained_bytes, 1000);
  EXPECT_EQ(agg.held_bytes, 64);
  EXPECT_EQ(agg.messages_delivered, 18);
  EXPECT_EQ(agg.messages_parked, 1);
  EXPECT_EQ(agg.mailbox_parks, 3);
  EXPECT_EQ(agg.mailbox_depth, 2);

  std::string line = AggregateSummaryLine(agg);
  EXPECT_NE(line.find("cluster n=2"), std::string::npos);
  EXPECT_NE(line.find("replay=4"), std::string::npos);
  EXPECT_NE(line.find("batch=12/3"), std::string::npos);
  std::string node_line = NodeSummaryLine(n1);
  EXPECT_NE(node_line.find("unix:/tmp/a.sock"), std::string::npos);
  EXPECT_NE(node_line.find("sent=20"), std::string::npos);

  std::string cluster = ClusterTelemetryJson({n1, n2});
  EXPECT_EQ(cluster.compare(0, 13, "{\"aggregate\":"), 0);
  EXPECT_NE(cluster.find(n1.json), std::string::npos);
  EXPECT_NE(cluster.find(n2.json), std::string::npos);
}

// Placement counters scraped per node, imbalance over the full
// candidate set (idle nodes count against balance), and exact
// cross-process latency pooling via sparse bucket pairs.
TEST(TelemetryTest, PlacementCountsImbalanceAndPooledLatency) {
  sim::Metrics m1;
  m1.AddCounter("placement.wf.n1", 6);
  m1.AddCounter("placement.wf.n2", 2);
  m1.AddCounter("wf.committed", 7);
  for (int i = 0; i < 100; ++i) m1.Latency("wf.sojourn_ticks").Add(10 + i);
  sim::Metrics m2;
  m2.AddCounter("placement.wf.n3", 4);
  m2.AddCounter("wf.aborted", 1);
  for (int i = 0; i < 50; ++i) m2.Latency("wf.sojourn_ticks").Add(1000 + i);

  rt::RuntimeStats rs;
  SocketTransportStats ts;
  NodeTelemetry n1{"unix:/tmp/a.sock",
                   NodeTelemetryJson("unix:/tmp/a.sock", 1, m1, rs, ts, {})};
  NodeTelemetry n2{"unix:/tmp/b.sock",
                   NodeTelemetryJson("unix:/tmp/b.sock", 1, m2, rs, ts, {})};

  std::map<NodeId, int64_t> counts = PlacementCounts({n1, n2});
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[1], 6);
  EXPECT_EQ(counts[2], 2);
  EXPECT_EQ(counts[3], 4);

  // Three populated nodes but four candidates: the idle fourth node
  // pulls the mean down and the imbalance up.
  PlacementImbalance im = ComputeImbalance(counts, 4);
  EXPECT_EQ(im.nodes, 4);
  EXPECT_EQ(im.total, 12);
  EXPECT_EQ(im.max_count, 6);
  EXPECT_DOUBLE_EQ(im.mean, 3.0);
  EXPECT_DOUBLE_EQ(im.max_over_mean, 2.0);

  ClusterAggregate agg = AggregateTelemetry({n1, n2});
  EXPECT_EQ(agg.wf_committed, 7);
  EXPECT_EQ(agg.wf_aborted, 1);
  EXPECT_NE(AggregateSummaryLine(agg).find("wf=7/1"), std::string::npos);

  // Pooling the shipped buckets is exact at bucket resolution: the
  // percentiles match a histogram rebuilt from the same buckets locally
  // (the wire loses nothing beyond what the buckets already lost).
  obs::LatencyHistogram pooled = PooledLatency({n1, n2}, "wf.sojourn_ticks");
  obs::LatencyHistogram direct("direct");
  for (int i = 0; i < 100; ++i) direct.Add(10 + i);
  for (int i = 0; i < 50; ++i) direct.Add(1000 + i);
  obs::LatencyHistogram reference("reference");
  for (size_t i = 0; i < direct.buckets().size(); ++i) {
    reference.AddBucket(static_cast<int>(i), direct.buckets()[i]);
  }
  EXPECT_EQ(pooled.count(), direct.count());
  EXPECT_DOUBLE_EQ(pooled.Percentile(50), reference.Percentile(50));
  EXPECT_DOUBLE_EQ(pooled.Percentile(95), reference.Percentile(95));
  EXPECT_DOUBLE_EQ(pooled.Percentile(99), reference.Percentile(99));
  // Bucket interpolation stays within one bucket of the true samples.
  EXPECT_NEAR(pooled.Percentile(50), direct.Percentile(50), 16.0);
  EXPECT_NEAR(pooled.Percentile(99), direct.Percentile(99), 64.0);
  // A name that never recorded pools to an empty histogram.
  EXPECT_EQ(PooledLatency({n1, n2}, "no.such.latency").count(), 0);

  std::string cluster = ClusterTelemetryJson({n1, n2});
  EXPECT_NE(cluster.find("\"placement\":{\"nodes\":3,\"total\":12,\"max\":6"),
            std::string::npos);
}

// Satellite guarantee: ReportJson is byte-stable — the same counts
// serialize identically no matter the arrival (or shard-merge) order.
TEST(TelemetryTest, ReportJsonByteStableAcrossMergeOrder) {
  sim::Metrics shard_a;
  shard_a.CountMessage(1, 2, sim::MsgCategory::kNormal, 10, "wi1");
  shard_a.AddLoad(1, sim::LoadCategory::kNavigation, 5);
  shard_a.AddCounter("zeta.last", 1);
  shard_a.AddCounter("alpha.first", 2);
  sim::Metrics shard_b;
  shard_b.CountMessage(2, 1, sim::MsgCategory::kAbort, 20, "wi2");
  shard_b.AddLoad(2, sim::LoadCategory::kProgram, 7);
  shard_b.AddCounter("alpha.first", 3);

  sim::Metrics ab;
  ab.MergeFrom(shard_a);
  ab.MergeFrom(shard_b);
  sim::Metrics ba;
  ba.MergeFrom(shard_b);
  ba.MergeFrom(shard_a);
  EXPECT_EQ(ab.ReportJson(), ba.ReportJson());
}

}  // namespace
}  // namespace crew::net
