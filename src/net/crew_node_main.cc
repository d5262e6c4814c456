// crew_node: one endpoint of a multi-process deployment. Loads the
// shared topology, assembles the engines/agents this endpoint hosts
// inside an rt::Runtime, and serves their traffic over a SocketTransport
// — the same unmodified workflow code that runs under sim and rt, with
// process boundaries between nodes. A control socket answers quiescence
// and terminal-state queries and accepts a clean-exit request; killing
// the process instead exercises crash recovery (restart with a bumped
// --incarnation and the durable AGDB replays before the node rejoins).
//
// Spawned by crew_launch / Supervisor; see --help for flags.

#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include <thread>

#include "common/logging.h"
#include "common/strings.h"
#include "net/control.h"
#include "net/node.h"
#include "net/telemetry.h"
#include "net/testbed.h"
#include "net/trace_merge.h"
#include "obs/trace.h"
#include "runtime/wire.h"

namespace crew::net {

struct Flags {
  std::string topology;
  std::string endpoint;
  std::string control;
  std::string mode = "dist";
  int engines = 2;
  int agents = 3;
  int instances = 9;
  uint64_t seed = 42;
  int64_t tick_us = 20;
  int64_t pending_timeout = 5000;
  std::string agdb;
  uint64_t incarnation = 1;
  bool drive = true;
  std::string trace_shard;
  int64_t telemetry_interval_ms = 200;
  std::string placement = "static";
  int classes = 0;
};

void Usage() {
  std::fprintf(
      stderr,
      "crew_node --topology <file> --endpoint <address> [options]\n"
      "  --control <path>        control socket (default <endpoint>.ctl)\n"
      "  --mode central|parallel|dist (default dist)\n"
      "  --engines N --agents N --instances N\n"
      "  --seed N --tick-us N --pending-timeout N\n"
      "  --agdb <dir>            durable AGDB directory (dist)\n"
      "  --incarnation N         bump on restart after a crash\n"
      "  --drive 0|1             start locally-owned workflow instances\n"
      "  --trace-shard <path>    enable tracing; write the trace shard\n"
      "                          here on clean exit (crew_trace_merge\n"
      "                          joins shards into one Chrome trace)\n"
      "  --telemetry-interval-ms N  metrics snapshot cadence (0 = off;\n"
      "                          default 200)\n"
      "  --placement static|rr|hash|least  instance placement policy\n"
      "  --classes N             sweep workload: N all-committing\n"
      "                          classes Wf0..Wf<N-1> (0 = mixed)\n");
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (arg == "--topology" && (value = next())) {
      flags->topology = value;
    } else if (arg == "--endpoint" && (value = next())) {
      flags->endpoint = value;
    } else if (arg == "--control" && (value = next())) {
      flags->control = value;
    } else if (arg == "--mode" && (value = next())) {
      flags->mode = value;
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
    } else if (arg == "--agdb" && (value = next())) {
      flags->agdb = value;
    } else if (arg == "--incarnation" && (value = next())) {
      flags->incarnation = std::strtoull(value, nullptr, 10);
    } else if (arg == "--drive" && (value = next())) {
      flags->drive = std::atoi(value) != 0;
    } else if (arg == "--trace-shard" && (value = next())) {
      flags->trace_shard = value;
    } else if (arg == "--telemetry-interval-ms" && (value = next())) {
      flags->telemetry_interval_ms = std::atoll(value);
    } else if (arg == "--placement" && (value = next())) {
      flags->placement = value;
    } else if (arg == "--classes" && (value = next())) {
      flags->classes = std::atoi(value);
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", arg.c_str());
      return false;
    }
  }
  return !flags->topology.empty() && !flags->endpoint.empty();
}

int Run(const Flags& flags) {
  Result<Topology> topology = Topology::Load(flags.topology);
  if (!topology.ok()) {
    std::fprintf(stderr, "crew_node: %s\n",
                 topology.status().ToString().c_str());
    return 1;
  }
  Result<Endpoint> self = Endpoint::Parse(flags.endpoint);
  if (!self.ok()) {
    std::fprintf(stderr, "crew_node: %s\n",
                 self.status().ToString().c_str());
    return 1;
  }
  if (!flags.agdb.empty()) {
    mkdir(flags.agdb.c_str(), 0755);  // EEXIST is fine
  }

  rt::RuntimeOptions runtime_options;
  runtime_options.seed = flags.seed;
  runtime_options.tick_us = flags.tick_us;
  // Ring sink for the trace shard. Only installed when a shard path was
  // given: an installed (enabled) tracer also switches the transport
  // into assigning cross-process trace ids on every Ship.
  obs::RingBufferTracer ring;
  if (!flags.trace_shard.empty()) runtime_options.tracer = &ring;
  SocketTransportOptions transport_options;
  transport_options.incarnation = flags.incarnation;

  NetNode node(topology.value(), self.value(), runtime_options,
               transport_options);
  Status bound = node.Bind();
  if (!bound.ok()) {
    std::fprintf(stderr, "crew_node: %s\n", bound.ToString().c_str());
    return 1;
  }

  TestbedOptions testbed_options;
  testbed_options.mode = flags.mode;
  testbed_options.num_engines = flags.engines;
  testbed_options.num_agents = flags.agents;
  testbed_options.pending_timeout = flags.pending_timeout;
  testbed_options.agdb_dir = flags.agdb;
  testbed_options.placement = flags.placement;
  testbed_options.num_classes = flags.classes;
  Testbed testbed(&node.runtime(), topology.value(), self.value(),
                  testbed_options);
  testbed.InstallRecoveryHooks(&node.runtime());

  std::mutex exit_mu;
  std::condition_variable exit_cv;
  bool exit_requested = false;

  // Open-loop drivers started by the "drive" control verb. Guarded by
  // drive_mu until the control server stops; joined before shutdown.
  std::mutex drive_mu;
  std::vector<std::thread> drivers;
  // Drives that have not posted all their starts yet: the startup drive
  // (which first waits for the peers) and every "drive" thread. The node
  // is not quiet while one is pending, or a supervisor polling before
  // the first start would take the idle cluster for a finished one.
  std::atomic<int> pending_drives{flags.drive ? 1 : 0};

  // One process-health document: schedule the per-cell metrics copies
  // (bounded — a wedged worker costs the wait, never a hang), then
  // render metrics + transport + runtime gauges as one JSON object.
  auto telemetry_json = [&](std::chrono::milliseconds wait) {
    sim::Metrics metrics = node.runtime().SampleMetrics(wait);
    return NodeTelemetryJson(self.value().Address(), flags.incarnation,
                             metrics, node.runtime().Stats(),
                             node.transport().Stats(),
                             node.transport().PeerStats());
  };

  // Control handler: runs on the control thread. State reads are
  // marshalled onto the owning node's worker via Post, so they are
  // ordered against that node's message processing.
  auto handler = [&](const std::string& request) -> std::string {
    std::vector<std::string> words;
    for (const std::string& w : Split(request, ' ')) {
      if (!w.empty()) words.push_back(w);
    }
    if (words.empty()) return "err empty";
    if (words[0] == "ping") return "ok";
    if (words[0] == "quiet") {
      bool quiet = pending_drives.load() == 0 && node.LooksQuiet();
      return std::string(quiet ? "1" : "0") + " " +
             std::to_string(node.AdmittedWork());
    }
    if (words[0] == "telemetry") {
      return telemetry_json(std::chrono::milliseconds(300));
    }
    if (words[0] == "status" && words.size() == 3) {
      // Reply: "<state> <telemetry json>" — the workflow answer first
      // (callers parse the first space-separated token), the node's
      // health document after it. The snapshot merge is cheap and
      // non-blocking; the background sampler keeps it fresh.
      std::string telemetry = NodeTelemetryJson(
          self.value().Address(), flags.incarnation,
          node.runtime().LatestMetricsSnapshot(), node.runtime().Stats(),
          node.transport().Stats(), node.transport().PeerStats());
      InstanceId instance{words[1], std::atoll(words[2].c_str())};
      if (!testbed.Authoritative(instance)) return "n/a " + telemetry;
      NodeId authority = testbed.AuthorityNode(instance);
      // Bounded wait, shared promise: if the worker is wedged and the
      // task never runs, the control thread must answer (and stay able
      // to serve 'exit') rather than block forever — and the task, if
      // it runs late, must not touch a dead stack frame.
      auto promise =
          std::make_shared<std::promise<runtime::WorkflowState>>();
      std::future<runtime::WorkflowState> future = promise->get_future();
      node.runtime().Post(authority, [promise, &testbed, instance]() {
        promise->set_value(testbed.Terminal(instance));
      });
      if (future.wait_for(std::chrono::seconds(5)) !=
          std::future_status::ready) {
        return "err status timeout";
      }
      return std::string(runtime::WorkflowStateName(future.get())) + " " +
             telemetry;
    }
    if (words[0] == "drive" && (words.size() == 2 || words.size() == 3)) {
      // "drive <count> [rate_per_s]": open-loop workload injection.
      // Starts instances 1..count whose start node this endpoint hosts,
      // paced at `rate` starts/s (0 or absent = as fast as possible),
      // and replies immediately — callers observe completion via
      // "quiet"/WaitQuiescent.
      int64_t count = std::atoll(words[1].c_str());
      int64_t rate =
          words.size() == 3 ? std::atoll(words[2].c_str()) : 0;
      if (count <= 0) return "err drive count";
      std::lock_guard<std::mutex> lock(drive_mu);
      pending_drives.fetch_add(1);
      drivers.emplace_back([&testbed, &node, &exit_mu, &exit_cv,
                            &exit_requested, &pending_drives, count,
                            rate]() {
        auto next_at = std::chrono::steady_clock::now();
        for (int64_t i = 1; i <= count; ++i) {
          std::string schema =
              testbed.ScheduleSchema(static_cast<int>(i));
          NodeId start_node = testbed.StartNode(schema, i);
          if (!testbed.Hosts(start_node)) continue;
          if (rate > 0) {
            next_at += std::chrono::nanoseconds(1000000000 / rate);
            std::unique_lock<std::mutex> wait_lock(exit_mu);
            if (exit_cv.wait_until(wait_lock, next_at, [&]() {
                  return exit_requested;
                })) {
              break;
            }
          } else {
            std::lock_guard<std::mutex> check_lock(exit_mu);
            if (exit_requested) break;
          }
          node.runtime().Post(start_node, [&testbed, schema, i]() {
            Status status = testbed.StartInstance(schema, i);
            if (!status.ok()) {
              CREW_LOG(Error) << "drive " << schema << "#" << i
                              << " failed: " << status.ToString();
            }
          });
        }
        pending_drives.fetch_sub(1);
      });
      return "ok " + std::to_string(count);
    }
    if (words[0] == "feed" && words.size() >= 2) {
      // "feed n<id>:<load>[,n<id>:<load>...]": cluster load samples for
      // the least-loaded placement policy (no-op under other policies).
      runtime::PlacementPolicy* placement = testbed.placement();
      if (placement != nullptr) {
        for (size_t w = 1; w < words.size(); ++w) {
          for (const std::string& pair : Split(words[w], ',')) {
            size_t colon = pair.find(':');
            if (colon == std::string::npos || pair.size() < 3 ||
                pair[0] != 'n') {
              continue;
            }
            placement->UpdateLoad(std::atoi(pair.c_str() + 1),
                                  std::atoll(pair.c_str() + colon + 1));
          }
        }
      }
      return "ok";
    }
    if (words[0] == "exit") {
      {
        std::lock_guard<std::mutex> lock(exit_mu);
        exit_requested = true;
      }
      exit_cv.notify_all();
      return "ok";
    }
    return "err unknown request";
  };

  ControlServer control(
      flags.control.empty() ? self.value().path + ".ctl" : flags.control,
      handler);
  Status control_status = control.Start();
  if (!control_status.ok()) {
    std::fprintf(stderr, "crew_node: %s\n",
                 control_status.ToString().c_str());
    return 1;
  }

  node.Start();
  if (!node.WaitConnected(std::chrono::seconds(30))) {
    CREW_LOG(Warn) << "crew_node " << self.value().Address()
                   << ": peers not all connected yet; continuing";
  }

  if (flags.drive) {
    for (int i = 1; i <= flags.instances; ++i) {
      std::string schema = testbed.ScheduleSchema(i);
      NodeId start_node = testbed.StartNode(schema, i);
      if (!testbed.Hosts(start_node)) continue;
      node.runtime().Post(start_node, [&testbed, schema, i]() {
        Status status = testbed.StartInstance(schema, i);
        if (!status.ok()) {
          CREW_LOG(Error) << "start " << schema << "#" << i
                          << " failed: " << status.ToString();
        }
      });
    }
    pending_drives.fetch_sub(1);
  }

  // Periodic telemetry tick: refreshes every cell's metrics snapshot so
  // `status` replies and the supervisor's scrapes read near-live data
  // without ever touching a live shard from a foreign thread.
  std::thread sampler;
  if (flags.telemetry_interval_ms > 0) {
    sampler = std::thread([&]() {
      std::unique_lock<std::mutex> lock(exit_mu);
      while (!exit_requested) {
        exit_cv.wait_for(
            lock, std::chrono::milliseconds(flags.telemetry_interval_ms));
        if (exit_requested) break;
        lock.unlock();
        node.runtime().SampleMetrics(std::chrono::milliseconds(0));
        lock.lock();
      }
    });
  }

  {
    std::unique_lock<std::mutex> lock(exit_mu);
    exit_cv.wait(lock, [&]() { return exit_requested; });
  }
  if (sampler.joinable()) sampler.join();
  control.Stop();
  // Control server stopped: no new drivers can appear; join stragglers
  // (they bail out promptly on exit_requested).
  for (std::thread& driver : drivers) {
    if (driver.joinable()) driver.join();
  }
  node.Shutdown();

  // Shard write happens only on this clean-exit path: a SIGKILLed
  // incarnation leaves no shard, and the ids it minted (incarnation is
  // baked into bits 47..32) can never pair with a later life's records.
  if (!flags.trace_shard.empty()) {
    TraceShard shard =
        ShardFromRing(ring, self.value().Address(), flags.incarnation,
                      flags.tick_us, node.transport().ClockSamples());
    Status written = WriteTraceShard(shard, flags.trace_shard);
    if (!written.ok()) {
      std::fprintf(stderr, "crew_node: trace shard: %s\n",
                   written.ToString().c_str());
    }
  }
  return 0;
}

}  // namespace crew::net

int main(int argc, char** argv) {
  crew::net::Flags flags;
  if (!crew::net::ParseFlags(argc, argv, &flags)) {
    crew::net::Usage();
    return 2;
  }
  return crew::net::Run(flags);
}
