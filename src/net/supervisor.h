#ifndef CREW_NET_SUPERVISOR_H_
#define CREW_NET_SUPERVISOR_H_

#include <sys/types.h>

#include <string>
#include <vector>

#include "common/status.h"
#include "net/telemetry.h"
#include "net/topology.h"

namespace crew::net {

/// Everything a crew_node process needs to assemble its slice of the
/// deployment. The supervisor passes these through as command-line
/// flags; every process gets identical values except endpoint,
/// incarnation and drive.
struct LaunchOptions {
  std::string node_binary;    ///< path to the crew_node executable
  std::string topology_file;  ///< shared topology spec
  std::string mode = "dist";  ///< central | parallel | dist
  int num_engines = 2;
  int num_agents = 3;
  int num_instances = 9;
  uint64_t seed = 42;
  int64_t tick_us = 20;
  int64_t pending_timeout = 5000;
  std::string agdb_dir;  ///< durable AGDB directory (dist)
  /// Directory for per-process trace shards. Empty = tracing off. Each
  /// spawn gets "<dir>/<socket basename>.inc<k>.shard"; crew_trace_merge
  /// (or trace_merge.h) joins the shards into one Chrome trace.
  std::string trace_dir;
  /// Metrics snapshot cadence inside each node (0 = off).
  int64_t telemetry_interval_ms = 200;
  /// Instance placement policy ("static" | "rr" | "hash" | "least").
  std::string placement = "static";
  /// Sweep workload classes (0 = the standard mixed workload).
  int num_classes = 0;
  /// When false, nodes start idle and the caller triggers the workload
  /// later via the "drive" control verb (open-loop bench runs).
  bool drive_on_start = true;
};

/// Launcher/supervisor for multi-process deployments: spawns one
/// crew_node per distinct endpoint of the topology (fork + exec), tracks
/// pids, and coordinates the run over each node's control socket —
/// including SIGKILLing a node mid-run and restarting it with a bumped
/// incarnation, the crash-recovery path under test.
///
/// Unix-domain endpoints only (each node's control socket lives at
/// "<data socket path>.ctl").
class Supervisor {
 public:
  struct NodeProcess {
    Endpoint endpoint;
    std::string control_path;
    uint64_t incarnation = 1;
    pid_t pid = -1;
    /// Shard paths of every incarnation spawned with tracing on. Only
    /// cleanly-exited incarnations actually write theirs; collectors
    /// skip paths that never appeared.
    std::vector<std::string> trace_shards;
  };

  Supervisor(Topology topology, LaunchOptions options);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Spawns every node process. Only the process hosting an instance's
  /// start node drives it, so the workload starts exactly once.
  Status StartAll();

  /// SIGKILL + reap: the crash. Data and control sockets die with it;
  /// peers park outbound traffic for its nodes.
  Status Kill(const Endpoint& endpoint);

  /// Respawns a killed node with incarnation+1 and drive off. The new
  /// process replays its durable AGDB before serving.
  Status Restart(const Endpoint& endpoint);

  /// One control round-trip to the node at `endpoint`.
  Result<std::string> Request(const Endpoint& endpoint,
                              const std::string& request);

  /// Polls the cluster until every process reports quiet twice around an
  /// unchanged total admission count (the cross-process Quiesce).
  Status WaitQuiescent(int timeout_ms);

  /// Asks every process for the instance's terminal state; exactly one
  /// is authoritative (the others answer "n/a"). Returns the bare state
  /// token (the node appends its telemetry document after it).
  Result<std::string> QueryState(const std::string& workflow,
                                 int64_t number);

  /// Scrapes every live process's telemetry document ("telemetry"
  /// verb). Unreachable processes are skipped — the caller sees fewer
  /// entries than processes() during a crash window.
  std::vector<NodeTelemetry> CollectTelemetry(int timeout_ms = 2000);

  /// Every shard path any traced incarnation may have written, in spawn
  /// order. Paths whose process was killed never exist on disk.
  std::vector<std::string> TraceShardPaths() const;

  /// Clean stop: "exit" to every process, then reap (SIGKILL stragglers).
  void ShutdownAll();

  const std::vector<NodeProcess>& processes() const { return processes_; }
  const Topology& topology() const { return topology_; }

 private:
  NodeProcess* FindProcess(const Endpoint& endpoint);
  Status Spawn(NodeProcess* process, bool drive);

  Topology topology_;
  LaunchOptions options_;
  std::vector<NodeProcess> processes_;
};

}  // namespace crew::net

#endif  // CREW_NET_SUPERVISOR_H_
