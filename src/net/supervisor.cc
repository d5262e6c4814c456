#include "net/supervisor.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/logging.h"
#include "net/control.h"

namespace crew::net {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Reaps `pid`, escalating to SIGKILL after `grace_ms`.
void Reap(pid_t pid, int grace_ms) {
  if (pid <= 0) return;
  int64_t deadline = NowMs() + grace_ms;
  for (;;) {
    int status = 0;
    pid_t done = waitpid(pid, &status, WNOHANG);
    if (done == pid || (done < 0 && errno == ECHILD)) return;
    if (NowMs() >= deadline) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

Supervisor::Supervisor(Topology topology, LaunchOptions options)
    : topology_(std::move(topology)), options_(std::move(options)) {
  for (const Endpoint& endpoint : topology_.Endpoints()) {
    NodeProcess process;
    process.endpoint = endpoint;
    process.control_path = endpoint.path + ".ctl";
    processes_.push_back(std::move(process));
  }
}

Supervisor::~Supervisor() { ShutdownAll(); }

Supervisor::NodeProcess* Supervisor::FindProcess(const Endpoint& endpoint) {
  for (NodeProcess& process : processes_) {
    if (process.endpoint == endpoint) return &process;
  }
  return nullptr;
}

Status Supervisor::Spawn(NodeProcess* process, bool drive) {
  if (process->endpoint.kind != Endpoint::Kind::kUnix) {
    return Status::InvalidArgument(
        "supervisor requires unix-domain endpoints");
  }
  std::vector<std::string> args = {
      options_.node_binary,
      "--topology", options_.topology_file,
      "--endpoint", process->endpoint.Address(),
      "--control", process->control_path,
      "--mode", options_.mode,
      "--engines", std::to_string(options_.num_engines),
      "--agents", std::to_string(options_.num_agents),
      "--instances", std::to_string(options_.num_instances),
      "--seed", std::to_string(options_.seed),
      "--tick-us", std::to_string(options_.tick_us),
      "--pending-timeout", std::to_string(options_.pending_timeout),
      "--incarnation", std::to_string(process->incarnation),
      "--drive", drive ? "1" : "0",
      "--telemetry-interval-ms",
      std::to_string(options_.telemetry_interval_ms),
  };
  if (!options_.agdb_dir.empty()) {
    args.push_back("--agdb");
    args.push_back(options_.agdb_dir);
  }
  if (!options_.placement.empty() && options_.placement != "static") {
    args.push_back("--placement");
    args.push_back(options_.placement);
  }
  if (options_.num_classes > 0) {
    args.push_back("--classes");
    args.push_back(std::to_string(options_.num_classes));
  }
  if (!options_.trace_dir.empty()) {
    // One shard file per incarnation: a restarted process must not
    // overwrite its previous life's shard (each is a separate clock).
    const std::string& path = process->endpoint.path;
    size_t slash = path.find_last_of('/');
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    std::string shard = options_.trace_dir + "/" + base + ".inc" +
                        std::to_string(process->incarnation) + ".shard";
    args.push_back("--trace-shard");
    args.push_back(shard);
    process->trace_shards.push_back(std::move(shard));
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  pid_t pid = fork();
  if (pid < 0) {
    return Status::Unavailable("fork failed: " +
                               std::string(std::strerror(errno)));
  }
  if (pid == 0) {
    // Child: exec immediately (nothing but async-signal-safe calls
    // between fork and exec — the parent may be multithreaded).
    execv(options_.node_binary.c_str(), argv.data());
    _exit(127);
  }
  process->pid = pid;
  return Status::OK();
}

Status Supervisor::StartAll() {
  for (NodeProcess& process : processes_) {
    CREW_RETURN_IF_ERROR(Spawn(&process, options_.drive_on_start));
  }
  return Status::OK();
}

Status Supervisor::Kill(const Endpoint& endpoint) {
  NodeProcess* process = FindProcess(endpoint);
  if (process == nullptr || process->pid <= 0) {
    return Status::NotFound("no live process at " + endpoint.Address());
  }
  kill(process->pid, SIGKILL);
  int status = 0;
  waitpid(process->pid, &status, 0);
  process->pid = -1;
  return Status::OK();
}

Status Supervisor::Restart(const Endpoint& endpoint) {
  NodeProcess* process = FindProcess(endpoint);
  if (process == nullptr) {
    return Status::NotFound("unknown endpoint " + endpoint.Address());
  }
  if (process->pid > 0) {
    return Status::FailedPrecondition("process still running; Kill first");
  }
  ++process->incarnation;
  return Spawn(process, /*drive=*/false);
}

Result<std::string> Supervisor::Request(const Endpoint& endpoint,
                                        const std::string& request) {
  NodeProcess* process = FindProcess(endpoint);
  if (process == nullptr) {
    return Status::NotFound("unknown endpoint " + endpoint.Address());
  }
  return ControlRequest(process->control_path, request);
}

Status Supervisor::WaitQuiescent(int timeout_ms) {
  int64_t deadline = NowMs() + timeout_ms;
  int64_t last_admitted = -1;
  while (NowMs() < deadline) {
    bool quiet = true;
    int64_t admitted = 0;
    for (NodeProcess& process : processes_) {
      Result<std::string> reply =
          ControlRequest(process.control_path, "quiet", 2000);
      if (!reply.ok()) {
        quiet = false;
        break;
      }
      // Reply: "<0|1> <admitted>"
      const std::string& text = reply.value();
      size_t space = text.find(' ');
      if (space == std::string::npos || text[0] != '1') {
        quiet = false;
        break;
      }
      admitted += std::atoll(text.c_str() + space + 1);
    }
    if (quiet && admitted == last_admitted) return Status::OK();
    last_admitted = quiet ? admitted : -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(quiet ? 5 : 20));
  }
  return Status::Unavailable("cluster did not quiesce in " +
                             std::to_string(timeout_ms) + "ms");
}

Result<std::string> Supervisor::QueryState(const std::string& workflow,
                                           int64_t number) {
  for (NodeProcess& process : processes_) {
    Result<std::string> reply = ControlRequest(
        process.control_path,
        "status " + workflow + " " + std::to_string(number), 2000);
    if (!reply.ok()) continue;
    // Reply: "<state> <telemetry json>"; "n/a" from non-authorities.
    const std::string& text = reply.value();
    size_t space = text.find(' ');
    std::string state =
        space == std::string::npos ? text : text.substr(0, space);
    if (state != "n/a" && state.compare(0, 3, "err") != 0) return state;
  }
  return Status::NotFound("no process is authoritative for " + workflow +
                          "#" + std::to_string(number));
}

std::vector<NodeTelemetry> Supervisor::CollectTelemetry(int timeout_ms) {
  std::vector<NodeTelemetry> out;
  for (NodeProcess& process : processes_) {
    if (process.pid <= 0) continue;
    Result<std::string> reply =
        ControlRequest(process.control_path, "telemetry", timeout_ms);
    if (!reply.ok() || reply.value().empty() || reply.value()[0] != '{') {
      continue;
    }
    out.push_back(NodeTelemetry{process.endpoint.Address(),
                                std::move(reply).value()});
  }
  return out;
}

std::vector<std::string> Supervisor::TraceShardPaths() const {
  std::vector<std::string> paths;
  for (const NodeProcess& process : processes_) {
    for (const std::string& shard : process.trace_shards) {
      paths.push_back(shard);
    }
  }
  return paths;
}

void Supervisor::ShutdownAll() {
  for (NodeProcess& process : processes_) {
    if (process.pid <= 0) continue;
    Result<std::string> reply =
        ControlRequest(process.control_path, "exit", 2000);
    if (!reply.ok()) {
      CREW_LOG(Warn) << "supervisor: exit request to "
                     << process.endpoint.Address()
                     << " failed: " << reply.status().ToString();
    }
    Reap(process.pid, /*grace_ms=*/5000);
    process.pid = -1;
  }
}

}  // namespace crew::net
