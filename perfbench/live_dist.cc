// rt-dist-durable: distributed control on the live runtime. A front end
// and two agents run as three node threads beside the runtime's timer
// thread; each agent keeps a durable AGDB whose WAL is appended on every
// step. The main thread is an open-loop generator: seeded Poisson
// arrivals at one fixed absolute rate, posted when due whatever the
// system's state, each timed from its scheduled instant.
//
// The measured stretch is cut into a warm-up and equal one-second
// windows. Throughput and CPU cost are the median over windows. Sojourn
// percentiles come from the quietest window, the one with the least
// p99: on a shared host, stalls of other tenants only ever slow a
// window, and they moved the median window's p99 by 3x between runs.
// The median window's percentiles are reported beside them.
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "dist/system.h"
#include "model/builder.h"
#include "probe.h"
#include "report.h"
#include "rt/runtime.h"
#include "runtime/wire.h"
#include "shared.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace sim = crew::sim;
namespace fs = std::filesystem;
using crew::NodeId;

constexpr int64_t kTickUs = 10;
constexpr double kRatePerSec = 4000;  ///< offered load, 40% of saturation
constexpr int kAgents = 2;
constexpr int kSetupReps = 100;
constexpr double kWarmupS = 1.0;
constexpr double kWindowS = 1.0;
/// Payloads kept for the codec replay.
constexpr size_t kCaptureLimit = 50000;
constexpr int64_t kNavigationLoad = 100;

crew::model::CompiledSchemaPtr JobSchema() {
  crew::model::SchemaBuilder b("Job");
  crew::StepId s1 = b.AddTask("T1", "noop");
  crew::StepId s2 = b.AddTask("T2", "noop");
  crew::StepId s3 = b.AddTask("T3", "noop");
  crew::StepId s4 = b.AddTask("T4", "noop");
  b.Sequence({s1, s2, s3, s4});
  return crew::model::CompiledSchema::Compile(std::move(b.Build()).value())
      .value();
}

/// Records, on the front end's thread, when the coordination agent's
/// committed WorkflowStatusReply for each instance arrives.
class CommitSignal : public DispatchObserver {
 public:
  explicit CommitSignal(size_t capacity) : done_ns_(capacity + 1) {
    for (auto& slot : done_ns_) slot.store(-1, std::memory_order_relaxed);
  }
  void AfterHandler(NodeId node, const sim::Message& message) override {
    if (node != crew::kFrontEndNode ||
        message.type != crew::runtime::wi::kWorkflowStatusReply) {
      return;
    }
    auto reply = crew::runtime::WorkflowStatusReplyMsg::Parse(message.payload);
    if (!reply.ok() ||
        reply.value().state != crew::runtime::WorkflowState::kCommitted) {
      return;
    }
    size_t number = static_cast<size_t>(reply.value().instance.number);
    if (number < done_ns_.size()) {
      done_ns_[number].store(NowNs(), std::memory_order_relaxed);
    }
  }
  int64_t done_ns(size_t number) const {
    return done_ns_[number].load(std::memory_order_relaxed);
  }

 private:
  std::vector<std::atomic<int64_t>> done_ns_;
};

/// One assembled live system over the decorating backend.
struct Live {
  Live(const std::string& dir, bool traced, size_t capacity)
      : signal(capacity) {
    int64_t t0 = ThreadCpuNs();
    schema = JobSchema();
    programs.RegisterBuiltins();
    int64_t t1 = ThreadCpuNs();
    runtime = std::make_unique<crew::rt::Runtime>(
        crew::rt::RuntimeOptions{.seed = 42, .tick_us = kTickUs});
    ProbeOptions options;
    options.traced = traced;
    options.live = true;
    options.tick_us = kTickUs;
    probe = std::make_unique<ProbeBackend>(runtime.get(), options, &signal);
    if (traced) probe->set_capture_limit(kCaptureLimit);
    crew::dist::AgentOptions agent_options;
    agent_options.navigation_load = kNavigationLoad;
    agent_options.agdb_dir = dir;
    agent_options.exec_latency = 1;
    // Keeps overdue-step probes out of a healthy run even when the host
    // stalls a thread: 5000 ticks = 50 ms.
    agent_options.pending_timeout = 5000;
    system = std::make_unique<crew::dist::DistributedSystem>(
        probe.get(), &programs, &deployment, &coordination, kAgents,
        agent_options);
    std::vector<NodeId> all = system->agent_ids();
    for (crew::StepId s = 1; s <= schema->schema().num_steps(); ++s) {
      deployment.SetEligible("Job", s, all);
    }
    system->RegisterSchema(schema);
    // Touch the front end's context so WrapPost never creates one later.
    probe->ContextFor(crew::kFrontEndNode);
    int64_t t2 = ThreadCpuNs();
    runtime->Start();
    if (traced) {
      probe->CalibrateLiveClock([this]() { return runtime->now(); });
    }
    int64_t t3 = ThreadCpuNs();
    generate_s = (t1 - t0) / 1e9;
    assemble_s = (t2 - t1) / 1e9;
    start_s = (t3 - t2) / 1e9;
  }
  ~Live() { runtime->Shutdown(); }

  Live(const Live&) = delete;
  Live& operator=(const Live&) = delete;

  CommitSignal signal;
  crew::model::CompiledSchemaPtr schema;
  crew::runtime::ProgramRegistry programs;
  crew::model::Deployment deployment;
  crew::runtime::CoordinationSpec coordination;
  std::unique_ptr<crew::rt::Runtime> runtime;
  std::unique_ptr<ProbeBackend> probe;
  std::unique_ptr<crew::dist::DistributedSystem> system;
  double generate_s = 0, assemble_s = 0, start_s = 0;
};

struct Window {
  double throughput_wfps = 0;
  double sojourn_p50_us = 0, sojourn_p99_us = 0;
  int64_t samples = 0;
  double cpu_us_per_wf = 0;
};

struct LiveRun {
  int64_t started = 0, committed = 0;
  std::vector<Window> windows;
  std::vector<std::string> repro;
  double generator_late_p50_us = 0, generator_late_p99_us = 0;
  int64_t heap_delta = 0;
  sim::Metrics metrics;
  crew::rt::RuntimeStats stats;
  std::map<NodeId, NodeLedger> ledgers;
  std::vector<Captured> captured;
  WalStats wal;

  /// Median over windows of every field.
  Window Median() const {
    std::vector<double> tp, p50, p99, cpu;
    for (const Window& w : windows) {
      tp.push_back(w.throughput_wfps);
      p50.push_back(w.sojourn_p50_us);
      p99.push_back(w.sojourn_p99_us);
      cpu.push_back(w.cpu_us_per_wf);
    }
    Window m;
    m.throughput_wfps = perfbench::Median(tp);
    m.sojourn_p50_us = perfbench::Median(p50);
    m.sojourn_p99_us = perfbench::Median(p99);
    m.cpu_us_per_wf = perfbench::Median(cpu);
    return m;
  }
  /// The window with the least sojourn p99.
  Window Quietest() const {
    Window best = windows.front();
    for (const Window& w : windows) {
      if (w.sojourn_p99_us < best.sojourn_p99_us) best = w;
    }
    return best;
  }
};

/// Drives `live` open-loop for `duration_s`, drains it, and reads back
/// what it did. The arrival schedule depends only on `seed`.
LiveRun Drive(Live* live, uint64_t seed, double duration_s,
              const std::string& dir) {
  LiveRun run;
  const int windows =
      std::max(1, static_cast<int>((duration_s - kWarmupS) / kWindowS));
  const double span_s = kWarmupS + windows * kWindowS;

  crew::Rng rng(seed);
  std::vector<int64_t> scheduled;  // ns after t0
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.NextDouble()) / kRatePerSec;
    if (t >= span_s) break;
    scheduled.push_back(static_cast<int64_t>(t * 1e9));
  }
  std::vector<int64_t> late_ns(scheduled.size());
  // CPU time at each window edge: edge 0 ends the warm-up.
  std::vector<double> cpu_at(windows + 1, 0);
  std::vector<int64_t> edge_ns(windows + 1);
  for (int k = 0; k <= windows; ++k) {
    edge_ns[k] = static_cast<int64_t>((kWarmupS + k * kWindowS) * 1e9);
  }

  crew::rt::Runtime* runtime = live->runtime.get();
  crew::dist::FrontEnd* front = &live->system->front_end();
  const int64_t heap_before = HeapInUse();
  const int64_t t0 = NowNs() + 2'000'000;
  int next_edge = 0;
  for (size_t i = 0; i < scheduled.size(); ++i) {
    const int64_t due = t0 + scheduled[i];
    while (next_edge <= windows && t0 + edge_ns[next_edge] <= due) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(t0 + edge_ns[next_edge])));
      cpu_at[next_edge++] = ProcessCpuSeconds();
    }
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due)));
    late_ns[i] = NowNs() - due;
    runtime->Post(crew::kFrontEndNode,
                  live->probe->WrapPost(crew::kFrontEndNode, [front]() {
                    (void)front->StartWorkflow("Job", {});
                  }));
  }
  while (next_edge <= windows) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(t0 + edge_ns[next_edge])));
    cpu_at[next_edge++] = ProcessCpuSeconds();
  }
  runtime->Quiesce();
  run.heap_delta = HeapInUse() - heap_before;
  runtime->Shutdown();

  // Instance i+1 is arrival i: one generator posts in order and the front
  // end numbers starts 1, 2, ...
  run.started = static_cast<int64_t>(scheduled.size());
  std::vector<std::vector<double>> sojourn(windows);
  std::vector<int64_t> completions(windows, 0);
  for (size_t i = 0; i < scheduled.size(); ++i) {
    const int64_t done = live->signal.done_ns(i + 1);
    const crew::InstanceId id{"Job", static_cast<int64_t>(i + 1)};
    if (done < 0) {
      run.repro.push_back(
          "repro workload=rt-dist-durable seed=" + std::to_string(seed) +
          " class=Job instance=" + id.ToString() + " state=" +
          crew::runtime::WorkflowStateName(
              live->system->CoordinationStatus(id)));
      continue;
    }
    ++run.committed;
    const int64_t arrival = scheduled[i];
    if (arrival >= edge_ns[0]) {
      int k = static_cast<int>((arrival - edge_ns[0]) / (kWindowS * 1e9));
      if (k < windows) sojourn[k].push_back((done - t0 - arrival) / 1e3);
    }
    const int64_t finish = done - t0;
    if (finish >= edge_ns[0]) {
      int k = static_cast<int>((finish - edge_ns[0]) / (kWindowS * 1e9));
      if (k < windows) ++completions[k];
    }
  }
  for (int k = 0; k < windows; ++k) {
    Window w;
    w.throughput_wfps = completions[k] / kWindowS;
    w.samples = static_cast<int64_t>(sojourn[k].size());
    w.sojourn_p50_us = Percentile(sojourn[k], 50);
    w.sojourn_p99_us = Percentile(sojourn[k], 99);
    w.cpu_us_per_wf = completions[k] > 0
                          ? (cpu_at[k + 1] - cpu_at[k]) * 1e6 / completions[k]
                          : 0;
    run.windows.push_back(w);
  }
  std::vector<double> late_us;
  for (int64_t ns : late_ns) late_us.push_back(ns / 1e3);
  run.generator_late_p50_us = Percentile(late_us, 50);
  run.generator_late_p99_us = Percentile(late_us, 99);
  run.metrics = runtime->MergedMetrics();
  run.stats = runtime->Stats();
  for (const auto& [node, ledger] : live->probe->ledgers()) {
    run.ledgers[node] = *ledger;
  }
  run.captured = live->probe->captured();
  std::vector<std::string> logs;
  for (NodeId agent : live->system->agent_ids()) {
    logs.push_back(dir + "/agdb-" + std::to_string(agent) + ".wal");
  }
  run.wal = ReplayWals(logs, dir + "/scratch.wal");
  return run;
}

std::string WindowJson(const Window& w) {
  return JsonObject()
      .Num("throughput_wfps", w.throughput_wfps)
      .Num("sojourn_p50_us", w.sojourn_p50_us)
      .Num("sojourn_p99_us", w.sojourn_p99_us)
      .Num("samples", static_cast<double>(w.samples))
      .Num("cpu_us_per_wf", w.cpu_us_per_wf)
      .str();
}

std::string RunJson(const LiveRun& run) {
  std::vector<std::string> windows;
  for (const Window& w : run.windows) windows.push_back(WindowJson(w));
  return JsonObject()
      .Num("started", static_cast<double>(run.started))
      .Num("committed", static_cast<double>(run.committed))
      .Num("generator_late_p50_us", run.generator_late_p50_us)
      .Num("generator_late_p99_us", run.generator_late_p99_us)
      .Num("heap_delta_bytes", static_cast<double>(run.heap_delta))
      .Num("timers_fired", static_cast<double>(run.stats.timers_fired))
      .Num("mailbox_parks", static_cast<double>(run.stats.mailbox_parks))
      .Num("workers", run.stats.num_workers)
      .Raw("windows", JsonArray(windows))
      .str();
}

std::vector<double> ToUs(const std::map<NodeId, NodeLedger>& ledgers,
                         std::vector<int64_t> NodeLedger::*field) {
  std::vector<double> us;
  for (const auto& [node, ledger] : ledgers) {
    for (int64_t ns : ledger.*field) us.push_back(ns / 1e3);
  }
  return us;
}

}  // namespace

Outcome RunLiveDist(uint64_t seed, double seconds, bool traced,
                    const std::string& work_dir) {
  Outcome out;
  const int64_t begin = NowNs();
  // Set-up is timed kSetupReps times from scratch, each system torn down
  // before the next; the system driven is built after them, with the
  // completion table sized for the run (benchmark bookkeeping, not
  // set-up work, so the timed set-ups get none).
  std::vector<double> setup_s, generate_ms, assemble_ms, start_ms;
  auto fresh_dir = [&](const std::string& name) {
    std::string dir = work_dir + "/" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
  };
  for (int r = 0; r < kSetupReps; ++r) {
    Live setup(fresh_dir("setup"), false, 0);
    setup_s.push_back(setup.generate_s + setup.assemble_s + setup.start_s);
    generate_ms.push_back(setup.generate_s * 1e3);
    assemble_ms.push_back(setup.assemble_s * 1e3);
    start_ms.push_back(setup.start_s * 1e3);
  }
  const size_t capacity =
      static_cast<size_t>(kRatePerSec * (seconds + 10) * 1.5);
  std::string dir = fresh_dir("run");
  auto live = std::make_unique<Live>(dir, false, capacity);
  // Leave time for the drain and, traced, for a second system.
  const double left_s = seconds - (NowNs() - begin) / 1e9 - 0.5;
  const double drive_s = traced ? left_s / 2 : left_s;
  LiveRun run = Drive(live.get(), seed, drive_s, dir);
  live.reset();

  LiveRun traced_run;
  if (traced) {
    std::string traced_dir = fresh_dir("traced");
    live = std::make_unique<Live>(traced_dir, true, capacity);
    traced_run = Drive(live.get(), seed, drive_s, traced_dir);
    live.reset();
  }
  fs::remove_all(work_dir);

  const Window median = run.Median();
  const Window quietest = run.Quietest();
  out.attempted = run.started;
  out.failed = run.started - run.committed;
  out.repro = run.repro;
  if (run.wal.records == 0 || !run.wal.ok) {
    out.errors.push_back("agent WALs unreadable or empty");
  }
  if (run.stats.num_workers != kAgents + 1) {
    out.errors.push_back("expected " + std::to_string(kAgents + 1) +
                         " node threads, ran " +
                         std::to_string(run.stats.num_workers));
  }

  out.Add("setup_s", Median(setup_s), "s");
  out.Add("throughput_wfps", median.throughput_wfps, "wf/s");
  out.Add("sojourn_p50_us", quietest.sojourn_p50_us, "us");
  out.Add("sojourn_p99_us", quietest.sojourn_p99_us, "us");
  AddCountMetrics(run.metrics, run.started, kNavigationLoad, &out);
  out.Add("completed_share",
          static_cast<double>(run.committed) / run.started, "ratio");
  out.Add("heap_kb_per_wf", run.heap_delta / 1024.0 / run.started, "KiB");
  out.Add("cpu_us_per_wf", median.cpu_us_per_wf, "us");

  // ---- per-layer ----
  const LiveRun& lr = traced ? traced_run : run;
  out.Add("failed_share", static_cast<double>(out.failed) / run.started,
          "ratio");
  out.Add("sojourn_samples", static_cast<double>(quietest.samples), "count");
  out.Add("rt.sojourn_p50_us.median_window", median.sojourn_p50_us, "us");
  out.Add("rt.sojourn_p99_us.median_window", median.sojourn_p99_us, "us");
  out.Add("setup.generate_ms", Median(generate_ms), "ms");
  out.Add("setup.assemble_ms", Median(assemble_ms), "ms");
  out.Add("setup.start_ms", Median(start_ms), "ms");
  AddCategoryMetrics(lr.metrics, lr.started, kNavigationLoad, &out);
  out.Add("dist.placement_imbalance", PlacementImbalance(lr.metrics, kAgents),
          "ratio");
  for (const char* name : {"sim.callbacks_per_wf", "sim.events_per_wf"}) {
    out.Add(name, 0, "count");
  }
  out.Add("sim.callback_us_per_wf", 0, "us/wf");
  out.Add("sim.queue_us_per_wf", 0, "us/wf");
  out.Add("sim.trace_coverage", 0, "ratio");
  auto pct = [](const std::vector<double>& v, const std::string& name,
                Outcome* o) {
    o->Add(name + ".p50", Percentile(v, 50), "us");
    o->Add(name + ".p99", Percentile(v, 99), "us");
  };
  pct(ToUs(lr.ledgers, &NodeLedger::post_wait_ns), "rt.post_wait_us", &out);
  pct(ToUs(lr.ledgers, &NodeLedger::msg_wait_ns), "rt.msg_wait_us", &out);
  pct(ToUs(lr.ledgers, &NodeLedger::timer_late_ns), "rt.timer_late_us",
      &out);
  out.Add("rt.generator_late_us.p99", lr.generator_late_p99_us, "us");
  out.Add("rt.timers_per_wf",
          static_cast<double>(lr.stats.timers_fired) / lr.started, "count");
  out.Add("rt.mailbox_parks_per_wf",
          static_cast<double>(lr.stats.mailbox_parks) / lr.started, "count");
  out.Add("rt.max_mailbox_depth",
          static_cast<double>(lr.stats.max_mailbox_depth), "count");
  out.Add("storage.wal_records_per_wf",
          static_cast<double>(lr.wal.records) / lr.started, "count");
  out.Add("storage.wal_bytes_per_wf",
          static_cast<double>(lr.wal.bytes) / lr.started, "bytes");
  out.Add("storage.wal_append_us", lr.wal.append_us, "us");
  if (traced) {
    AddHandlerMetrics(lr.ledgers, [](NodeId node) -> std::string {
      return node == crew::kFrontEndNode ? "dist.frontend" : "dist.agent";
    }, lr.started, &out);
    out.Add("obs.trace_overhead_share",
            traced_run.Median().cpu_us_per_wf / median.cpu_us_per_wf - 1,
            "ratio");
    AddCodecMetrics(ReplayCodec(lr.captured, 3), &out);
    if (traced_run.committed != traced_run.started) {
      out.errors.push_back("traced run left instances uncommitted");
    }
  }

  JsonObject detail;
  detail.Num("rate_per_sec", kRatePerSec)
      .Num("agents", kAgents)
      .Num("warmup_s", kWarmupS)
      .Num("window_s", kWindowS)
      .Raw("setup_s", [&] {
        std::vector<std::string> v;
        for (double s : setup_s) v.push_back(JsonObject().Num("s", s).str());
        return JsonArray(v);
      }())
      .Raw("run", RunJson(run));
  if (traced) detail.Raw("traced_run", RunJson(traced_run));
  out.detail = detail.str();
  out.correct = out.errors.empty();
  return out;
}

}  // namespace perfbench
