// sim-central-failmix and sim-dist-failmix: the paper's Table 3 traffic
// (midpoint parameters, every failure mechanism on) on the virtual-time
// simulator. The run repeats the identical workload in-process and keeps
// the fastest repetition: the simulator is one thread, so host stalls
// only ever slow a repetition, and every count must repeat exactly.
//
// The arrival schedule mirrors workload::RunWorkload. Untraced
// repetitions run on the bare simulator; traced ones assemble the system
// over the decorating backend (probe.h), so each node is measured from
// outside.
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "central/system.h"
#include "dist/system.h"
#include "probe.h"
#include "report.h"
#include "shared.h"
#include "sim/simulator.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace sim = crew::sim;
namespace workload = crew::workload;
using crew::InstanceId;
using crew::NodeId;
using crew::Value;
using crew::runtime::WorkflowState;

/// Instances per class: large enough that sim-dist-failmix's
/// non-terminating instances show (47 of 1000 at seed 42).
constexpr int kInstancesPerClass = 50;
/// Gap between starts, in ticks, as in workload::RunWorkload. The
/// schedule is fixed: seeded gaps (uniform 1..5 ticks) livelocked
/// distributed control on some seeds, whereas seeding the Table 3 draw
/// alone did not in 16 seeds.
constexpr sim::Time kStartStagger = 3;
/// Delay after a start before its designated abort or input change.
constexpr sim::Time kDisruptionDelay = 8;
/// Event budget per started instance. A healthy drain takes about 60
/// (central) or 130 (dist) events per instance; an instance whose
/// probes never stop would otherwise keep the queue busy forever.
constexpr int64_t kEventsPerInstanceCap = 2000;

/// The Table 3 midpoints; `seed` draws the classes, the deployment and
/// the instances designated to fail, abort or change their inputs.
workload::Params FailmixParams(uint64_t seed) {
  workload::Params params;
  params.instances_per_schema = kInstancesPerClass;
  params.seed = seed;
  return params;
}

struct Instance {
  std::string workflow;
  int64_t ordinal = 0;  ///< 1-based within its class
  InstanceId id;        ///< as the system numbers it
  bool fail = false, abort = false, change = false;
  WorkflowState final_state = WorkflowState::kUnknown;
};

bool Terminal(WorkflowState state) {
  return state == WorkflowState::kCommitted ||
         state == WorkflowState::kAborted;
}

struct Rep {
  std::string error;  ///< set when the workload could not be built
  double generate_s = 0, assemble_s = 0, drain_s = 0, cpu_s = 0;
  int64_t events = 0;
  /// The event budget ran out before the queue drained.
  bool livelocked = false;
  int64_t started = 0, committed = 0, aborted = 0, failed = 0;
  int64_t system_committed = 0, system_aborted = 0;
  int64_t heap_delta = 0;
  /// Hash of the counts and final states the repetitions must share.
  size_t fingerprint = 0;
  std::vector<std::string> repro;
  sim::Metrics metrics;
  // Traced repetitions only.
  bool traced = false;
  int64_t dispatch_ns = 0;  ///< inside RunOne, summed
  std::map<NodeId, NodeLedger> ledgers;
  std::vector<Captured> captured;
};

Rep RunRep(bool dist, uint64_t seed, bool traced, bool capture) {
  const workload::Params params = FailmixParams(seed);
  Rep rep;
  rep.traced = traced;

  // ---- set-up (thread CPU time): generate and compile the classes ----
  int64_t t0 = ThreadCpuNs();
  sim::Simulator simulator(params.seed);
  workload::WorkloadGenerator generator(params, &simulator.rng());
  auto generated = generator.GenerateAll();
  if (!generated.ok()) {
    rep.error = "generation failed: " + generated.status().ToString();
    return rep;
  }
  std::vector<workload::GeneratedSchema> schemas =
      std::move(generated).value();
  crew::runtime::CoordinationSpec coordination =
      generator.MakeCoordinationSpec(schemas);
  crew::runtime::ProgramRegistry programs;
  generator.RegisterPrograms(schemas, &programs);
  int64_t t1 = ThreadCpuNs();

  // ---- set-up: assemble deployment and system, register schemas ----
  std::vector<Instance> instances;
  ProbeOptions options;
  options.traced = traced;
  ProbeBackend probe(&simulator, options, nullptr);
  if (capture) probe.set_capture_limit(SIZE_MAX);
  sim::Backend* backend = traced ? static_cast<sim::Backend*>(&probe)
                                 : &simulator;
  crew::model::Deployment deployment;
  std::unique_ptr<crew::central::CentralSystem> central;
  std::unique_ptr<crew::dist::DistributedSystem> distributed;
  std::vector<NodeId> agents;
  if (dist) {
    crew::dist::AgentOptions agent_options;
    agent_options.navigation_load = params.navigation_load;
    distributed = std::make_unique<crew::dist::DistributedSystem>(
        backend, &programs, &deployment, &coordination, params.num_agents,
        agent_options);
    agents = distributed->agent_ids();
  } else {
    crew::central::EngineOptions engine_options;
    engine_options.navigation_load = params.navigation_load;
    central = std::make_unique<crew::central::CentralSystem>(
        backend, &programs, &deployment, &coordination, params.num_agents,
        engine_options);
    agents = central->agent_ids();
  }
  for (const workload::GeneratedSchema& g : schemas) {
    deployment.AssignRandom(*g.schema, agents, params.eligible_per_step,
                            &simulator.rng());
  }
  for (const workload::GeneratedSchema& g : schemas) {
    if (dist) {
      distributed->RegisterSchema(g.schema);
    } else {
      central->engine().RegisterSchema(g.schema);
    }
  }
  // Arrivals: class by class, one start every kStartStagger ticks; the
  // designated abort or input change follows its start by
  // kDisruptionDelay ticks.
  const NodeId entry = dist ? crew::kFrontEndNode : NodeId{1};
  sim::Time at = 0;
  for (size_t c = 0; c < schemas.size(); ++c) {
    const std::string name = schemas[c].schema->schema().name();
    const int cls = static_cast<int>(c);
    for (int64_t n = 1; n <= params.instances_per_schema; ++n) {
      at += kStartStagger;
      Instance instance;
      instance.workflow = name;
      instance.ordinal = n;
      instance.id = {name, dist ? static_cast<int64_t>(instances.size()) + 1
                                : n};
      instance.fail = generator.failing_instances(cls).count(n) > 0;
      instance.abort = generator.abort_instances(cls).count(n) > 0;
      instance.change =
          !instance.abort &&
          generator.input_change_instances(cls).count(n) > 0;
      instances.push_back(instance);
      std::function<void()> start;
      if (dist) {
        crew::dist::FrontEnd* front = &distributed->front_end();
        start = [front, name, fail = instance.fail]() {
          std::map<std::string, Value> inputs{{"WF.I1", Value(int64_t{10})}};
          if (fail) inputs["WF.FAIL1"] = Value(true);
          (void)front->StartWorkflow(name, std::move(inputs));
        };
      } else {
        crew::central::WorkflowEngine* engine = &central->engine();
        start = [engine, name, n, fail = instance.fail]() {
          std::map<std::string, Value> inputs{{"WF.I1", Value(int64_t{10})}};
          if (fail) inputs["WF.FAIL1"] = Value(true);
          (void)engine->StartWorkflow(name, n, std::move(inputs));
        };
      }
      simulator.queue().ScheduleAt(at, probe.WrapPost(entry, start));
      if (!instance.abort && !instance.change) continue;
      std::function<void()> disrupt;
      const InstanceId id = instance.id;
      const bool abort = instance.abort;
      if (dist) {
        crew::dist::FrontEnd* front = &distributed->front_end();
        disrupt = [front, id, abort]() {
          if (abort) {
            (void)front->RequestAbort(id);
          } else {
            (void)front->RequestChangeInputs(
                id, {{"WF.I1", Value(int64_t{77})}});
          }
        };
      } else {
        crew::central::WorkflowEngine* engine = &central->engine();
        disrupt = [engine, id, abort]() {
          if (abort) {
            (void)engine->AbortWorkflow(id);
          } else {
            (void)engine->ChangeInputs(id, {{"WF.I1", Value(int64_t{77})}});
          }
        };
      }
      simulator.queue().ScheduleAt(at + kDisruptionDelay,
                                   probe.WrapPost(entry, disrupt));
    }
  }
  int64_t t2 = ThreadCpuNs();

  // ---- drain ----
  const int64_t heap_before = HeapInUse();
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t3 = NowNs();
  const int64_t max_events =
      kEventsPerInstanceCap * static_cast<int64_t>(instances.size());
  if (traced) {
    while (rep.events < max_events) {
      int64_t s = NowNs();
      if (!simulator.queue().RunOne()) break;
      rep.dispatch_ns += NowNs() - s;
      ++rep.events;
    }
  } else {
    rep.events = simulator.Run(max_events);
  }
  rep.livelocked = !simulator.queue().empty();
  const int64_t t4 = NowNs();
  const double cpu1 = ProcessCpuSeconds();
  rep.heap_delta = HeapInUse() - heap_before;

  rep.generate_s = (t1 - t0) / 1e9;
  rep.assemble_s = (t2 - t1) / 1e9;
  rep.drain_s = (t4 - t3) / 1e9;
  rep.cpu_s = cpu1 - cpu0;
  rep.metrics = simulator.metrics();

  // ---- check every started instance ----
  std::string states;
  const char* label = dist ? "sim-dist-failmix" : "sim-central-failmix";
  for (Instance& instance : instances) {
    instance.final_state = dist
                               ? distributed->CoordinationStatus(instance.id)
                               : central->engine().QueryStatus(instance.id);
    ++rep.started;
    states += crew::runtime::WorkflowStateName(instance.final_state);
    states += ',';
    bool failed = !Terminal(instance.final_state) ||
                  (instance.final_state == WorkflowState::kAborted &&
                   !instance.abort);
    if (instance.final_state == WorkflowState::kCommitted) {
      ++rep.committed;
    } else if (instance.final_state == WorkflowState::kAborted) {
      ++rep.aborted;
    }
    if (!failed) continue;
    ++rep.failed;
    std::string designated;
    if (instance.fail) designated += "fail,";
    if (instance.abort) designated += "abort,";
    if (instance.change) designated += "input_change,";
    if (designated.empty()) designated = "none,";
    designated.pop_back();
    rep.repro.push_back(
        std::string("repro workload=") + label +
        " seed=" + std::to_string(seed) + " class=" + instance.workflow +
        " ordinal=" + std::to_string(instance.ordinal) +
        " instance=" + instance.id.ToString() + " state=" +
        crew::runtime::WorkflowStateName(instance.final_state) +
        " designated=" + designated);
  }
  if (rep.livelocked) {
    rep.repro.push_back(std::string("repro workload=") + label + " seed=" +
                        std::to_string(seed) +
                        " livelock: events still queued after " +
                        std::to_string(rep.events));
  }
  rep.system_committed = dist ? distributed->committed_count()
                              : central->engine().committed_count();
  rep.system_aborted = dist ? distributed->aborted_count()
                            : central->engine().aborted_count();
  rep.fingerprint =
      std::hash<std::string>{}(rep.metrics.ReportJson() + "|" + states);
  if (traced) {
    for (const auto& [node, ledger] : probe.ledgers()) {
      rep.ledgers[node] = *ledger;
    }
    rep.captured = probe.captured();
  }
  return rep;
}

std::string RepJson(const Rep& rep) {
  return JsonObject()
      .Num("traced", rep.traced)
      .Num("generate_s", rep.generate_s)
      .Num("assemble_s", rep.assemble_s)
      .Num("drain_s", rep.drain_s)
      .Num("cpu_s", rep.cpu_s)
      .Num("events", static_cast<double>(rep.events))
      .Num("livelocked", rep.livelocked)
      .Num("started", static_cast<double>(rep.started))
      .Num("committed", static_cast<double>(rep.committed))
      .Num("aborted", static_cast<double>(rep.aborted))
      .Num("failed", static_cast<double>(rep.failed))
      .Num("heap_delta_bytes", static_cast<double>(rep.heap_delta))
      .str();
}

}  // namespace

Outcome RunSimFailmix(bool dist, uint64_t seed, double seconds,
                      bool traced) {
  Outcome out;
  // Traced: the first half of the time runs untraced repetitions (the
  // baseline for the tracing overhead), the second half traced ones.
  // A repetition takes 0.1-1.5 s, so there are many; a livelocked one
  // runs to the event budget, so the clock, not a count, ends the run.
  const double untraced_s = traced ? seconds / 2 : seconds;
  std::vector<Rep> reps;
  // Counts, final states and repro lines are the same in every
  // repetition (the fingerprint checks it), so only the first keeps
  // them. Keeping every repetition's ledger grew the heap that later
  // repetitions set up in, and moved their set-up time.
  auto keep = [&](Rep rep) {
    if (!reps.empty()) {
      rep.metrics = sim::Metrics();
      rep.repro = {};
    }
    reps.push_back(std::move(rep));
  };
  const int64_t begin = NowNs();
  do {
    keep(RunRep(dist, seed, false, false));
  } while ((NowNs() - begin) / 1e9 < untraced_s);
  const size_t untraced_count = reps.size();
  if (traced) {
    const int64_t traced_begin = NowNs();
    bool first = true;
    do {
      // Payloads are captured once, in the first traced repetition.
      keep(RunRep(dist, seed, true, first));
      first = false;
    } while ((NowNs() - traced_begin) / 1e9 < seconds - untraced_s);
  }

  // Every repetition must reproduce the first one's counts exactly.
  for (size_t i = 1; i < reps.size(); ++i) {
    if (reps[i].fingerprint != reps[0].fingerprint) {
      out.errors.push_back("nondeterminism: repetition " +
                           std::to_string(i) +
                           " counts differ from repetition 0");
    }
  }
  const Rep& first = reps[0];
  if (first.started == 0) {
    out.errors.push_back(first.error.empty() ? "no instance started"
                                             : first.error);
    out.correct = false;
    return out;
  }
  if (first.system_committed != first.committed ||
      first.system_aborted != first.aborted) {
    out.errors.push_back("system counters disagree with instance states");
  }

  // Fastest untraced repetition: host stalls only ever slow a rep.
  size_t fastest = 0;
  std::vector<double> setup_s, heap_kb;
  for (size_t i = 0; i < untraced_count; ++i) {
    if (reps[i].drain_s < reps[fastest].drain_s) fastest = i;
    setup_s.push_back(reps[i].generate_s + reps[i].assemble_s);
    heap_kb.push_back(reps[i].heap_delta / 1024.0 / reps[i].started);
  }
  const Rep& best = reps[fastest];
  const int64_t accepted = best.started - best.failed;
  const int64_t l = FailmixParams(seed).navigation_load;
  out.attempted = best.started;
  out.failed = best.failed;
  out.repro = first.repro;

  out.Add("setup_s", Median(setup_s), "s");
  out.Add("throughput_wfps", accepted / best.drain_s, "wf/s");
  AddCountMetrics(first.metrics, best.started, l, &out);
  out.Add("completed_share",
          static_cast<double>(accepted) / best.started, "ratio");
  out.Add("heap_kb_per_wf", Median(heap_kb), "KiB");
  out.Add("cpu_us_per_wf",
          accepted > 0 ? best.cpu_s * 1e6 / accepted : 0, "us");

  // ---- per-layer ----
  out.Add("failed_share", static_cast<double>(best.failed) / best.started,
          "ratio");
  // Sojourn is an rt metric: virtual time says nothing of service time.
  out.Add("sojourn_p50_us", 0, "us");
  out.Add("sojourn_p99_us", 0, "us");
  out.Add("sojourn_samples", 0, "count");
  std::vector<double> generate_ms, assemble_ms;
  for (const Rep& rep : reps) {
    generate_ms.push_back(rep.generate_s * 1e3);
    assemble_ms.push_back(rep.assemble_s * 1e3);
  }
  out.Add("setup.generate_ms", Median(generate_ms), "ms");
  out.Add("setup.assemble_ms", Median(assemble_ms), "ms");
  out.Add("setup.start_ms", 0, "ms");
  AddCategoryMetrics(first.metrics, best.started, l, &out);
  out.Add("dist.placement_imbalance",
          dist ? PlacementImbalance(first.metrics,
                                    FailmixParams(seed).num_agents)
               : 0,
          "ratio");
  for (const char* name :
       {"rt.post_wait_us.p50", "rt.post_wait_us.p99", "rt.msg_wait_us.p50",
        "rt.msg_wait_us.p99", "rt.timer_late_us.p50", "rt.timer_late_us.p99",
        "rt.generator_late_us.p99"}) {
    out.Add(name, 0, "us");
  }
  out.Add("rt.sojourn_p50_us.median_window", 0, "us");
  out.Add("rt.sojourn_p99_us.median_window", 0, "us");
  out.Add("rt.timers_per_wf", 0, "count");
  out.Add("rt.mailbox_parks_per_wf", 0, "count");
  out.Add("rt.max_mailbox_depth", 0, "count");
  out.Add("storage.wal_records_per_wf", 0, "count");
  out.Add("storage.wal_bytes_per_wf", 0, "bytes");
  out.Add("storage.wal_append_us", 0, "us");

  std::vector<std::string> rep_json;
  for (const Rep& rep : reps) rep_json.push_back(RepJson(rep));
  JsonObject detail;
  detail.Num("instances_per_class", kInstancesPerClass)
      .Num("fastest_rep", static_cast<double>(fastest))
      .Raw("reps", JsonArray(rep_json));

  if (traced) {
    // The fastest traced repetition gives the layer times.
    size_t fastest_traced = untraced_count;
    for (size_t i = untraced_count; i < reps.size(); ++i) {
      if (reps[i].drain_s < reps[fastest_traced].drain_s) fastest_traced = i;
    }
    const Rep& tr = reps[fastest_traced];
    int64_t handler_ns = 0, callback_ns = 0, callbacks = 0;
    for (const auto& [node, ledger] : tr.ledgers) {
      for (const auto& [type, cost] : ledger.handlers) handler_ns += cost.ns;
      callback_ns += ledger.callback_ns;
      callbacks += ledger.callbacks;
    }
    auto role_of = [dist](NodeId node) -> std::string {
      if (dist) {
        return node == crew::kFrontEndNode ? "dist.frontend" : "dist.agent";
      }
      return node == 1 ? "central.engine" : "central.agent";
    };
    AddHandlerMetrics(tr.ledgers, role_of, tr.started, &out);
    const double drain_ns = tr.drain_s * 1e9;
    const double queue_ns = tr.dispatch_ns - handler_ns - callback_ns;
    out.Add("sim.callbacks_per_wf", static_cast<double>(callbacks) / tr.started,
            "count");
    out.Add("sim.callback_us_per_wf", callback_ns / 1e3 / tr.started,
            "us/wf");
    out.Add("sim.queue_us_per_wf", queue_ns / 1e3 / tr.started, "us/wf");
    out.Add("sim.events_per_wf", static_cast<double>(tr.events) / tr.started,
            "count");
    out.Add("sim.trace_coverage",
            (handler_ns + callback_ns + queue_ns) / drain_ns, "ratio");
    out.Add("obs.trace_overhead_share", tr.drain_s / best.drain_s - 1,
            "ratio");
    // The capture repetition is the first traced one.
    AddCodecMetrics(ReplayCodec(reps[untraced_count].captured, 3), &out);
  }
  out.detail = detail.str();
  out.correct = out.errors.empty();
  return out;
}

}  // namespace perfbench
