#include "central/engine.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/binio.h"
#include "common/logging.h"
#include "rules/event.h"
#include "runtime/wire.h"

namespace crew::central {

using runtime::StepRecord;
using runtime::StepRunState;
using runtime::WorkflowState;

WorkflowEngine::WorkflowEngine(NodeId id, sim::Context* context,
                               const runtime::ProgramRegistry* programs,
                               const model::Deployment* deployment,
                               const runtime::CoordinationSpec* coordination,
                               EngineOptions options)
    : id_(id),
      ctx_(context),
      programs_(programs),
      deployment_(deployment),
      coordination_(coordination),
      options_(std::move(options)),
      own_tracker_(coordination),
      wfdb_("wfdb-engine-" + std::to_string(id)) {
  ctx_->network().Register(id_, this);
  if (!options_.wfdb_dir.empty()) {
    Status status = wfdb_.Recover(options_.wfdb_dir);
    if (status.ok()) status = wfdb_.OpenDurable(options_.wfdb_dir);
    if (!status.ok()) {
      CREW_LOG(Error) << "WFDB durability disabled: " << status.ToString();
    }
    // Forward recovery: restore each instance's status from the WFDB.
    const storage::Table* summary = wfdb_.FindTable("instance_summary");
    if (summary != nullptr) {
      for (const auto& [key, row] : summary->rows()) {
        InstanceId inst = InstanceId::Parse(key);
        std::optional<Value> status_value = row.Get("status");
        if (status_value.has_value() && status_value->is_string()) {
          archive_[inst].status =
              runtime::ParseWorkflowState(status_value->AsString());
        }
      }
    }
  }
}

void WorkflowEngine::RegisterSchema(model::CompiledSchemaPtr schema) {
  schemas_[schema->schema().name()] = std::move(schema);
}

WorkflowEngine::Instance* WorkflowEngine::Find(const InstanceId& instance) {
  auto it = instances_.find(instance);
  return it == instances_.end() ? nullptr : it->second.get();
}

const WorkflowEngine::Instance* WorkflowEngine::Find(
    const InstanceId& instance) const {
  auto it = instances_.find(instance);
  return it == instances_.end() ? nullptr : it->second.get();
}

sim::LoadCategory WorkflowEngine::LoadFor(sim::MsgCategory mode) const {
  switch (mode) {
    case sim::MsgCategory::kFailureHandling:
      return sim::LoadCategory::kFailureHandling;
    case sim::MsgCategory::kInputChange:
      return sim::LoadCategory::kInputChange;
    case sim::MsgCategory::kAbort:
      return sim::LoadCategory::kAbort;
    default:
      return sim::LoadCategory::kNavigation;
  }
}

void WorkflowEngine::PersistInstanceStatus(const Instance& inst) {
  storage::Row row;
  row.Set("status",
          Value(std::string(runtime::WorkflowStateName(inst.status))));
  wfdb_.table("instance_summary").Put(inst.state.id().ToString(), row);
}

Status WorkflowEngine::StartWorkflow(const std::string& workflow,
                                     int64_t number,
                                     std::map<std::string, Value> inputs) {
  auto schema_it = schemas_.find(workflow);
  if (schema_it == schemas_.end()) {
    return Status::NotFound("no schema registered as " + workflow);
  }
  InstanceId id{workflow, number};
  if (instances_.count(id) || archive_.count(id)) {
    return Status::AlreadyExists("instance " + id.ToString() +
                                 " already exists");
  }

  auto inst = std::make_unique<Instance>();
  inst->state = runtime::InstanceState(id, schema_it->second);
  for (auto& [name, value] : inputs) {
    inst->state.SetData(name, std::move(value));
  }

  Instance* raw = inst.get();
  instances_[id] = std::move(inst);
  PersistInstanceStatus(*raw);
  // Per-engine admission count feeding the cluster imbalance metric.
  ctx_->metrics().AddCounter("placement.wf.n" + std::to_string(id_), 1);

  obs::Tracer& tr = ctx_->tracer();
  if (tr.enabled()) {
    tr.Begin(obs::SpanKind::kInstance, id_, id, kInvalidStep, "instance");
  }

  ApplyRoBindings(raw);

  raw->state.PostEvent(rules::event::WorkflowStartToken());
  Pump(raw);
  return Status::OK();
}

void WorkflowEngine::ApplyRoBindings(Instance* inst) {
  std::vector<runtime::RoBinding> bindings =
      tracker().OnInstanceStart(inst->state.id());
  for (const runtime::RoBinding& binding : bindings) {
    for (const auto& [lead_step, lag_step] : binding.step_pairs) {
      rules::EventToken token =
          rules::event::RelativeOrderToken(binding.leading, lead_step);
      // Guard every rule that can fire the lagging step.
      if (!inst->state.GateStep(lag_step, token)) {
        CREW_LOG(Warn) << "RO binding found no rules for step S" << lag_step
                       << " of " << inst->state.id().ToString();
      }
      ctx_->metrics().AddLoad(id_, sim::LoadCategory::kCoordination,
                                    options_.navigation_load);
      // RO wait span: ends when the ordering token is delivered. Keyed
      // by token (not lag step) so DeliverCoordinationEvent can close it.
      obs::Tracer& tr = ctx_->tracer();
      if (tr.enabled()) {
        tr.Begin(obs::SpanKind::kCoord, id_, inst->state.id(), kInvalidStep,
                 "ro.wait:" + rules::TokenNameStr(token),
                 static_cast<int>(sim::MsgCategory::kCoordination));
      }
      Instance* lead = Find(binding.leading);
      if (lead != nullptr) {
        ro_watch_[{binding.leading, lead_step}].push_back(
            {inst->state.id(), token});
        if (lead->state.EventValid(rules::event::StepDoneToken(lead_step))) {
          DeliverCoordinationEvent(inst->state.id(), token);
        }
      } else if (topology_ != nullptr) {
        // Parallel control: the leading instance lives at a peer engine.
        // Coordination broadcasts keep a local log of its progress; watch
        // it, or resolve immediately if the step (or the instance) is
        // already past.
        if (coord_done_log_.count({binding.leading, lead_step}) > 0 ||
            coord_ended_log_.count(binding.leading) > 0) {
          DeliverCoordinationEvent(inst->state.id(), token);
        } else {
          remote_ro_watch_[{binding.leading, lead_step}].push_back(
              {inst->state.id(), token});
        }
      } else {
        // Leading instance already gone (committed/aborted): ordering is
        // trivially satisfied.
        DeliverCoordinationEvent(inst->state.id(), token);
      }
    }
  }
}

void WorkflowEngine::DeliverCoordinationEvent(const InstanceId& instance,
                                              rules::EventToken event_token) {
  // Only an executing instance can still be ordered: a committed, retired
  // or compensating-after-abort one drops the event, uncharged.
  Instance* inst = Find(instance);
  if (inst == nullptr || inst->status != WorkflowState::kExecuting) return;
  if (!runtime::DeliverOrderToken(ctx_->tracer(), id_, &inst->state,
                                  event_token)) {
    return;
  }
  ctx_->metrics().AddLoad(id_, sim::LoadCategory::kCoordination,
                                options_.navigation_load);
  Pump(inst);
}

void WorkflowEngine::NotifyRoWatchers(Instance* inst, StepId step) {
  auto it = ro_watch_.find({inst->state.id(), step});
  if (it == ro_watch_.end()) return;
  std::vector<std::pair<InstanceId, rules::EventToken>> watchers =
      std::move(it->second);
  ro_watch_.erase(it);
  for (const auto& [watcher, token] : watchers) {
    ctx_->metrics().AddLoad(id_, sim::LoadCategory::kCoordination,
                                  options_.navigation_load);
    if (Find(watcher) != nullptr) {
      DeliverCoordinationEvent(watcher, token);
    }
    // Remote watchers learn about this completion through the
    // coordination broadcast; nothing to do here.
  }
}

void WorkflowEngine::SendEngineMessage(NodeId to, const std::string& type,
                                       const std::string& payload) {
  sim::Message out{id_, to, type, payload,
                   sim::MsgCategory::kCoordination};
  (void)ctx_->network().Send(std::move(out));
}

void WorkflowEngine::BroadcastCoordination(Instance* inst,
                                           const std::string& suffix) {
  if (topology_ == nullptr) return;
  if (coordination_->RequirementCount(inst->state.id().workflow) == 0) {
    return;
  }
  runtime::AddEventMsg msg;
  msg.instance = inst->state.id();
  msg.event_token = suffix;
  for (NodeId engine : topology_->AllEngines()) {
    if (engine == id_) continue;
    SendEngineMessage(engine, runtime::wi::kAddEvent, msg.Serialize());
  }
}

NodeId WorkflowEngine::LockOwner(const std::string& resource) const {
  return topology_ != nullptr ? topology_->LockOwnerEngine(resource) : id_;
}

void WorkflowEngine::LockReleaseLocal(const std::string& resource,
                                      const InstanceId& instance,
                                      StepId step) {
  runtime::MutexTable::Holder next;
  // Local waiters that aborted or committed meanwhile are skipped.
  bool released = locks_.Release(
      resource, instance, step, &next,
      [this](const runtime::MutexTable::Holder& waiter) {
        if (waiter.node != id_) return true;
        const Instance* inst = Find(waiter.instance);
        return inst != nullptr && inst->status == WorkflowState::kExecuting;
      });
  if (!released) return;
  ctx_->metrics().AddLoad(id_, sim::LoadCategory::kCoordination,
                                options_.navigation_load);
  if (next.node == id_) {
    Instance* waiter = Find(next.instance);
    waiter->state.me().Grant(next.step, resource);
    StartStep(waiter, next.step);
  } else if (next.node != kInvalidNode) {
    // Remote waiter: the lock is its; notify its engine.
    SendEngineMessage(next.node, runtime::wi::kAddEvent,
                      runtime::EncodeMeGrant(next.instance, resource,
                                             next.step));
  }
}

bool WorkflowEngine::AcquireMutexes(Instance* inst, StepId step) {
  const InstanceId& id = inst->state.id();
  for (const runtime::MutexReq* req :
       coordination_->MutexesOf(id.workflow, step)) {
    ctx_->metrics().AddLoad(id_, sim::LoadCategory::kCoordination,
                                  options_.navigation_load);
    if (inst->state.me().Granted(step, req->resource)) continue;
    NodeId owner = LockOwner(req->resource);
    if (owner == id_) {
      if (locks_.Acquire(req->resource, {id, step, id_}) ==
          runtime::MutexTable::Acquired::kQueued) {
        return false;  // resumed by LockReleaseLocal
      }
      inst->state.me().Grant(step, req->resource);
      continue;
    }
    // Remote arbitration: request the lock from the owner engine.
    if (inst->state.me().Request(step, req->resource)) {
      SendEngineMessage(owner, runtime::wi::kAddRule,
                        runtime::EncodeMeRequest(
                            runtime::MeRequestKind::kAcquire, id,
                            req->resource, step, id_));
    }
    return false;  // resumed when the grant message arrives
  }
  return true;
}

void WorkflowEngine::ReleaseMutexes(Instance* inst, StepId step) {
  const InstanceId& id = inst->state.id();
  for (const runtime::MutexReq* req :
       coordination_->MutexesOf(id.workflow, step)) {
    if (!inst->state.me().Release(step, req->resource)) continue;
    NodeId owner = LockOwner(req->resource);
    if (owner == id_) {
      LockReleaseLocal(req->resource, id, step);
    } else {
      SendEngineMessage(owner, runtime::wi::kAddRule,
                        runtime::EncodeMeRequest(
                            runtime::MeRequestKind::kRelease, id,
                            req->resource, step, id_));
    }
  }
}

void WorkflowEngine::Pump(Instance* inst) {
  bool progressed = true;
  while (progressed && inst->status == WorkflowState::kExecuting) {
    progressed = false;
    for (StepId step : inst->state.FireableSteps()) {
      progressed = true;
      StartStep(inst, step);
    }
  }
}

void WorkflowEngine::StartStep(Instance* inst, StepId step) {
  if (inst->status != WorkflowState::kExecuting) return;
  obs::Tracer& tr = ctx_->tracer();
  if (!runtime::BeginStep(tr, id_, &inst->state, step)) return;
  ctx_->metrics().AddLoad(id_, LoadFor(inst->state.mode()),
                                options_.navigation_load);
  // Blocked on a mutual-exclusion resource: resumed by its release.
  if (!runtime::PassMutexGate(tr, id_, &inst->state, step,
                              AcquireMutexes(inst, step))) {
    return;
  }
  const model::CompiledSchema& schema = *inst->state.schema();
  runtime::OcrPlan plan =
      runtime::PlanStep(tr, id_, &inst->state, schema.schema().step(step));
  if (plan.decision == runtime::OcrDecision::kReuse) {
    // Previous results suffice: emit step.done without re-executing (the
    // OCR saving). Outputs are already in the data table.
    OnStepDone(inst, step, /*reused=*/true);
    return;
  }
  if (!plan.compensate_first) {
    DispatchProgram(inst, step, plan.exec_fraction);
    return;
  }
  // Compensation dependent sets: members executed after this step must be
  // compensated first, in reverse execution order (§3).
  const int64_t exec_seq = inst->state.step_record(step).exec_seq;
  std::vector<StepId> chain;
  for (int set_index : schema.comp_dep_sets_of(step)) {
    const model::CompDepSet& set = schema.schema().comp_dep_sets()[set_index];
    for (StepId member : set.steps) {
      if (member == step) continue;
      const StepRecord* other = inst->state.FindStepRecord(member);
      if (other != nullptr && other->state == StepRunState::kDone &&
          other->exec_seq > exec_seq) {
        chain.push_back(member);
      }
    }
  }
  EnqueueLatestFirst(inst, std::move(chain));
  EnqueueCompensation(inst, step);
  InstanceId id = inst->state.id();
  EnqueueBarrier(inst, [this, id, step, fraction = plan.exec_fraction]() {
    Instance* resumed = Find(id);
    if (resumed == nullptr || resumed->status != WorkflowState::kExecuting) {
      return;
    }
    DispatchProgram(resumed, step, fraction);
  });
  RunCompQueue(inst);
}

void WorkflowEngine::DispatchProgram(Instance* inst, StepId step,
                                     double cost_fraction) {
  const model::Step& spec = inst->state.schema()->schema().step(step);
  StepRecord& record = inst->state.step_record(step);
  inst->state.EndStart(step);
  if (record.in_flight) return;  // already dispatched (barrier/rule race)
  record.in_flight = true;
  record.attempts += 1;

  runtime::RunProgramMsg msg;
  msg.instance = inst->state.id();
  msg.step = step;
  msg.program = spec.program;
  msg.attempt = record.attempts;
  msg.compensation = false;
  msg.cost_fraction = cost_fraction;
  msg.nominal_cost = spec.cost;
  msg.inputs = inst->state.ResolveInputs(step);
  msg.reply_to = id_;
  msg.epoch = inst->state.epoch();

  const std::vector<NodeId>& eligible =
      deployment_->Eligible(inst->state.id().workflow, step);
  // Least-loaded selection from cached acks; ties by lowest id. Down
  // agents are skipped (the paper's successor-failure rule: pick another
  // eligible agent).
  NodeId chosen = kInvalidNode;
  int64_t best_load = INT64_MAX;
  for (NodeId agent : eligible) {
    if (ctx_->network().IsNodeDown(agent)) continue;
    int64_t load = 0;
    auto it = agent_load_.find(agent);
    if (it != agent_load_.end()) load = it->second;
    if (load < best_load) {
      best_load = load;
      chosen = agent;
    }
  }
  if (chosen == kInvalidNode) {
    // All eligible agents down: retry after their recovery window.
    record.in_flight = false;
    InstanceId id = inst->state.id();
    ctx_->queue().ScheduleAfter(20, [this, id, step]() {
      Instance* retry = Find(id);
      if (retry != nullptr && retry->status == WorkflowState::kExecuting) {
        StartStep(retry, step);
      }
    });
    return;
  }
  msg.designated = chosen;
  record.executed_by = chosen;

  // Only *re*-dispatches are failure/input-change traffic; a step's
  // first execution is normal scheduling even if it happens after a
  // rollback moved the instance past the old failure frontier.
  sim::MsgCategory category = record.attempts > 1
                                  ? inst->state.mode()
                                  : sim::MsgCategory::kNormal;
  obs::Tracer& tr = ctx_->tracer();
  if (tr.enabled()) {
    tr.Instant(obs::SpanKind::kStep, id_, inst->state.id(), step,
               "step.dispatch", record.attempts,
               "agent=" + std::to_string(chosen),
               static_cast<int>(category));
  }
  // Redundant fan-out: every eligible agent receives the step info and
  // acknowledges; the designated one executes (DESIGN.md §5).
  for (NodeId agent : eligible) {
    sim::Message out{id_, agent, runtime::wi::kRunProgram, msg.Serialize(),
                     category};
    (void)ctx_->network().Send(std::move(out));
  }
}

void WorkflowEngine::EnqueueCompensation(Instance* inst, StepId step) {
  CompItem item;
  item.step = step;
  inst->comp_queue.push_back(std::move(item));
}

void WorkflowEngine::EnqueueLatestFirst(Instance* inst,
                                        std::vector<StepId> steps) {
  std::sort(steps.begin(), steps.end(), [inst](StepId a, StepId b) {
    return inst->state.FindStepRecord(a)->exec_seq >
           inst->state.FindStepRecord(b)->exec_seq;
  });
  for (StepId step : steps) EnqueueCompensation(inst, step);
}

void WorkflowEngine::EnqueueBarrier(Instance* inst,
                                    std::function<void()> continuation) {
  CompItem item;
  item.barrier = std::move(continuation);
  inst->comp_queue.push_back(std::move(item));
}

void WorkflowEngine::RunCompQueue(Instance* inst) {
  if (inst->comp_running) return;
  while (!inst->comp_queue.empty()) {
    CompItem item = std::move(inst->comp_queue.front());
    inst->comp_queue.pop_front();
    if (item.barrier) {
      item.barrier();
      continue;
    }
    const StepRecord* record = inst->state.FindStepRecord(item.step);
    if (record == nullptr || record->state != StepRunState::kDone) {
      continue;  // never executed (or already compensated): no action
    }
    inst->comp_running = true;
    DispatchCompensation(inst, item.step);
    return;  // resumed by OnCompensated
  }
}

void WorkflowEngine::DispatchCompensation(Instance* inst, StepId step) {
  const model::Step& spec = inst->state.schema()->schema().step(step);
  StepRecord& record = inst->state.step_record(step);

  runtime::RunProgramMsg msg;
  msg.instance = inst->state.id();
  msg.step = step;
  msg.program = spec.compensation_program.empty()
                    ? spec.program
                    : spec.compensation_program;
  msg.attempt = record.attempts;
  msg.compensation = true;
  msg.cost_fraction = spec.ocr.partial_compensation_fraction;
  msg.nominal_cost = spec.cost;
  msg.inputs = record.prev_inputs;
  msg.reply_to = id_;
  msg.epoch = inst->state.epoch();
  // Compensation must run where the step executed.
  NodeId target = record.executed_by != kInvalidNode
                      ? record.executed_by
                      : deployment_->Eligible(inst->state.id().workflow,
                                              step)
                            .front();
  msg.designated = target;
  ctx_->metrics().AddLoad(id_, LoadFor(inst->state.mode()),
                                options_.navigation_load);
  obs::Tracer& tr = ctx_->tracer();
  if (tr.enabled()) {
    tr.Begin(obs::SpanKind::kOcr, id_, inst->state.id(), step, "compensate",
             static_cast<int>(inst->state.mode()),
             "agent=" + std::to_string(target));
  }
  sim::Message out{id_, target, runtime::wi::kRunProgram, msg.Serialize(),
                   inst->state.mode()};
  (void)ctx_->network().Send(std::move(out));
}

void WorkflowEngine::HandleMessage(const sim::Message& message) {
  // Top of the stack: nothing below holds a retired instance any more.
  retired_.clear();
  if (message.type == runtime::wi::kRunProgramReply) {
    Result<runtime::RunProgramReplyMsg> reply =
        runtime::RunProgramReplyMsg::Parse(message.payload);
    if (!reply.ok()) {
      CREW_LOG(Error) << "engine " << id_ << ": bad reply: "
                      << reply.status().ToString();
      return;
    }
    OnProgramReply(reply.value());
    return;
  }
  if (message.type == runtime::wi::kAddEvent) {
    OnCoordinationMessage(message);
    return;
  }
  if (message.type == runtime::wi::kAddRule) {
    OnMeRequest(message);
    return;
  }
  if (message.type == runtime::wi::kWorkflowRollback) {
    Result<runtime::WorkflowRollbackMsg> msg =
        runtime::WorkflowRollbackMsg::Parse(message.payload);
    if (msg.ok()) {
      Instance* inst = Find(msg.value().instance);
      if (inst != nullptr && inst->status == WorkflowState::kExecuting) {
        Rollback(inst, msg.value().origin_step,
                 sim::MsgCategory::kFailureHandling,
                 /*rd_induced=*/true);
      }
    }
    return;
  }
  CREW_LOG(Warn) << "engine " << id_ << " ignoring message type "
                 << message.type;
}

void WorkflowEngine::OnMeRequest(const sim::Message& message) {
  Result<runtime::AddRuleMsg> parsed =
      runtime::AddRuleMsg::Parse(message.payload);
  if (!parsed.ok()) return;
  const runtime::AddRuleMsg& req = parsed.value();
  NodeId requester = runtime::CheckedRequester(req, message.from);
  if (requester == kInvalidNode) return;
  ctx_->metrics().AddLoad(id_, sim::LoadCategory::kCoordination,
                                options_.navigation_load);
  runtime::MeRequestKind kind = runtime::MeRequestKindOf(req);
  if (kind == runtime::MeRequestKind::kRelease) {
    LockReleaseLocal(req.condition_source, req.instance, req.action_step);
  } else if (kind == runtime::MeRequestKind::kAcquire &&
             locks_.Acquire(req.condition_source,
                            {req.instance, req.action_step, requester}) !=
                 runtime::MutexTable::Acquired::kQueued) {
    // Else granted on a later release.
    SendEngineMessage(requester, runtime::wi::kAddEvent,
                      runtime::EncodeMeGrant(req.instance,
                                             req.condition_source,
                                             req.action_step));
  }
}

void WorkflowEngine::OnCoordinationMessage(const sim::Message& message) {
  Result<runtime::AddEventMsg> parsed =
      runtime::AddEventMsg::Parse(message.payload);
  if (!parsed.ok()) return;
  const runtime::AddEventMsg& msg = parsed.value();
  const std::string& token = msg.event_token;

  if (runtime::IsMeGrant(token)) {
    // Remote lock granted: resume the blocked step.
    std::optional<runtime::MeGrant> grant = runtime::DecodeMeGrant(token);
    if (!grant.has_value()) return;
    Instance* inst = Find(msg.instance);
    if (inst == nullptr || inst->status != WorkflowState::kExecuting) {
      // Waiter gone: release immediately so others can proceed.
      SendEngineMessage(message.from, runtime::wi::kAddRule,
                        runtime::EncodeMeRequest(
                            runtime::MeRequestKind::kRelease, msg.instance,
                            grant->resource, grant->step, id_));
      return;
    }
    inst->state.me().Grant(grant->step, grant->resource);
    StartStep(inst, grant->step);
    return;
  }

  if (token.rfind("coord.done:S", 0) == 0) {
    StepId step = static_cast<StepId>(
        strtol(token.c_str() + strlen("coord.done:S"), nullptr, 10));
    coord_done_log_.insert({msg.instance, step});
    auto it = remote_ro_watch_.find({msg.instance, step});
    if (it != remote_ro_watch_.end()) {
      std::vector<std::pair<InstanceId, rules::EventToken>> watchers =
          std::move(it->second);
      remote_ro_watch_.erase(it);
      for (const auto& [watcher, ro_token] : watchers) {
        DeliverCoordinationEvent(watcher, ro_token);
      }
    }
    return;
  }

  if (token == "coord.end") {
    // The ended log answers every later question about this instance.
    coord_done_log_.erase(
        coord_done_log_.lower_bound(
            {msg.instance, std::numeric_limits<StepId>::min()}),
        coord_done_log_.upper_bound(
            {msg.instance, std::numeric_limits<StepId>::max()}));
    coord_ended_log_.insert(msg.instance);
    ReleaseWatchesOn(&remote_ro_watch_, msg.instance);
    return;
  }

  // Plain event (e.g., a relative-ordering token).
  DeliverCoordinationEvent(msg.instance, rules::InternToken(token));
}

void WorkflowEngine::OnProgramReply(
    const runtime::RunProgramReplyMsg& reply) {
  agent_load_[reply.responder] = reply.agent_load;
  if (reply.ack_only) return;

  Instance* inst = Find(reply.instance);
  if (inst == nullptr) return;

  if (reply.compensation) {
    // Compensation bookkeeping is processed even if a newer rollback
    // bumped the epoch meanwhile: the compensation *did* happen at the
    // agent, and the serialized comp queue must never stall on a stale
    // reply (it may hold ME locks and barrier continuations).
    OnCompensated(inst, reply.step);
    return;
  }
  if (reply.epoch < inst->state.epoch()) return;  // stale (pre-rollback)
  if (inst->status != WorkflowState::kExecuting) return;

  StepRecord& record = inst->state.step_record(reply.step);
  if (!record.in_flight) return;  // rollback reset it; result is void
  record.in_flight = false;

  if (reply.success) {
    inst->state.RecordSuccess(reply.step, reply.responder, reply.outputs,
                              inst->state.ResolveInputs(reply.step));
    OnStepDone(inst, reply.step, /*reused=*/false);
  } else {
    record.state = StepRunState::kFailed;
    OnStepFailed(inst, reply.step);
  }
}

void WorkflowEngine::OnStepDone(Instance* inst, StepId step, bool reused) {
  runtime::StepDone(ctx_->tracer(), id_, &inst->state, step, reused);

  ReleaseMutexes(inst, step);
  NotifyRoWatchers(inst, step);
  BroadcastCoordination(inst, "coord.done:S" + std::to_string(step));
  // Coordination load: every completion checks the class requirements.
  if (int n = coordination_->RequirementCount(inst->state.id().workflow)) {
    ctx_->metrics().AddLoad(id_, sim::LoadCategory::kCoordination,
                            options_.navigation_load * n);
  }

  const model::CompiledSchema& schema = *inst->state.schema();
  if (schema.is_choice_split(step)) {
    HandleBranchSwitch(inst, step);
  }

  // Commit check: every terminal group has a valid done event.
  if (schema.terminal_group_of(step) >= 0) {
    bool all_groups = true;
    for (const auto& group : schema.schema().terminal_groups()) {
      bool any = false;
      for (StepId member : group) {
        if (inst->state.EventValid(rules::event::StepDoneToken(member))) {
          any = true;
          break;
        }
      }
      if (!any) {
        all_groups = false;
        break;
      }
    }
    if (all_groups) {
      Commit(inst);
      return;
    }
  }
  Pump(inst);
}

void WorkflowEngine::HandleBranchSwitch(Instance* inst, StepId split_step) {
  StepId chosen = kInvalidStep;
  StepId old_entry = inst->state.SwitchBranch(split_step, &chosen);
  if (old_entry == kInvalidStep) return;
  // Branch switch: compensate the steps that only lie on the old branch
  // (downstream of old entry but not of the new entry), §5.2.
  const model::CompiledSchema& schema = *inst->state.schema();
  std::vector<StepId> to_comp;
  for (StepId candidate : schema.downstream_including(old_entry)) {
    if (schema.IsDownstream(chosen, candidate)) continue;
    const StepRecord* record = inst->state.FindStepRecord(candidate);
    if (record != nullptr && record->state == StepRunState::kDone) {
      to_comp.push_back(candidate);
    }
  }
  EnqueueLatestFirst(inst, std::move(to_comp));
  RunCompQueue(inst);
}

void WorkflowEngine::OnStepFailed(Instance* inst, StepId step) {
  bool give_up = runtime::StepFailed(ctx_->tracer(), id_, &inst->state, step);
  ReleaseMutexes(inst, step);
  if (give_up) {
    DoAbort(inst);
    return;
  }
  Rollback(inst,
           inst->state.schema()->schema().step(step).failure.rollback_to,
           sim::MsgCategory::kFailureHandling);
}

void WorkflowEngine::Rollback(Instance* inst, StepId origin,
                              sim::MsgCategory mode, bool rd_induced) {
  if (rd_induced && inst->last_rollback_origin != kInvalidStep &&
      origin >= inst->last_rollback_origin &&
      inst->state.exec_seq() == inst->last_rollback_seq) {
    // The dependent instance has not progressed since its last rollback:
    // a repeated RD-induced rollback is a no-op (and breaks RD rings).
    return;
  }
  inst->last_rollback_origin = origin;
  inst->last_rollback_seq = inst->state.exec_seq();
  inst->state.set_mode(mode);
  int64_t new_epoch = inst->state.epoch() + 1;
  inst->state.set_epoch(new_epoch);

  // Steps in flight under the old epoch are void; their replies will be
  // dropped by the epoch check.
  int64_t touched_steps = inst->state.ResetDownstream(origin, new_epoch);
  if (touched_steps > 0) {
    ctx_->metrics().AddLoad(id_, LoadFor(mode),
                            touched_steps * options_.navigation_load);
  }
  obs::Tracer& tr = ctx_->tracer();
  if (tr.enabled()) {
    tr.Instant(obs::SpanKind::kOcr, id_, inst->state.id(), origin,
               "rollback", touched_steps,
               std::string("origin=S") + std::to_string(origin) +
                   (rd_induced ? " rd-induced" : "") + " epoch=" +
                   std::to_string(new_epoch),
               static_cast<int>(mode));
  }

  // Rollback dependencies: dependent instances roll back too (§3).
  // RD-induced rollbacks do not cascade further, so dependency rings
  // terminate.
  if (!rd_induced)
  for (const auto& [dependent, to_step] :
       tracker().RollbackDependents(inst->state.id(), origin)) {
    ctx_->metrics().AddLoad(id_, sim::LoadCategory::kCoordination,
                                  options_.navigation_load);
    if (tr.enabled()) {
      tr.Instant(obs::SpanKind::kCoord, id_, inst->state.id(), origin,
                 "rd.trigger", to_step, "dependent=" + dependent.ToString(),
                 static_cast<int>(sim::MsgCategory::kCoordination));
    }
    Instance* dep = Find(dependent);
    if (dep != nullptr && dep->status == WorkflowState::kExecuting) {
      Rollback(dep, to_step, sim::MsgCategory::kFailureHandling,
               /*rd_induced=*/true);
    } else if (topology_ != nullptr) {
      runtime::WorkflowRollbackMsg remote;
      remote.instance = dependent;
      remote.origin_step = to_step;
      remote.state.instance = dependent;
      SendEngineMessage(topology_->OwnerEngine(dependent),
                        runtime::wi::kWorkflowRollback,
                        remote.Serialize());
    }
  }

  Pump(inst);
}

void WorkflowEngine::OnCompensated(Instance* inst, StepId step) {
  obs::Tracer& tr = ctx_->tracer();
  if (tr.enabled()) {
    tr.End(obs::SpanKind::kOcr, id_, inst->state.id(), step, "compensate");
  }
  inst->state.RecordCompensated(step);
  inst->comp_running = false;
  RunCompQueue(inst);
  if (inst->status == WorkflowState::kExecuting) Pump(inst);
}

void WorkflowEngine::ResolveCoordinationAtEnd(Instance* inst) {
  for (StepId step : inst->state.me().GrantedSteps()) {
    ReleaseMutexes(inst, step);
  }
  ReleaseWatchesOn(&ro_watch_, inst->state.id());
}

void WorkflowEngine::ReleaseWatchesOn(RoWatches* watches,
                                      const InstanceId& ended) {
  // Ordering against an ended instance is trivially satisfied.
  std::vector<std::pair<InstanceId, rules::EventToken>> to_deliver;
  for (auto it = watches->begin(); it != watches->end();) {
    if (it->first.first == ended) {
      to_deliver.insert(to_deliver.end(), it->second.begin(),
                        it->second.end());
      it = watches->erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& [watcher, token] : to_deliver) {
    DeliverCoordinationEvent(watcher, token);
  }
}

void WorkflowEngine::Commit(Instance* inst) {
  obs::Tracer& tr = ctx_->tracer();
  if (tr.enabled()) {
    tr.End(obs::SpanKind::kInstance, id_, inst->state.id(), kInvalidStep,
           "instance", 0, "committed");
  }
  inst->status = WorkflowState::kCommitted;
  PersistInstanceStatus(*inst);
  BroadcastCoordination(inst, "coord.end");
  tracker().OnInstanceEnd(inst->state.id());
  ++committed_count_;
  ctx_->metrics().AddCounter("wf.committed", 1);
  ResolveCoordinationAtEnd(inst);
  // Compensation still queued (e.g. of a switched-away branch) finishes
  // before the instance is retired.
  InstanceId id = inst->state.id();
  if (!inst->comp_running && inst->comp_queue.empty()) {
    Retire(id);
  } else {
    EnqueueBarrier(inst, [this, id]() { Retire(id); });
  }
}

void WorkflowEngine::Retire(const InstanceId& instance) {
  auto it = instances_.find(instance);
  const Instance& inst = *it->second;
  ArchiveRecord& record = archive_[instance];
  record.status = inst.status;
  const std::map<std::string, Value>& data = inst.state.data();
  BinWriter w(&record.data, storage::FieldsBound(data));
  storage::WriteFields(w, data);
  w.Finish();
  record.data.shrink_to_fit();
  retired_.push_back(std::move(it->second));
  instances_.erase(it);
}

Status WorkflowEngine::AbortWorkflow(const InstanceId& instance) {
  WorkflowState state = QueryStatus(instance);
  if (state == WorkflowState::kUnknown) {
    return Status::NotFound("unknown instance " + instance.ToString());
  }
  if (state == WorkflowState::kCommitted) {
    return Status::FailedPrecondition(
        "instance " + instance.ToString() + " already committed");
  }
  Instance* inst = Find(instance);
  if (inst == nullptr || inst->status != WorkflowState::kExecuting) {
    return Status::FailedPrecondition("instance not executing");
  }
  DoAbort(inst);
  return Status::OK();
}

void WorkflowEngine::DoAbort(Instance* inst) {
  obs::Tracer& tr = ctx_->tracer();
  if (tr.enabled()) {
    tr.End(obs::SpanKind::kInstance, id_, inst->state.id(), kInvalidStep,
           "instance", static_cast<int>(sim::MsgCategory::kAbort),
           "aborted");
  }
  inst->state.set_mode(sim::MsgCategory::kAbort);
  inst->status = WorkflowState::kAborted;
  PersistInstanceStatus(*inst);
  BroadcastCoordination(inst, "coord.end");
  inst->state.PostEvent(rules::event::WorkflowAbortToken());

  // Quiesce: bump the epoch so in-flight replies become stale.
  inst->state.set_epoch(inst->state.epoch() + 1);

  // Release the instance's locks and free anyone ordered behind it.
  ResolveCoordinationAtEnd(inst);

  // Compensate executed steps marked compensate_on_abort, reverse order.
  const model::Schema& schema = inst->state.schema()->schema();
  std::vector<StepId> to_comp;
  for (StepId step = 1; step <= schema.num_steps(); ++step) {
    if (!schema.step(step).compensate_on_abort) continue;
    const StepRecord* record = inst->state.FindStepRecord(step);
    if (record != nullptr && record->state == StepRunState::kDone) {
      to_comp.push_back(step);
    }
  }
  if (!to_comp.empty()) {
    ctx_->metrics().AddLoad(
        id_, sim::LoadCategory::kAbort,
        static_cast<int64_t>(to_comp.size()) * options_.navigation_load);
  }
  EnqueueLatestFirst(inst, std::move(to_comp));
  InstanceId id = inst->state.id();
  EnqueueBarrier(inst, [this, id]() {
    tracker().OnInstanceEnd(id);
    ++aborted_count_;
    ctx_->metrics().AddCounter("wf.aborted", 1);
    Retire(id);
  });
  RunCompQueue(inst);
}

Status WorkflowEngine::ChangeInputs(const InstanceId& instance,
                                    std::map<std::string, Value> new_inputs) {
  WorkflowState state = QueryStatus(instance);
  if (state == WorkflowState::kUnknown) {
    return Status::NotFound("unknown instance " + instance.ToString());
  }
  if (state != WorkflowState::kExecuting) {
    return Status::FailedPrecondition(
        "instance " + instance.ToString() + " is " +
        runtime::WorkflowStateName(state));
  }
  Instance* inst = Find(instance);
  if (inst == nullptr) return Status::NotFound("instance state missing");

  // Identify changed items, merge, and find the earliest affected step.
  std::set<std::string> changed;
  for (const auto& [name, value] : new_inputs) {
    std::optional<Value> old = inst->state.GetData(name);
    if (!old.has_value() || !(*old == value)) changed.insert(name);
    inst->state.SetData(name, value);
  }
  if (changed.empty()) return Status::OK();

  StepId origin = kInvalidStep;
  for (StepId step : inst->state.schema()->topo_order()) {
    const model::Step& spec = inst->state.schema()->schema().step(step);
    bool affected = false;
    for (const std::string& input : spec.inputs) {
      if (changed.count(input)) {
        affected = true;
        break;
      }
    }
    if (!affected) continue;
    const StepRecord* record = inst->state.FindStepRecord(step);
    if (record != nullptr && (record->state == StepRunState::kDone ||
                              record->in_flight)) {
      origin = step;
      break;
    }
    // First consumer not yet executed: it will pick the new values up
    // naturally; nothing to roll back.
    return Status::OK();
  }
  if (origin == kInvalidStep) return Status::OK();

  Rollback(inst, origin, sim::MsgCategory::kInputChange);
  return Status::OK();
}

WorkflowState WorkflowEngine::QueryStatus(const InstanceId& instance) const {
  if (const Instance* inst = Find(instance)) return inst->status;
  auto it = archive_.find(instance);
  return it == archive_.end() ? WorkflowState::kUnknown : it->second.status;
}

std::map<std::string, Value> WorkflowEngine::FinalData(
    const InstanceId& instance) const {
  if (const Instance* inst = Find(instance)) return inst->state.data();
  std::map<std::string, Value> data;
  auto it = archive_.find(instance);
  if (it != archive_.end() && !it->second.data.empty()) {
    BinReader r(it->second.data);
    if (!storage::ReadFields(r, &data)) {
      CREW_LOG(Error) << "engine " << id_ << ": corrupt archive record of "
                      << instance.ToString();
    }
  }
  return data;
}

}  // namespace crew::central
