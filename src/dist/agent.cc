#include "dist/agent.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <set>

#include "common/logging.h"
#include "rules/event.h"
#include "runtime/wire.h"

namespace crew::dist {

using runtime::StepRecord;
using runtime::StepRunState;
using runtime::WorkflowState;

namespace {

/// Deletes the rows of `table` keyed `<prefix><number>`: one instance's
/// step or group rows, which sort together from the prefix on.
void DeleteNumberedRows(storage::Table& table, const std::string& prefix) {
  const std::map<std::string, storage::Row>& rows = table.rows();
  for (auto it = rows.lower_bound(prefix);
       it != rows.end() && it->first.compare(0, prefix.size(), prefix) == 0;) {
    const std::string key = (it++)->first;
    if (key.find_first_not_of("0123456789", prefix.size()) ==
        std::string::npos) {
      table.Delete(key);
    }
  }
}

/// Erases the entries of `map`, keyed (instance, step), of `instance`.
template <typename Map>
void EraseInstanceKeys(Map& map, const InstanceId& instance) {
  map.erase(map.lower_bound({instance, std::numeric_limits<StepId>::min()}),
            map.upper_bound({instance, std::numeric_limits<StepId>::max()}));
}

}  // namespace

Agent::Agent(NodeId id, sim::Context* context,
             const runtime::ProgramRegistry* programs,
             const model::Deployment* deployment,
             const runtime::CoordinationSpec* coordination,
             std::vector<NodeId> all_agents, AgentOptions options)
    : id_(id),
      ctx_(context),
      programs_(programs),
      deployment_(deployment),
      coordination_(coordination),
      all_agents_(std::move(all_agents)),
      options_(std::move(options)),
      rng_(context->rng().Fork()),
      agdb_("agdb-" + std::to_string(id)) {
  ctx_->network().Register(id_, this);
  if (!options_.agdb_dir.empty()) {
    Status status = agdb_.Recover(options_.agdb_dir);
    if (status.ok()) status = agdb_.OpenDurable(options_.agdb_dir);
    if (!status.ok()) {
      CREW_LOG(Error) << "AGDB durability disabled for agent " << id_
                      << ": " << status.ToString();
    }
  }
}

void Agent::RegisterSchema(model::CompiledSchemaPtr schema) {
  schemas_[schema->schema().name()] = std::move(schema);
  // A recovered AGDB may hold executing instances of this schema whose
  // coordination state could not be rebuilt until now.
  RebuildFromAgdb();
}

model::CompiledSchemaPtr Agent::FindSchema(const std::string& workflow) {
  auto it = schemas_.find(workflow);
  return it == schemas_.end() ? nullptr : it->second;
}

Agent::AgentInstance* Agent::FindInstance(const InstanceId& instance) {
  auto it = instances_.find(instance);
  return it == instances_.end() ? nullptr : it->second.get();
}

Agent::AgentInstance* Agent::GetOrCreateInstance(
    const InstanceId& instance) {
  AgentInstance* existing = FindInstance(instance);
  if (existing != nullptr) return existing;
  // A late message for an instance this agent already purged must not
  // re-create it: such a replica would never run a step or be purged.
  if (ended_instances_.count(instance) > 0) return nullptr;
  model::CompiledSchemaPtr schema = FindSchema(instance.workflow);
  if (schema == nullptr) return nullptr;
  auto inst = std::make_unique<AgentInstance>();
  inst->state = runtime::InstanceState(instance, std::move(schema));
  AgentInstance* raw = inst.get();
  instances_[instance] = std::move(inst);
  return raw;
}

void Agent::Send(NodeId to, const std::string& type,
                 const std::string& payload, sim::MsgCategory category) {
  if (to == id_) {
    // Self-delivery: defer through the event queue. This costs no
    // network message and — crucially — never re-enters handler state
    // that is still live on the call stack (a synchronous self-call
    // could, e.g., purge the instance the caller is working on).
    sim::Message self{id_, id_, type, payload, category};
    ctx_->queue().ScheduleAfter(0, [this, self]() {
      HandleMessage(self);
    });
    return;
  }
  sim::Message out{id_, to, type, payload, category};
  Status status = ctx_->network().Send(std::move(out));
  if (!status.ok()) {
    CREW_LOG(Error) << "agent " << id_ << " send failed: "
                    << status.ToString();
  }
}

NodeId Agent::CoordinationAgentOf(const AgentInstance& inst) const {
  // A placed instance carries its coordination agent in every packet;
  // the static eligible-first rule is the fallback for state that
  // predates the placement decision's arrival.
  NodeId placed = inst.state.coordinator();
  if (placed != kInvalidNode) return placed;
  const std::vector<NodeId>& eligible = deployment_->Eligible(
      inst.state.id().workflow, inst.state.schema()->schema().start_step());
  return eligible.empty() ? kInvalidNode : eligible.front();
}

NodeId Agent::ExecutorOf(const InstanceId& instance, StepId step) {
  if (AgentInstance* inst = FindInstance(instance)) {
    auto by = inst->state.executed_by().find(step);
    if (by != inst->state.executed_by().end()) return by->second;
  }
  const std::vector<NodeId>& eligible =
      deployment_->Eligible(instance.workflow, step);
  return eligible.empty() ? kInvalidNode : eligible.front();
}

NodeId Agent::MutexArbiter(const runtime::MutexReq& req) const {
  if (req.critical_steps.empty()) return kInvalidNode;
  const auto& [workflow, step] = req.critical_steps.front();
  const std::vector<NodeId>& eligible =
      deployment_->Eligible(workflow, step);
  if (eligible.empty()) return kInvalidNode;
  return *std::min_element(eligible.begin(), eligible.end());
}

void Agent::HandleMessage(const sim::Message& message) {
  using namespace runtime::wi;
  const std::string& type = message.type;
  if (type == kStepExecute) return OnStepExecute(message);
  if (type == kWorkflowStart) return OnWorkflowStart(message);
  if (type == kStepCompleted) return OnStepCompleted(message);
  if (type == kWorkflowRollback) return OnWorkflowRollback(message);
  if (type == kHaltThread) return OnHaltThread(message);
  if (type == kCompensateSet) return OnCompensateSet(message);
  if (type == kCompensateThread) return OnCompensateThread(message);
  if (type == kStepCompensate) return OnStepCompensate(message);
  if (type == kWorkflowAbort) return OnWorkflowAbort(message);
  if (type == kWorkflowChangeInputs) return OnWorkflowChangeInputs(message);
  if (type == kInputsChanged) return OnInputsChanged(message);
  if (type == kWorkflowStatus) return OnWorkflowStatus(message);
  if (type == kStepStatus) return OnStepStatus(message);
  if (type == kStepStatusReply) return OnStepStatusReply(message);
  if (type == kStateInformation) return OnStateInformation(message);
  if (type == kAddRule) return OnAddRule(message);
  if (type == kAddEvent) return OnAddEvent(message);
  if (type == kPurgeInstances) return OnPurgeInstances(message);
  if (type == kStateInformationReply) return;  // load gossip; no action
  if (type == kWorkflowStatusReply) {
    // A child workflow we launched ended. Commits arrive as
    // StepCompleted; an *abort* reply means the parent step failed.
    Result<runtime::WorkflowStatusReplyMsg> parsed =
        runtime::WorkflowStatusReplyMsg::Parse(message.payload);
    if (!parsed.ok()) return;
    auto child = children_.find(parsed.value().instance);
    if (child == children_.end()) return;
    if (parsed.value().state != WorkflowState::kAborted) return;
    const auto& [parent_id, parent_step] = child->second;
    AgentInstance* parent = FindInstance(parent_id);
    children_.erase(child);
    if (parent == nullptr) return;
    StepRecord& record = parent->state.step_record(parent_step);
    if (!record.in_flight) return;
    record.in_flight = false;
    record.state = StepRunState::kFailed;
    OnStepFailedLocal(parent, parent_step);
    return;
  }
  CREW_LOG(Warn) << "agent " << id_ << " ignoring message type " << type;
}

// ---------------------------------------------------------------------
// Coordination-agent role
// ---------------------------------------------------------------------

void Agent::OnWorkflowStart(const sim::Message& message) {
  Result<runtime::WorkflowStartMsg> parsed =
      runtime::WorkflowStartMsg::Parse(message.payload);
  if (!parsed.ok()) {
    CREW_LOG(Error) << "bad WorkflowStart: " << parsed.status().ToString();
    return;
  }
  const runtime::WorkflowStartMsg& msg = parsed.value();
  model::CompiledSchemaPtr schema = FindSchema(msg.instance.workflow);
  if (schema == nullptr) {
    CREW_LOG(Error) << "agent " << id_ << ": unknown schema "
                    << msg.instance.workflow;
    return;
  }

  CoordInstance& coord = coordinating_[msg.instance];
  coord.schema = schema;
  coord.status = WorkflowState::kExecuting;
  coord.reply_to = msg.reply_to;
  coord.parent = msg.parent;
  coord.parent_step = msg.parent_step;
  coord.started_at = ctx_->now();
  // Per-node admission count: the cluster imbalance metric (max/mean
  // wf routed) is computed from these after the shard merge.
  ctx_->metrics().AddCounter("placement.wf.n" + std::to_string(id_), 1);
  // The coordination agent owns the instance's end-to-end span.
  obs::Tracer& tr = ctx_->tracer();
  if (tr.enabled()) {
    tr.Begin(obs::SpanKind::kInstance, id_, msg.instance, kInvalidStep,
             "instance");
  }
  {
    storage::Row row;
    row.Set("status", Value(std::string("executing")));
    // Enough to rebuild the CoordInstance after a crash-restart.
    row.Set("reply_to", Value(static_cast<int64_t>(msg.reply_to)));
    if (!msg.parent.workflow.empty()) {
      row.Set("parent", Value(msg.parent.ToString()));
      row.Set("parent_step", Value(static_cast<int64_t>(msg.parent_step)));
    }
    agdb_.table("coord_summary").Put(msg.instance.ToString(), row);
  }

  AgentInstance* inst = GetOrCreateInstance(msg.instance);
  if (inst == nullptr) return;
  // The front end placed the instance here: record the decision so
  // every outgoing packet carries it.
  inst->state.set_coordinator(id_);
  for (const auto& [name, value] : msg.inputs) {
    inst->state.SetData(name, value);
  }
  inst->state.MergeRoLinks(msg.ro_links);
  inst->state.MergeRdLinks(msg.rd_links);
  ApplyRoGating(inst);

  inst->state.PostEvent(rules::event::WorkflowStartToken());
  ctx_->metrics().AddLoad(id_, sim::LoadCategory::kNavigation,
                                options_.navigation_load);
  Pump(inst);
}

void Agent::OnStepCompleted(const sim::Message& message) {
  Result<runtime::StepCompletedMsg> parsed =
      runtime::StepCompletedMsg::Parse(message.payload);
  if (!parsed.ok()) return;
  const runtime::StepCompletedMsg& msg = parsed.value();

  // Nested-workflow completion: the child's coordination agent reports
  // to the parent-step executor (this agent). Complete the parent step.
  AgentInstance* parent = FindInstance(msg.instance);
  const model::Schema* parent_schema =
      parent != nullptr ? &parent->state.schema()->schema() : nullptr;
  if (parent_schema != nullptr && parent_schema->has_step(msg.step) &&
      parent_schema->step(msg.step).kind == model::StepKind::kSubWorkflow) {
    StepRecord& record = parent->state.step_record(msg.step);
    if (!record.in_flight) return;  // stale (halted meanwhile)
    record.in_flight = false;
    // The child's results plus the step's own "done" output.
    parent->state.MergeData(msg.results);
    parent->state.RecordSuccess(msg.step, id_, {{"O1", Value(int64_t{1})}},
                                record.prev_inputs);
    PersistStepRecord(msg.instance, msg.step);
    OnStepDoneLocal(parent, msg.step, /*reused=*/false);
    return;
  }

  auto it = coordinating_.find(msg.instance);
  if (it == coordinating_.end()) return;
  CoordInstance& coord = it->second;
  if (coord.status != WorkflowState::kExecuting) return;

  int group = coord.schema->terminal_group_of(msg.step);
  if (group < 0) return;
  int64_t& best = coord.groups_done[group];
  best = std::max(best, msg.epoch);
  {
    // Journal the commit-progress vector: a restarted coordination agent
    // must not wait forever for terminal groups that already reported.
    storage::Row row;
    row.Set("epoch", Value(best));
    agdb_.table("coord_groups")
        .Put(msg.instance.ToString() + "/G" + std::to_string(group), row);
  }
  for (const auto& [name, value] : msg.results) {
    coord.results[name] = value;
  }
  ctx_->metrics().AddLoad(id_, sim::LoadCategory::kNavigation,
                                options_.navigation_load);
  MaybeCommit(msg.instance);
}

void Agent::MaybeCommit(const InstanceId& instance) {
  auto it = coordinating_.find(instance);
  if (it == coordinating_.end()) return;
  CoordInstance& coord = it->second;
  if (coord.status != WorkflowState::kExecuting) return;
  if (static_cast<int>(coord.groups_done.size()) <
      coord.schema->num_terminal_groups()) {
    return;
  }
  // Committed: make it permanent and let everyone purge (§4.2).
  obs::Tracer& tr = ctx_->tracer();
  if (tr.enabled()) {
    tr.End(obs::SpanKind::kInstance, id_, instance, kInvalidStep,
           "instance", 0, "committed");
  }
  coord.status = WorkflowState::kCommitted;
  {
    storage::Row row;
    row.Set("status", Value(std::string("committed")));
    agdb_.table("coord_summary").Put(instance.ToString(), row);
  }
  ++committed_count_;
  ctx_->metrics().AddCounter("wf.committed", 1);
  ctx_->metrics()
      .Latency("wf.sojourn_ticks")
      .Add(ctx_->now() - coord.started_at);

  if (!coord.parent.workflow.empty()) {
    // Nested workflow: hand the completion to the parent step's agent.
    runtime::StepCompletedMsg done;
    done.instance = coord.parent;
    done.step = coord.parent_step;
    done.epoch = 0;
    for (const auto& [name, value] : coord.results) {
      done.results["S" + std::to_string(coord.parent_step) + ".sub." +
                   name] = value;
    }
    Send(coord.reply_to, runtime::wi::kStepCompleted, done.Serialize(),
         sim::MsgCategory::kNormal);
  } else {
    ReplyStatus(coord.reply_to, instance, WorkflowState::kCommitted);
  }
  Purge(instance);
}

std::vector<NodeId> Agent::PurgeTargets(const InstanceId& instance) {
  model::CompiledSchemaPtr schema = FindSchema(instance.workflow);
  if (schema == nullptr) return all_agents_;
  // Every agent that could hold state for this instance is eligible
  // for some step: executors (ElectedExecutor picks among eligibles),
  // the coordination agent (eligible for the start step), mutex
  // arbiters (min eligible of a critical step), and RO registration
  // sites (eligible for the leading instance's lead step).
  std::set<NodeId> footprint;
  const model::Schema& s = schema->schema();
  for (StepId step = 1; step <= s.num_steps(); ++step) {
    for (NodeId agent : deployment_->Eligible(instance.workflow, step)) {
      footprint.insert(agent);
    }
  }
  return std::vector<NodeId>(footprint.begin(), footprint.end());
}

void Agent::Purge(const InstanceId& instance) {
  runtime::PurgeInstancesMsg purge;
  purge.committed.push_back(instance);
  for (NodeId agent : PurgeTargets(instance)) {
    if (agent == id_) continue;
    Send(agent, runtime::wi::kPurgeInstances, purge.Serialize(),
         sim::MsgCategory::kAdmin);
  }
  PurgeLocal(instance);
}

void Agent::PurgeLocal(const InstanceId& instance) {
  ended_instances_.insert(instance);
  auto found = instances_.find(instance);
  if (found != instances_.end()) {
    // The instance can end while a re-execution of a mutex step holds
    // the lock; without a release the arbiter would queue every later
    // request behind a holder that never finishes.
    AgentInstance* inst = found->second.get();
    for (StepId step : inst->state.me().GrantedSteps()) {
      ReleaseMutexesDistributed(inst, step);
    }
    instances_.erase(found);
  }
  const std::string key = instance.ToString();
  DeleteNumberedRows(agdb_.table("steps"), key + "/S");
  auto coord = coordinating_.find(instance);
  if (coord != coordinating_.end()) {
    ArchiveRecord& record = archive_[instance];
    record.status = coord->second.status;
    record.reply_to = coord->second.reply_to;
    if (record.status == WorkflowState::kCommitted) {
      const std::map<std::string, Value>& results = coord->second.results;
      BinWriter w(&record.results, storage::FieldsBound(results));
      storage::WriteFields(w, results);
      w.Finish();
      record.results.shrink_to_fit();
    }
    coordinating_.erase(coord);
    DeleteNumberedRows(agdb_.table("coord_groups"), key + "/G");
  }
  // Its predecessor-failure polls and the children it launched here.
  EraseInstanceKeys(polls_, instance);
  EraseInstanceKeys(last_poll_, instance);
  std::erase_if(children_, [&instance](const auto& child) {
    return child.second.first == instance;
  });
  // Registrations on an ended instance: ordering trivially satisfied.
  for (auto it = ro_registrations_.begin();
       it != ro_registrations_.end();) {
    if (it->first.first == instance) {
      for (const auto& [registrant, token] : it->second) {
        SendRoNotice(registrant, instance, token);
      }
      it = ro_registrations_.erase(it);
    } else {
      ++it;
    }
  }
}

void Agent::OnPurgeInstances(const sim::Message& message) {
  Result<runtime::PurgeInstancesMsg> parsed =
      runtime::PurgeInstancesMsg::Parse(message.payload);
  if (!parsed.ok()) return;
  for (const InstanceId& instance : parsed.value().committed) {
    PurgeLocal(instance);
  }
}

void Agent::OnWorkflowStatus(const sim::Message& message) {
  Result<runtime::WorkflowStatusMsg> parsed =
      runtime::WorkflowStatusMsg::Parse(message.payload);
  if (!parsed.ok()) return;
  ReplyStatus(parsed.value().reply_to, parsed.value().instance,
              CoordinationStatus(parsed.value().instance));
}

void Agent::ReplyStatus(NodeId to, const InstanceId& instance,
                        WorkflowState state) {
  if (to == kInvalidNode) return;
  runtime::WorkflowStatusReplyMsg reply;
  reply.instance = instance;
  reply.state = state;
  Send(to, runtime::wi::kWorkflowStatusReply, reply.Serialize(),
       sim::MsgCategory::kAdmin);
}

runtime::WorkflowState Agent::CoordinationStatus(
    const InstanceId& instance) const {
  auto live = coordinating_.find(instance);
  if (live != coordinating_.end()) return live->second.status;
  auto it = archive_.find(instance);
  return it == archive_.end() ? WorkflowState::kUnknown : it->second.status;
}

std::map<std::string, Value> Agent::ArchivedData(
    const InstanceId& instance) const {
  std::map<std::string, Value> results;
  auto it = archive_.find(instance);
  if (it != archive_.end() && !it->second.results.empty()) {
    BinReader r(it->second.results);
    if (!storage::ReadFields(r, &results)) {
      CREW_LOG(Error) << "agent " << id_ << ": corrupt archive record of "
                      << instance.ToString();
    }
  }
  return results;
}

void Agent::OnWorkflowAbort(const sim::Message& message) {
  Result<runtime::WorkflowAbortMsg> parsed =
      runtime::WorkflowAbortMsg::Parse(message.payload);
  if (!parsed.ok()) return;
  const InstanceId& instance = parsed.value().instance;
  auto it = coordinating_.find(instance);
  if (it == coordinating_.end()) {
    // Purged: the archive record answers as the live entry did.
    auto archived = archive_.find(instance);
    if (archived != archive_.end()) {
      ReplyStatus(archived->second.reply_to, instance,
                  archived->second.status);
    }
    return;
  }
  CoordInstance& coord = it->second;
  // "The abort request can be processed as long as the workflow has not
  // been committed" (§5.2).
  if (coord.status != WorkflowState::kExecuting) {
    ReplyStatus(coord.reply_to, instance, coord.status);
    return;
  }
  obs::Tracer& tr = ctx_->tracer();
  if (tr.enabled()) {
    tr.End(obs::SpanKind::kInstance, id_, instance, kInvalidStep,
           "instance", static_cast<int>(sim::MsgCategory::kAbort),
           "aborted");
  }
  coord.status = WorkflowState::kAborted;
  {
    storage::Row row;
    row.Set("status", Value(std::string("aborted")));
    agdb_.table("coord_summary").Put(instance.ToString(), row);
  }
  ++aborted_count_;
  ctx_->metrics().AddCounter("wf.aborted", 1);

  // Compensate the schema-designated steps. The coordination agent does
  // not know where each step executed, so it messages *all* eligible
  // agents (the paper's 2·w·pa·a cost).
  const model::Schema& schema = coord.schema->schema();
  int64_t abort_epoch = 0;
  AgentInstance* local = FindInstance(instance);
  if (local != nullptr) {
    abort_epoch = local->state.epoch() + 1;
  }
  for (StepId step = 1; step <= schema.num_steps(); ++step) {
    if (!schema.step(step).compensate_on_abort) continue;
    ctx_->metrics().AddLoad(id_, sim::LoadCategory::kAbort,
                                  options_.navigation_load);
    runtime::StepCompensateMsg comp;
    comp.instance = instance;
    comp.step = step;
    comp.epoch = abort_epoch;
    for (NodeId agent : deployment_->Eligible(instance.workflow, step)) {
      if (agent == id_) {
        // Local shortcut: compensate here if we executed it.
        if (local != nullptr &&
            local->state.StepState(step) == StepRunState::kDone) {
          CompensateLocal(local, step, []() {});
        }
        continue;
      }
      Send(agent, runtime::wi::kStepCompensate, comp.Serialize(),
           sim::MsgCategory::kAbort);
    }
  }

  // Halt all threads starting from the first step.
  if (local != nullptr) {
    LocalHalt(local, schema.start_step(), abort_epoch, /*propagate=*/true);
    local->state.set_mode(sim::MsgCategory::kAbort);
  }

  ReplyStatus(coord.reply_to, instance, WorkflowState::kAborted);
  // Purge later so in-flight compensations still find their state.
  InstanceId copy = instance;
  ctx_->queue().ScheduleAfter(options_.purge_delay, [this, copy]() {
    Purge(copy);
  });
}

void Agent::OnWorkflowChangeInputs(const sim::Message& message) {
  Result<runtime::WorkflowChangeInputsMsg> parsed =
      runtime::WorkflowChangeInputsMsg::Parse(message.payload);
  if (!parsed.ok()) return;
  const runtime::WorkflowChangeInputsMsg& msg = parsed.value();
  auto it = coordinating_.find(msg.instance);
  if (it == coordinating_.end()) return;
  CoordInstance& coord = it->second;
  if (coord.status != WorkflowState::kExecuting) return;

  // Earliest step (topologically) consuming a changed input.
  StepId origin = kInvalidStep;
  for (StepId step : coord.schema->topo_order()) {
    for (const std::string& input :
         coord.schema->schema().step(step).inputs) {
      if (msg.new_inputs.count(input) > 0) {
        origin = step;
        break;
      }
    }
    if (origin != kInvalidStep) break;
  }
  if (origin == kInvalidStep) {
    // No step consumes the changed items; only the data table changes.
    AgentInstance* inst = FindInstance(msg.instance);
    if (inst != nullptr) inst->state.MergeData(msg.new_inputs);
    return;
  }

  // Relay as InputsChanged to every agent eligible for the origin step
  // (the coordination agent cannot know which one executed it).
  runtime::WorkflowChangeInputsMsg relay = msg;
  relay.origin_step = origin;
  for (NodeId agent :
       deployment_->Eligible(msg.instance.workflow, origin)) {
    ctx_->metrics().AddLoad(id_, sim::LoadCategory::kInputChange,
                                  options_.navigation_load);
    Send(agent, runtime::wi::kInputsChanged, relay.Serialize(),
           sim::MsgCategory::kInputChange);
  }
}

void Agent::OnInputsChanged(const sim::Message& message) {
  Result<runtime::WorkflowChangeInputsMsg> parsed =
      runtime::WorkflowChangeInputsMsg::Parse(message.payload);
  if (!parsed.ok()) return;
  const runtime::WorkflowChangeInputsMsg& msg = parsed.value();
  AgentInstance* inst = FindInstance(msg.instance);
  if (inst == nullptr) return;
  inst->state.MergeData(msg.new_inputs);
  StepId origin = msg.origin_step;
  if (origin == kInvalidStep) return;
  const StepRecord* record = inst->state.FindStepRecord(origin);
  if (record == nullptr || (record->state != StepRunState::kDone &&
                            !record->in_flight)) {
    // Origin not executed here (or anywhere yet): new data will be used
    // naturally when the step runs.
    return;
  }
  // Behave as the rollback target agent: halt downstream and re-execute
  // with the OCR strategy.
  inst->state.set_mode(sim::MsgCategory::kInputChange);
  int64_t new_epoch = inst->state.epoch() + 1;
  LocalHalt(inst, origin, new_epoch, /*propagate=*/true);
  Pump(inst);
}

// ---------------------------------------------------------------------
// Execution-agent role: packets, rules, programs
// ---------------------------------------------------------------------

void Agent::OnStepExecute(const sim::Message& message) {
  Result<runtime::StepExecuteMsg> parsed =
      runtime::StepExecuteMsg::Parse(message.payload);
  if (!parsed.ok()) {
    CREW_LOG(Error) << "bad StepExecute: " << parsed.status().ToString();
    return;
  }
  const runtime::WorkflowPacket& packet = parsed.value().packet;
  AgentInstance* inst = GetOrCreateInstance(packet.instance);
  if (inst == nullptr) return;
  if (packet.epoch < inst->state.epoch()) return;  // stale epoch

  inst->state.MergePacket(packet);
  ApplyRoGating(inst);
  ctx_->metrics().AddLoad(id_, sim::LoadCategory::kNavigation,
                                options_.navigation_load);

  // Comp-dep-set resume: the chain finished and handed execution back.
  if (inst->awaiting_comp_resume.count(packet.target_step) > 0) {
    inst->awaiting_comp_resume.erase(packet.target_step);
    StepId step = packet.target_step;
    // Planned before the step's own compensation, as the empty-chain
    // path does: afterwards its record reads compensated, and the rerun
    // would be charged as a first execution.
    const double fraction =
        runtime::PlanOcr(inst->state.schema()->schema().step(step),
                         inst->state)
            .exec_fraction;
    CompensateLocal(inst, step, [this, inst, step, fraction]() {
      RunProgramLocal(inst, step, fraction);
    });
    return;
  }

  Pump(inst);

  // Failure-protocol safety net: a re-requested step's firing rule may
  // already have consumed its trigger stamps at this agent (the packet
  // was fanned out earlier and the elected executor then died). If the
  // target step should run, is not running anywhere we know of, and we
  // are the (living) elected executor, start it directly.
  StepId target = packet.target_step;
  if (inst->state.schema()->schema().has_step(target)) {
    const StepRecord* record = inst->state.FindStepRecord(target);
    bool done_now =
        inst->state.EventValid(rules::event::StepDoneToken(target));
    if (!done_now && (record == nullptr || !record->in_flight) &&
        !inst->state.starting(target) &&
        ElectedExecutor(inst, target) && inst->state.Triggerable(target)) {
      StartStepLocal(inst, target);
    }
  }

  SchedulePendingCheck(packet.instance);
}

void Agent::Pump(AgentInstance* inst) {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (StepId step : inst->state.FireableSteps()) {
      if (!ElectedExecutor(inst, step)) continue;
      progressed = true;
      StartStepLocal(inst, step);
    }
  }
}

bool Agent::ElectedExecutor(AgentInstance* inst, StepId step) {
  const std::vector<NodeId>& eligible =
      deployment_->Eligible(inst->state.id().workflow, step);
  if (eligible.empty()) return false;
  // The start step always runs at the coordination agent — it is the
  // only agent that received WorkflowStart (§4.1).
  if (step == inst->state.schema()->schema().start_step()) {
    return CoordinationAgentOf(*inst) == id_;
  }
  if (eligible.size() == 1) return eligible[0] == id_;

  // OCR locality: a step re-executes at the agent that holds its history.
  auto it = inst->state.executed_by().find(step);
  if (it != inst->state.executed_by().end()) {
    if (std::find(eligible.begin(), eligible.end(), it->second) !=
        eligible.end()) {
      if (!ctx_->network().IsNodeDown(it->second)) {
        return it->second == id_;
      }
    }
  }

  // Deterministic leader election among the eligible agents: everyone
  // computes the same pick, skipping down agents (§4.2 / §5.2). Optional
  // StateInformation probes model the paper's load exchange.
  if (options_.election_probes) {
    for (NodeId other : eligible) {
      if (other == id_) continue;
      runtime::StateInformationMsg probe;
      probe.reply_to = id_;
      probe.instance = inst->state.id();
      probe.step = step;
      Send(other, runtime::wi::kStateInformation, probe.Serialize(),
           sim::MsgCategory::kElection);
    }
  }
  NodeId elected = ElectAmongLiving(inst->state.id(), step);
  if (elected == kInvalidNode) {
    elected = eligible[static_cast<size_t>(inst->state.id().number + step) %
                       eligible.size()];
  }
  return elected == id_;
}

NodeId Agent::ElectAmongLiving(const InstanceId& instance,
                               StepId step) const {
  std::vector<NodeId> up;
  for (NodeId agent : deployment_->Eligible(instance.workflow, step)) {
    if (!ctx_->network().IsNodeDown(agent)) up.push_back(agent);
  }
  if (up.empty()) return kInvalidNode;
  return up[static_cast<size_t>(instance.number + step) % up.size()];
}

void Agent::StartStepLocal(AgentInstance* inst, StepId step) {
  if (ended_instances_.count(inst->state.id()) > 0) return;
  // A step awaiting its comp-dep resume has started already.
  if (inst->awaiting_comp_resume.count(step) > 0) return;
  obs::Tracer& tr = ctx_->tracer();
  if (!runtime::BeginStep(tr, id_, &inst->state, step)) return;
  // Blocked: resumed when the grant arrives.
  if (!runtime::PassMutexGate(tr, id_, &inst->state, step,
                              AcquireMutexesDistributed(inst, step))) {
    return;
  }
  const model::CompiledSchema& schema = *inst->state.schema();
  const model::Step& spec = schema.schema().step(step);
  if (spec.kind == model::StepKind::kSubWorkflow) {
    LaunchSubWorkflow(inst, step);
    return;
  }

  runtime::OcrPlan plan = runtime::PlanStep(tr, id_, &inst->state, spec);
  if (plan.decision == runtime::OcrDecision::kReuse) {
    OnStepDoneLocal(inst, step, /*reused=*/true);
    return;
  }
  if (!plan.compensate_first) {
    RunProgramLocal(inst, step, plan.exec_fraction);
    return;
  }
  // Compensation dependent sets: members executed after this step are
  // compensated first, in reverse order, by a CompensateSet chain over the
  // agents that executed them (§5.2). The StepList is the schema's
  // declared set order; each visited agent checks its own record and
  // skips members that never executed.
  std::vector<StepId> chain;
  for (int set_index : schema.comp_dep_sets_of(step)) {
    const model::CompDepSet& set = schema.schema().comp_dep_sets()[set_index];
    bool after = false;
    for (StepId member : set.steps) {
      if (member == step) {
        after = true;
        continue;
      }
      if (after) chain.push_back(member);
    }
  }
  if (chain.empty()) {
    CompensateLocal(inst, step, [this, inst, step, plan]() {
      RunProgramLocal(inst, step, plan.exec_fraction);
    });
    return;
  }
  // Reverse declared order: last member first.
  std::reverse(chain.begin(), chain.end());
  NodeId first = ExecutorOf(inst->state.id(), chain.front());
  if (first == kInvalidNode) {
    inst->state.EndStart(step);
    return;
  }
  runtime::CompensateSetMsg msg;
  msg.instance = inst->state.id();
  msg.origin_step = step;
  msg.remaining = chain;
  msg.epoch = inst->state.epoch();
  msg.resume_agent = id_;
  msg.resume = inst->state.MakePacket(step);
  inst->awaiting_comp_resume.insert(step);
  inst->state.EndStart(step);
  ctx_->metrics().AddLoad(id_, sim::LoadCategory::kFailureHandling,
                          options_.navigation_load);
  Send(first, runtime::wi::kCompensateSet, msg.Serialize(),
       sim::MsgCategory::kFailureHandling);
}

void Agent::RunProgramLocal(AgentInstance* inst, StepId step,
                            double cost_fraction) {
  const model::Step& spec = inst->state.schema()->schema().step(step);
  StepRecord& record = inst->state.step_record(step);
  inst->state.EndStart(step);
  record.in_flight = true;
  record.attempts += 1;

  runtime::ProgramContext context;
  context.instance = inst->state.id();
  context.step = step;
  context.attempt = record.attempts;
  context.inputs = inst->state.ResolveInputs(step);
  context.rng = &rng_;

  Result<runtime::ProgramOutcome> outcome =
      programs_->Run(spec.program, context);
  bool success = outcome.ok() && outcome.value().success;
  int64_t cost = 0;
  std::map<std::string, Value> outputs;
  if (outcome.ok()) {
    outputs = outcome.value().outputs;
    int64_t base =
        outcome.value().cost > 0 ? outcome.value().cost : spec.cost;
    cost = static_cast<int64_t>(base * cost_fraction);
  }

  ++active_programs_;
  InstanceId instance = inst->state.id();
  int64_t epoch = inst->state.epoch();
  std::map<std::string, Value> inputs_snapshot = context.inputs;
  {
    obs::Tracer& tr = ctx_->tracer();
    if (tr.enabled()) {
      tr.Begin(obs::SpanKind::kProgram, id_, instance, step, "program", 0,
               spec.program);
    }
  }
  ctx_->queue().ScheduleAfter(
      options_.exec_latency,
      [this, instance, step, epoch, success, cost, outputs,
       inputs_snapshot]() {
        --active_programs_;
        obs::Tracer& tr = ctx_->tracer();
        if (tr.enabled()) {
          tr.End(obs::SpanKind::kProgram, id_, instance, step, "program", 0,
                 success ? "" : "failed");
        }
        AgentInstance* inst = FindInstance(instance);
        if (inst == nullptr) return;
        StepRecord& record = inst->state.step_record(step);
        if (ctx_->network().IsNodeDown(id_)) {
          // This agent crashed mid-step: the work is lost. The
          // predecessor-failure protocol (§5.2) recovers query steps at
          // other agents; update steps resume when we come back and the
          // step is re-driven.
          record.in_flight = false;
          return;
        }
        if (inst->state.epoch() != epoch) return;  // halted meanwhile
        if (!record.in_flight) return;  // reset by a halt
        record.in_flight = false;
        ctx_->metrics().AddLoad(id_, sim::LoadCategory::kProgram,
                                      cost);
        if (success) {
          inst->state.RecordSuccess(step, id_, outputs, inputs_snapshot);
          PersistStepRecord(instance, step);
          OnStepDoneLocal(inst, step, /*reused=*/false);
        } else {
          record.state = StepRunState::kFailed;
          PersistStepRecord(instance, step);
          OnStepFailedLocal(inst, step);
        }
      });
}

void Agent::PersistStepRecord(const InstanceId& instance, StepId step) {
  const AgentInstance* inst =
      const_cast<Agent*>(this)->FindInstance(instance);
  if (inst == nullptr) return;
  const StepRecord* record = inst->state.FindStepRecord(step);
  if (record == nullptr) return;
  storage::Row row;
  row.Set("state",
          Value(std::string(runtime::StepRunStateName(record->state))));
  row.Set("attempts", Value(static_cast<int64_t>(record->attempts)));
  row.Set("epoch", Value(record->epoch));
  agdb_.table("steps").Put(
      instance.ToString() + "/S" + std::to_string(step), row);
}

void Agent::RebuildFromAgdb() {
  const storage::Table* summary = agdb_.FindTable("coord_summary");
  if (summary == nullptr) return;
  std::vector<InstanceId> rebuilt_executing;
  for (const auto& [key, row] : summary->rows()) {
    InstanceId instance = InstanceId::Parse(key);
    if (instance.workflow.empty()) continue;
    // Live or already rebuilt.
    if (coordinating_.count(instance) != 0 || archive_.count(instance) != 0) {
      continue;
    }
    auto status = row.Get("status");
    if (!status || !status->is_string()) continue;
    WorkflowState state = runtime::ParseWorkflowState(status->AsString());
    if (state == WorkflowState::kExecuting) {
      // Needs its schema to re-arm the commit decision; retried on the
      // next RegisterSchema if it is not known yet.
      model::CompiledSchemaPtr schema = FindSchema(instance.workflow);
      if (schema == nullptr) continue;
      CoordInstance& coord = coordinating_[instance];
      coord.schema = std::move(schema);
      coord.status = WorkflowState::kExecuting;
      if (auto reply = row.Get("reply_to"); reply && reply->is_int()) {
        coord.reply_to = static_cast<NodeId>(reply->AsInt());
      }
      if (auto parent = row.Get("parent"); parent && parent->is_string()) {
        coord.parent = InstanceId::Parse(parent->AsString());
        if (auto pstep = row.Get("parent_step"); pstep && pstep->is_int()) {
          coord.parent_step = static_cast<StepId>(pstep->AsInt());
        }
      }
      rebuilt_executing.push_back(instance);
      continue;
    }
    if (state == WorkflowState::kCommitted) ++committed_count_;
    if (state == WorkflowState::kAborted) ++aborted_count_;
    archive_[instance].status = state;
  }
  if (const storage::Table* groups = agdb_.FindTable("coord_groups")) {
    for (const auto& [key, row] : groups->rows()) {
      size_t sep = key.rfind("/G");
      if (sep == std::string::npos) continue;
      InstanceId instance = InstanceId::Parse(key.substr(0, sep));
      auto it = coordinating_.find(instance);
      if (it == coordinating_.end() ||
          it->second.status != WorkflowState::kExecuting) {
        continue;
      }
      int group = std::atoi(key.c_str() + sep + 2);
      auto epoch = row.Get("epoch");
      int64_t value = epoch && epoch->is_int() ? epoch->AsInt() : 0;
      int64_t& best = it->second.groups_done[group];
      best = std::max(best, value);
    }
  }
  // A crash between the last group report and the commit record leaves a
  // fully-reported instance executing in the log; decide it now.
  for (const InstanceId& instance : rebuilt_executing) {
    MaybeCommit(instance);
  }
}

void Agent::RecoverFromLog() {
  if (!agdb_.durable()) return;
  // Everything here dies with the process; the AGDB is what survives.
  instances_.clear();
  coordinating_.clear();
  archive_.clear();
  ro_registrations_.clear();
  ended_instances_.clear();
  locks_.Clear();
  children_.clear();
  polls_.clear();
  last_poll_.clear();
  committed_count_ = 0;
  aborted_count_ = 0;
  active_programs_ = 0;
  Result<int64_t> replayed = agdb_.RestartRecover(options_.agdb_dir);
  if (!replayed.ok()) {
    CREW_LOG(Error) << "agent " << id_ << " restart recovery failed: "
                    << replayed.status().ToString();
    return;
  }
  RebuildFromAgdb();
}

void Agent::OnStepDoneLocal(AgentInstance* inst, StepId step, bool reused) {
  // Reused results keep the recovery category: they are part of the
  // rollback revisit.
  runtime::StepDone(ctx_->tracer(), id_, &inst->state, step, reused);

  ReleaseMutexesDistributed(inst, step);
  NotifyRoRegistrants(inst->state.id(), step);

  // Coordination load: every completion checks the class requirements.
  if (int n = coordination_->RequirementCount(inst->state.id().workflow)) {
    ctx_->metrics().AddLoad(id_, sim::LoadCategory::kCoordination,
                            options_.navigation_load * n);
  }

  const model::CompiledSchema& schema = *inst->state.schema();
  if (schema.is_choice_split(step)) {
    HandleBranchSwitch(inst, step);
  }

  // Rollback dependency: this instance *leads* rd-linked instances; a
  // completion never triggers them, only rollbacks do (see
  // OnWorkflowRollback / LocalHalt).

  if (schema.terminal_group_of(step) >= 0) {
    // Termination-agent role: report to the coordination agent.
    runtime::StepCompletedMsg msg;
    msg.instance = inst->state.id();
    msg.step = step;
    msg.epoch = inst->state.epoch();
    msg.results = inst->state.data();
    NodeId coordination_agent = CoordinationAgentOf(*inst);
    Send(coordination_agent, runtime::wi::kStepCompleted,
           msg.Serialize(), sim::MsgCategory::kNormal);
  }
  ForwardPackets(inst, step);
  Pump(inst);
}

void Agent::ForwardPackets(AgentInstance* inst, StepId completed_step) {
  // Control arcs: forward + back edges. Back-edge conditions are
  // evaluated by the receiving rule, so packets flow unconditionally.
  const model::CompiledSchema& schema = *inst->state.schema();
  for (const model::ControlArc* arc : schema.forward_out(completed_step)) {
    SendPacketTo(inst, arc->to,
                 deployment_->Eligible(inst->state.id().workflow,
                                       arc->to));
  }
  for (const model::ControlArc* arc : schema.back_out(completed_step)) {
    SendPacketTo(inst, arc->to,
                 deployment_->Eligible(inst->state.id().workflow,
                                       arc->to));
  }
  // Declared data arcs: cross-branch data flow rides the same packets.
  for (const model::DataArc& arc : schema.schema().data_arcs()) {
    if (arc.from != completed_step) continue;
    SendPacketTo(inst, arc.to,
                 deployment_->Eligible(inst->state.id().workflow,
                                       arc.to));
  }
}

void Agent::SendPacketTo(AgentInstance* inst, StepId target,
                         const std::vector<NodeId>& eligible) {
  if (eligible.empty()) return;
  runtime::WorkflowPacket packet = inst->state.MakePacket(target);
  std::string payload = packet.Serialize();
  for (NodeId agent : eligible) {
    inst->state.NoteForwarded(target, agent);
    // Self-delivery is deferred by Send and costs no network message.
    Send(agent, runtime::wi::kStepExecute, payload, inst->state.mode());
  }
}

void Agent::HandleBranchSwitch(AgentInstance* inst, StepId split_step) {
  StepId chosen = kInvalidStep;
  StepId old_entry = inst->state.SwitchBranch(split_step, &chosen);
  if (old_entry == kInvalidStep) return;
  // Different branch on re-execution: compensate the abandoned branch
  // with a CompensateThread walk up to the confluence (§5.2).
  const model::CompiledSchema& schema = *inst->state.schema();
  StepId confluence = kInvalidStep;
  for (StepId candidate : schema.topo_order()) {
    if (candidate != old_entry && schema.IsDownstream(old_entry, candidate) &&
        schema.IsDownstream(chosen, candidate)) {
      confluence = candidate;
      break;
    }
  }
  NodeId target = ExecutorOf(inst->state.id(), old_entry);
  if (target == kInvalidNode) return;
  runtime::CompensateThreadMsg msg;
  msg.instance = inst->state.id();
  msg.step = old_entry;
  msg.until_join = confluence;
  msg.epoch = inst->state.epoch();
  ctx_->metrics().AddLoad(id_, sim::LoadCategory::kFailureHandling,
                          options_.navigation_load);
  Send(target, runtime::wi::kCompensateThread, msg.Serialize(),
       sim::MsgCategory::kFailureHandling);
}

// ---------------------------------------------------------------------
// Failure handling: rollback, halts, compensation
// ---------------------------------------------------------------------

void Agent::OnStepFailedLocal(AgentInstance* inst, StepId step) {
  bool give_up = runtime::StepFailed(ctx_->tracer(), id_, &inst->state, step);
  ReleaseMutexesDistributed(inst, step);
  if (give_up) {
    // Give up: ask the coordination agent to abort the workflow.
    runtime::WorkflowAbortMsg abort;
    abort.instance = inst->state.id();
    NodeId coordination_agent = CoordinationAgentOf(*inst);
    ctx_->metrics().AddLoad(id_, sim::LoadCategory::kFailureHandling,
                                  options_.navigation_load);
    Send(coordination_agent, runtime::wi::kWorkflowAbort,
           abort.Serialize(), sim::MsgCategory::kAbort);
    return;
  }

  // Partial rollback (§5.2): notify the agent that executed the rollback
  // target; none of the other agents are told directly.
  StepId origin =
      inst->state.schema()->schema().step(step).failure.rollback_to;
  NodeId target = ExecutorOf(inst->state.id(), origin);
  if (target == kInvalidNode) return;
  runtime::WorkflowRollbackMsg msg;
  msg.instance = inst->state.id();
  msg.origin_step = origin;
  msg.new_epoch = inst->state.epoch() + 1;
  msg.state = inst->state.MakePacket(origin);
  ctx_->metrics().AddLoad(id_, sim::LoadCategory::kFailureHandling,
                                options_.navigation_load);
  inst->state.set_mode(sim::MsgCategory::kFailureHandling);
  Send(target, runtime::wi::kWorkflowRollback, msg.Serialize(),
         sim::MsgCategory::kFailureHandling);
}

void Agent::OnWorkflowRollback(const sim::Message& message) {
  Result<runtime::WorkflowRollbackMsg> parsed =
      runtime::WorkflowRollbackMsg::Parse(message.payload);
  if (!parsed.ok()) return;
  const runtime::WorkflowRollbackMsg& msg = parsed.value();
  AgentInstance* inst = GetOrCreateInstance(msg.instance);
  if (inst == nullptr) return;
  if (msg.new_epoch <= inst->state.epoch() &&
      inst->last_halt_epoch >= msg.new_epoch) {
    return;  // stale rollback
  }
  inst->state.MergePacket(msg.state);
  if (inst->state.mode() == sim::MsgCategory::kNormal) {
    inst->state.set_mode(message.category);
  }

  // Rollback dependencies: this instance leads rd-linked dependents.
  for (const runtime::RdLink& link : inst->state.rd_links()) {
    if (msg.origin_step > link.my_step) continue;
    obs::Tracer& tr = ctx_->tracer();
    if (tr.enabled()) {
      tr.Instant(obs::SpanKind::kCoord, id_, inst->state.id(),
                 msg.origin_step, "rd.trigger", link.other_step,
                 "dependent=" + link.other.ToString(),
                 static_cast<int>(sim::MsgCategory::kCoordination));
    }
    runtime::WorkflowRollbackMsg dep;
    dep.instance = link.other;
    dep.origin_step = link.other_step;
    dep.new_epoch = 0;  // dependent's agent computes its own epoch
    dep.state.instance = link.other;
    const std::vector<NodeId>& eligible =
        deployment_->Eligible(link.other.workflow, link.other_step);
    for (NodeId agent : eligible) {
      ctx_->metrics().AddLoad(
          id_, sim::LoadCategory::kCoordination, options_.navigation_load);
      if (agent == id_) continue;
      Send(agent, runtime::wi::kWorkflowRollback, dep.Serialize(),
           sim::MsgCategory::kCoordination);
    }
  }

  int64_t new_epoch =
      std::max(msg.new_epoch, inst->state.epoch() + 1);
  if (msg.new_epoch == 0) {
    // RD-induced rollback: only meaningful if we executed the origin and
    // the instance progressed since its last rollback (this breaks RD
    // rings and duplicate fan-out deliveries).
    const StepRecord* record =
        inst->state.FindStepRecord(msg.origin_step);
    if (record == nullptr || record->state != StepRunState::kDone) {
      return;
    }
    if (inst->last_rd_rollback_seq == inst->state.exec_seq()) return;
    inst->last_rd_rollback_seq = inst->state.exec_seq();
  } else if (!coordination_->RollbackDepsLeading(msg.instance.workflow)
                  .empty()) {
    // This class leads rollback dependencies: tell the front end (which
    // holds the global instance registry) so it can roll the dependent
    // instances back (§3). RD-induced rollbacks do not re-notify.
    runtime::AddEventMsg notice;
    notice.instance = msg.instance;
    notice.event_token = "rd.rollback:S" + std::to_string(msg.origin_step);
    Send(kFrontEndNode, runtime::wi::kAddEvent, notice.Serialize(),
         sim::MsgCategory::kCoordination);
  }
  LocalHalt(inst, msg.origin_step, new_epoch, /*propagate=*/true);
  Pump(inst);
}

void Agent::LocalHalt(AgentInstance* inst, StepId origin,
                      int64_t new_epoch, bool propagate) {
  if (inst->last_halt_epoch >= new_epoch) return;
  inst->last_halt_epoch = new_epoch;
  if (new_epoch > inst->state.epoch()) inst->state.set_epoch(new_epoch);

  // Recovery work is charged per step actually rolled back (the paper's
  // l·r accounting), not per reachable step.
  int64_t touched_steps = inst->state.ResetDownstream(origin, new_epoch);
  if (touched_steps > 0) {
    ctx_->metrics().AddLoad(id_, sim::LoadCategory::kFailureHandling,
                            touched_steps * options_.navigation_load);
  }
  obs::Tracer& tr = ctx_->tracer();
  if (tr.enabled()) {
    // One "halt" instant per node touched by the rollback; its value is
    // that node's share of rolled-back steps (rollback-depth histogram).
    tr.Instant(obs::SpanKind::kOcr, id_, inst->state.id(), origin, "halt",
               touched_steps,
               "origin=S" + std::to_string(origin) +
                   " epoch=" + std::to_string(new_epoch),
               static_cast<int>(sim::MsgCategory::kFailureHandling));
  }

  if (!propagate) return;
  // Chase the packets we already forwarded for downstream steps.
  runtime::HaltThreadMsg halt;
  halt.instance = inst->state.id();
  halt.origin_step = origin;
  halt.new_epoch = new_epoch;
  for (const auto& [step, agents] : inst->state.forwarded()) {
    if (!inst->state.schema()->IsDownstream(origin, step)) continue;
    for (NodeId agent : agents) {
      if (agent == id_) continue;
      Send(agent, runtime::wi::kHaltThread, halt.Serialize(),
           sim::MsgCategory::kFailureHandling);
    }
  }
}

void Agent::OnHaltThread(const sim::Message& message) {
  Result<runtime::HaltThreadMsg> parsed =
      runtime::HaltThreadMsg::Parse(message.payload);
  if (!parsed.ok()) return;
  const runtime::HaltThreadMsg& msg = parsed.value();
  AgentInstance* inst = FindInstance(msg.instance);
  if (inst == nullptr) return;
  if (inst->state.mode() == sim::MsgCategory::kNormal) {
    inst->state.set_mode(message.category);
  }
  LocalHalt(inst, msg.origin_step, msg.new_epoch, /*propagate=*/true);
  // After the halt, new-epoch packets re-trigger execution through the
  // normal Pump path; nothing to restart here.
}

void Agent::CompensateLocal(AgentInstance* inst, StepId step,
                            std::function<void()> then) {
  const model::Step& spec = inst->state.schema()->schema().step(step);
  StepRecord& record = inst->state.step_record(step);
  if (record.state != StepRunState::kDone) {
    then();
    return;
  }
  const std::string& program = spec.compensation_program.empty()
                                   ? spec.program
                                   : spec.compensation_program;
  runtime::ProgramContext context;
  context.instance = inst->state.id();
  context.step = step;
  context.attempt = record.attempts;
  context.compensation = true;
  context.inputs = record.prev_inputs;
  context.rng = &rng_;
  int64_t cost = spec.cost;
  if (programs_->Contains(program)) {
    Result<runtime::ProgramOutcome> outcome =
        programs_->Run(program, context);
    if (outcome.ok() && outcome.value().cost > 0) {
      cost = outcome.value().cost;
    }
  }
  cost = static_cast<int64_t>(cost *
                              spec.ocr.partial_compensation_fraction);
  InstanceId instance = inst->state.id();
  {
    obs::Tracer& tr = ctx_->tracer();
    if (tr.enabled()) {
      tr.Begin(obs::SpanKind::kOcr, id_, instance, step, "compensate",
               static_cast<int>(sim::MsgCategory::kFailureHandling),
               program);
    }
  }
  ctx_->queue().ScheduleAfter(
      options_.exec_latency, [this, instance, step, cost, then]() {
        obs::Tracer& tr = ctx_->tracer();
        if (tr.enabled()) {
          tr.End(obs::SpanKind::kOcr, id_, instance, step, "compensate");
        }
        AgentInstance* inst = FindInstance(instance);
        if (inst == nullptr) return;
        inst->state.RecordCompensated(step);
        ctx_->metrics().AddLoad(id_, sim::LoadCategory::kProgram,
                                      cost);
        PersistStepRecord(instance, step);
        then();
      });
}

void Agent::OnCompensateSet(const sim::Message& message) {
  Result<runtime::CompensateSetMsg> parsed =
      runtime::CompensateSetMsg::Parse(message.payload);
  if (!parsed.ok()) return;
  runtime::CompensateSetMsg msg = parsed.value();
  if (msg.remaining.empty()) {
    // Chain exhausted: hand execution back to the origin agent.
    Send(msg.resume_agent, runtime::wi::kStepExecute,
         msg.resume.Serialize(), sim::MsgCategory::kFailureHandling);
    return;
  }
  StepId step = msg.remaining.front();
  msg.remaining.erase(msg.remaining.begin());
  AgentInstance* inst = GetOrCreateInstance(msg.instance);
  if (inst == nullptr) return;
  ctx_->metrics().AddLoad(id_, sim::LoadCategory::kFailureHandling,
                                options_.navigation_load);
  obs::Tracer& tr = ctx_->tracer();
  if (tr.enabled()) {
    // Compensation-set traversal: one instant per visited member, value
    // is how many members remain after this one.
    tr.Instant(obs::SpanKind::kOcr, id_, msg.instance, step,
               "compensate.set",
               static_cast<int64_t>(msg.remaining.size()),
               "origin=S" + std::to_string(msg.origin_step),
               static_cast<int>(sim::MsgCategory::kFailureHandling));
  }

  auto forward = [this, msg]() mutable {
    if (msg.remaining.empty()) {
      Send(msg.resume_agent, runtime::wi::kStepExecute,
             msg.resume.Serialize(), sim::MsgCategory::kFailureHandling);
      return;
    }
    NodeId target = ExecutorOf(msg.instance, msg.remaining.front());
    if (target == kInvalidNode) return;
    Send(target, runtime::wi::kCompensateSet, msg.Serialize(),
           sim::MsgCategory::kFailureHandling);
  };

  // Paper: "checks if the step has been executed. If not, no action."
  CompensateLocal(inst, step, forward);
}

void Agent::OnCompensateThread(const sim::Message& message) {
  Result<runtime::CompensateThreadMsg> parsed =
      runtime::CompensateThreadMsg::Parse(message.payload);
  if (!parsed.ok()) return;
  const runtime::CompensateThreadMsg& msg = parsed.value();
  AgentInstance* inst = FindInstance(msg.instance);
  if (inst == nullptr) return;
  ctx_->metrics().AddLoad(id_, sim::LoadCategory::kFailureHandling,
                                options_.navigation_load);

  InstanceId instance = msg.instance;
  StepId step = msg.step;
  StepId until = msg.until_join;
  int64_t epoch = msg.epoch;
  CompensateLocal(inst, step, [this, instance, step, until, epoch]() {
    AgentInstance* inst = FindInstance(instance);
    if (inst == nullptr) return;
    // Continue along the abandoned branch until the confluence.
    for (const model::ControlArc* arc :
         inst->state.schema()->forward_out(step)) {
      if (arc->to == until) continue;
      runtime::CompensateThreadMsg next;
      next.instance = instance;
      next.step = arc->to;
      next.until_join = until;
      next.epoch = epoch;
      NodeId target = ExecutorOf(instance, arc->to);
      if (target == kInvalidNode) continue;
      Send(target, runtime::wi::kCompensateThread, next.Serialize(),
             sim::MsgCategory::kFailureHandling);
    }
  });
}

void Agent::OnStepCompensate(const sim::Message& message) {
  Result<runtime::StepCompensateMsg> parsed =
      runtime::StepCompensateMsg::Parse(message.payload);
  if (!parsed.ok()) return;
  const runtime::StepCompensateMsg& msg = parsed.value();
  AgentInstance* inst = FindInstance(msg.instance);
  if (inst == nullptr) return;
  CompensateLocal(inst, msg.step, []() {});
}

// ---------------------------------------------------------------------
// Coordinated execution: RO registration/notification, ME arbitration
// ---------------------------------------------------------------------

void Agent::ApplyRoGating(AgentInstance* inst) {
  for (const runtime::RoLink& link : inst->state.ro_links()) {
    if (link.leading) continue;  // leaders act via registrations
    rules::EventToken token =
        rules::event::RelativeOrderToken(link.other, link.other_step);
    // RO wait span: opens when the gate is installed, closes when the
    // ordering token posts (here or in OnAddEvent).
    obs::Tracer& tr = ctx_->tracer();
    if (tr.enabled() && !inst->state.EventValid(token)) {
      tr.Begin(obs::SpanKind::kCoord, id_, inst->state.id(), kInvalidStep,
               "ro.wait:" + rules::TokenNameStr(token),
               static_cast<int>(sim::MsgCategory::kCoordination));
    }
    // Gate every rule that can fire the lagging step.
    inst->state.GateStep(link.my_step, token);
    // Only the agents that may execute the lagging step register at the
    // leading step's agents; fan-out observers merely gate their rules.
    const std::vector<NodeId>& lag_eligible = deployment_->Eligible(
        inst->state.id().workflow, link.my_step);
    if (std::find(lag_eligible.begin(), lag_eligible.end(), id_) ==
        lag_eligible.end()) {
      continue;
    }
    if (inst->ro_registered.insert(token).second) {
      ctx_->metrics().AddLoad(id_, sim::LoadCategory::kCoordination,
                                    options_.navigation_load);
      if (ended_instances_.count(link.other) > 0) {
        // Leading instance already finished: ordering holds trivially.
        if (tr.enabled()) {
          tr.End(obs::SpanKind::kCoord, id_, inst->state.id(),
                 kInvalidStep, "ro.wait:" + rules::TokenNameStr(token));
        }
        inst->state.PostEvent(token);
        continue;
      }
      // Register interest at every agent eligible to run the leading
      // step (AddRule protocol, Figure 4).
      runtime::AddRuleMsg reg;
      reg.instance = link.other;
      reg.rule_id = rules::TokenNameStr(token);
      reg.trigger_events = {std::to_string(id_)};
      reg.action_step = link.other_step;
      for (NodeId agent :
           deployment_->Eligible(link.other.workflow, link.other_step)) {
        Send(agent, runtime::wi::kAddRule, reg.Serialize(),
               sim::MsgCategory::kCoordination);
      }
    }
  }
}

void Agent::OnAddRule(const sim::Message& message) {
  Result<runtime::AddRuleMsg> parsed =
      runtime::AddRuleMsg::Parse(message.payload);
  if (!parsed.ok()) return;
  const runtime::AddRuleMsg& msg = parsed.value();

  // ME arbitration requests reuse the AddRule WI, as do RO registrations.
  NodeId requester = runtime::CheckedRequester(msg, message.from);
  if (requester == kInvalidNode) return;
  runtime::MeRequestKind me = runtime::MeRequestKindOf(msg);
  if (me != runtime::MeRequestKind::kNone) {
    const std::string& resource = msg.condition_source;
    ctx_->metrics().AddLoad(id_, sim::LoadCategory::kCoordination,
                                  options_.navigation_load);
    runtime::MutexTable::Holder next;
    if (me == runtime::MeRequestKind::kAcquire) {
      // The holder asking again is granted again: it may have lost its
      // claims to a restart.
      if (locks_.Acquire(resource, {msg.instance, msg.action_step,
                                    requester}) !=
          runtime::MutexTable::Acquired::kQueued) {
        next = {msg.instance, msg.action_step, requester};
      }
    } else {
      locks_.Release(resource, msg.instance, msg.action_step, &next);
    }
    if (next.node != kInvalidNode) {
      Send(next.node, runtime::wi::kAddEvent,
           runtime::EncodeMeGrant(next.instance, resource, next.step),
           sim::MsgCategory::kCoordination);
    }
    return;
  }

  // RO registration: notify `requester` when (instance, action_step)
  // completes here.
  ctx_->metrics().AddLoad(id_, sim::LoadCategory::kCoordination,
                                options_.navigation_load);
  AgentInstance* inst = FindInstance(msg.instance);
  if (ended_instances_.count(msg.instance) > 0 ||
      (inst != nullptr && inst->state.EventValid(
                              rules::event::StepDoneToken(msg.action_step)))) {
    SendRoNotice(requester, msg.instance, msg.rule_id);
    return;
  }
  ro_registrations_[{msg.instance, msg.action_step}].push_back(
      {requester, msg.rule_id});
}

void Agent::NotifyRoRegistrants(const InstanceId& instance, StepId step) {
  auto it = ro_registrations_.find({instance, step});
  if (it == ro_registrations_.end()) return;
  std::vector<std::pair<NodeId, std::string>> registrants =
      std::move(it->second);
  ro_registrations_.erase(it);
  for (const auto& [registrant, token] : registrants) {
    ctx_->metrics().AddLoad(id_, sim::LoadCategory::kCoordination,
                                  options_.navigation_load);
    SendRoNotice(registrant, instance, token);
  }
}

void Agent::SendRoNotice(NodeId registrant, const InstanceId& instance,
                         const std::string& token) {
  runtime::AddEventMsg notify;
  notify.instance = instance;
  notify.event_token = token;
  Send(registrant, runtime::wi::kAddEvent, notify.Serialize(),
       sim::MsgCategory::kCoordination);
}

void Agent::OnAddEvent(const sim::Message& message) {
  Result<runtime::AddEventMsg> parsed =
      runtime::AddEventMsg::Parse(message.payload);
  if (!parsed.ok()) return;
  const runtime::AddEventMsg& msg = parsed.value();
  const std::string& token = msg.event_token;

  if (runtime::IsMeGrant(token)) {
    std::optional<runtime::MeGrant> grant = runtime::DecodeMeGrant(token);
    if (!grant.has_value()) return;
    AgentInstance* inst = FindInstance(msg.instance);
    if (inst == nullptr) {
      // Instance gone (purged replicas are never re-created): release
      // the lock straight back.
      Send(message.from, runtime::wi::kAddRule,
           runtime::EncodeMeRequest(runtime::MeRequestKind::kRelease,
                                    msg.instance, grant->resource,
                                    grant->step, id_),
           sim::MsgCategory::kCoordination);
      return;
    }
    inst->state.me().Grant(grant->step, grant->resource);
    StartStepLocal(inst, grant->step);
    return;
  }

  // RO tokens (or other plain events) post into the instance.
  // The token may arrive before any packet created the instance: the
  // *RO event* itself concerns the lagging instance, but msg.instance is
  // the *leading* one. Deliver to every local instance that waits for it.
  rules::EventToken tok = rules::InternToken(token);
  bool delivered = false;
  for (auto& [id, inst] : instances_) {
    bool waits = false;
    for (const runtime::RoLink& link : inst->state.ro_links()) {
      if (!link.leading &&
          rules::event::RelativeOrderToken(link.other, link.other_step) ==
              tok) {
        waits = true;
        break;
      }
    }
    if (!waits) continue;
    // A duplicate notification (e.g. the executor's AddEvent plus the
    // purge-time resolution of a parked registration) is refused.
    delivered = true;
    if (runtime::DeliverOrderToken(ctx_->tracer(), id_, &inst->state, tok)) {
      Pump(inst.get());
    }
  }
  if (!delivered) {
    CREW_LOG(Debug) << "agent " << id_ << ": no local waiter for " << token;
  }
}

bool Agent::AcquireMutexesDistributed(AgentInstance* inst, StepId step) {
  const InstanceId& id = inst->state.id();
  for (const runtime::MutexReq* req :
       coordination_->MutexesOf(id.workflow, step)) {
    ctx_->metrics().AddLoad(id_, sim::LoadCategory::kCoordination,
                                  options_.navigation_load);
    if (inst->state.me().Granted(step, req->resource)) continue;
    if (inst->state.me().Request(step, req->resource)) {
      Send(MutexArbiter(*req), runtime::wi::kAddRule,
           runtime::EncodeMeRequest(runtime::MeRequestKind::kAcquire, id,
                                    req->resource, step, id_),
           sim::MsgCategory::kCoordination);
    }
    return false;
  }
  return true;
}

void Agent::ReleaseMutexesDistributed(AgentInstance* inst, StepId step) {
  const InstanceId& id = inst->state.id();
  for (const runtime::MutexReq* req :
       coordination_->MutexesOf(id.workflow, step)) {
    if (!inst->state.me().Release(step, req->resource)) continue;
    Send(MutexArbiter(*req), runtime::wi::kAddRule,
         runtime::EncodeMeRequest(runtime::MeRequestKind::kRelease, id,
                                  req->resource, step, id_),
         sim::MsgCategory::kCoordination);
  }
}

// ---------------------------------------------------------------------
// Nested workflows
// ---------------------------------------------------------------------

void Agent::LaunchSubWorkflow(AgentInstance* inst, StepId step) {
  const model::Step& spec = inst->state.schema()->schema().step(step);
  StepRecord& record = inst->state.step_record(step);
  if (record.state == StepRunState::kDone) {
    // Re-execution of a completed child: reuse (children are not
    // re-spawned; DESIGN.md documents the simplification).
    inst->state.EndStart(step);
    OnStepDoneLocal(inst, step, /*reused=*/true);
    return;
  }
  model::CompiledSchemaPtr child_schema = FindSchema(spec.sub_workflow);
  if (child_schema == nullptr) {
    CREW_LOG(Error) << "agent " << id_ << ": unknown child schema "
                    << spec.sub_workflow;
    inst->state.EndStart(step);
    return;
  }
  inst->state.EndStart(step);
  record.in_flight = true;
  record.attempts += 1;

  runtime::WorkflowStartMsg start;
  start.instance.workflow = spec.sub_workflow;
  start.instance.number =
      (static_cast<int64_t>(id_) << 40) | (++child_counter_);
  start.reply_to = id_;
  start.parent = inst->state.id();
  start.parent_step = step;
  // Parent inputs map to the child's workflow inputs in order.
  int index = 1;
  for (const std::string& input : spec.inputs) {
    std::optional<Value> v = inst->state.GetData(input);
    if (v.has_value()) {
      start.inputs["WF.I" + std::to_string(index)] = *v;
    }
    ++index;
  }
  children_[start.instance] = {inst->state.id(), step};

  Result<NodeId> coordination_agent =
      deployment_->CoordinationAgent(*child_schema);
  if (!coordination_agent.ok()) {
    record.in_flight = false;
    return;
  }
  Send(coordination_agent.value(), runtime::wi::kWorkflowStart,
         start.Serialize(), sim::MsgCategory::kNormal);
}

// ---------------------------------------------------------------------
// Agent-failure handling (§5.2 predecessor/successor protocols)
// ---------------------------------------------------------------------

void Agent::SchedulePendingCheck(const InstanceId& instance) {
  InstanceId copy = instance;
  ctx_->queue().ScheduleAfter(options_.pending_timeout,
                                    [this, copy]() {
                                      CheckPendingRules(copy);
                                    });
}

void Agent::CheckPendingRules(const InstanceId& instance) {
  AgentInstance* inst = FindInstance(instance);
  if (inst == nullptr) return;
  const rules::FiringState& firing = inst->state.rules();
  for (uint32_t slot = 0; slot < firing.program().num_rules(); ++slot) {
    std::vector<rules::EventToken> missing = firing.Missing(slot);
    if (missing.size() != 1) continue;
    StepId step = rules::event::ParseStepEvent(missing[0], "done");
    if (step == kInvalidStep) continue;
    // Only the agents that might have to execute the *waiting* step care
    // about its missing predecessor; fan-out observers do not poll.
    const std::vector<NodeId>& action_eligible = deployment_->Eligible(
        instance.workflow, firing.program().rule(slot).step);
    if (std::find(action_eligible.begin(), action_eligible.end(), id_) ==
        action_eligible.end()) {
      continue;
    }
    // Poll only for a step that is *overdue*: from this agent's state,
    // the step itself was triggerable (all events of one of its firing
    // rules are valid here), so it should have executed by now. Rules
    // merely waiting for upstream progress are not suspicious.
    if (!inst->state.schema()->schema().has_step(step) ||
        !inst->state.Triggerable(step)) {
      continue;
    }
    std::pair<InstanceId, StepId> key{instance, step};
    if (polls_.count(key) > 0) continue;
    // Rate-limit: at most one poll per step per timeout window.
    auto last = last_poll_.find(key);
    if (last != last_poll_.end() &&
        ctx_->now() - last->second < options_.pending_timeout) {
      continue;
    }
    last_poll_[key] = ctx_->now();
    StatusPoll poll;
    poll.instance = instance;
    poll.step = step;
    const std::vector<NodeId>& eligible =
        deployment_->Eligible(instance.workflow, step);
    for (NodeId agent : eligible) {
      // Down agents are unreachable — the failure detector the paper
      // assumes; their silence is what the protocol reacts to.
      if (ctx_->network().IsNodeDown(agent)) {
        ++poll.skipped_down;
        continue;
      }
      if (agent == id_) continue;  // our own record is already "unknown"
      runtime::StepStatusMsg query;
      query.instance = instance;
      query.step = step;
      query.reply_to = id_;
      Send(agent, runtime::wi::kStepStatus, query.Serialize(),
           sim::MsgCategory::kFailureHandling);
      ++poll.outstanding;
    }
    if (poll.outstanding > 0) {
      polls_[key] = poll;
    } else {
      // No one to ask (the other eligible agents are down or we are the
      // only one): resolve the round with what we know.
      ResolvePoll(poll);
    }
  }
}

void Agent::OnStepStatus(const sim::Message& message) {
  Result<runtime::StepStatusMsg> parsed =
      runtime::StepStatusMsg::Parse(message.payload);
  if (!parsed.ok()) return;
  const runtime::StepStatusMsg& msg = parsed.value();
  runtime::StepStatusReplyMsg reply;
  reply.instance = msg.instance;
  reply.step = msg.step;
  reply.responder = id_;
  AgentInstance* inst = FindInstance(msg.instance);
  if (inst == nullptr) {
    reply.state = StepRunState::kUnknown;
  } else {
    const StepRecord* record = inst->state.FindStepRecord(msg.step);
    if (record == nullptr) {
      reply.state = StepRunState::kUnknown;
    } else if (record->in_flight) {
      reply.state = StepRunState::kExecuting;
    } else {
      reply.state = record->state;
    }
  }
  Send(msg.reply_to, runtime::wi::kStepStatusReply, reply.Serialize(),
       sim::MsgCategory::kFailureHandling);
}

void Agent::OnStepStatusReply(const sim::Message& message) {
  Result<runtime::StepStatusReplyMsg> parsed =
      runtime::StepStatusReplyMsg::Parse(message.payload);
  if (!parsed.ok()) return;
  const runtime::StepStatusReplyMsg& msg = parsed.value();
  auto it = polls_.find({msg.instance, msg.step});
  if (it == polls_.end()) return;
  StatusPoll& poll = it->second;
  --poll.outstanding;
  if (msg.state == StepRunState::kDone) poll.any_done = true;
  if (msg.state == StepRunState::kExecuting) poll.any_executing = true;
  if (poll.outstanding > 0) return;

  StatusPoll done = poll;
  polls_.erase(it);
  ResolvePoll(done);
}

void Agent::ResolvePoll(const StatusPoll& poll) {
  AgentInstance* inst = FindInstance(poll.instance);
  if (inst == nullptr) return;
  StepId step = poll.step;
  if (inst->state.EventValid(rules::event::StepDoneToken(step))) return;

  if (poll.any_done || poll.any_executing) {
    // Someone has or will have the result; its packet will arrive
    // (reliable, persistent delivery). Wait passively.
    return;
  }
  // Everyone reachable says "unknown". Two cases (§5.2):
  //  - an eligible agent is unreachable: it may have performed (or be
  //    performing) the step. A *query* step is safe to re-run at another
  //    agent; an *update* step must wait — we re-poll after the timeout
  //    so recovery is noticed.
  //  - every eligible agent is reachable: nobody did the work (it died
  //    with a mid-step crash); re-drive it regardless of access kind.
  const model::Step& spec = inst->state.schema()->schema().step(step);
  if (poll.skipped_down > 0 &&
      spec.access == model::AccessKind::kUpdate) {
    SchedulePendingCheck(poll.instance);
    return;
  }
  // The receivers' own election: the re-request lands on the agent that
  // will actually self-elect for the step.
  NodeId target = ElectAmongLiving(poll.instance, step);
  if (target == kInvalidNode) {
    SchedulePendingCheck(poll.instance);
    return;
  }
  runtime::WorkflowPacket packet = inst->state.MakePacket(step);
  Send(target, runtime::wi::kStepExecute, packet.Serialize(),
       sim::MsgCategory::kFailureHandling);
}

void Agent::OnStateInformation(const sim::Message& message) {
  Result<runtime::StateInformationMsg> parsed =
      runtime::StateInformationMsg::Parse(message.payload);
  if (!parsed.ok()) return;
  runtime::StateInformationReplyMsg reply;
  reply.responder = id_;
  reply.load = active_programs_;
  reply.instance = parsed.value().instance;
  reply.step = parsed.value().step;
  Send(parsed.value().reply_to, runtime::wi::kStateInformationReply,
       reply.Serialize(), sim::MsgCategory::kElection);
}

}  // namespace crew::dist
