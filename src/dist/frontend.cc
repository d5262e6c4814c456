#include "dist/frontend.h"

#include <cstring>

#include "common/logging.h"

namespace crew::dist {

FrontEnd::FrontEnd(NodeId id, sim::Context* context,
                   const model::Deployment* deployment,
                   const runtime::CoordinationSpec* coordination)
    : id_(id),
      ctx_(context),
      deployment_(deployment),
      tracker_(coordination) {
  ctx_->network().Register(id_, this);
}

void FrontEnd::RegisterSchema(model::CompiledSchemaPtr schema) {
  schemas_[schema->schema().name()] = std::move(schema);
}

Result<NodeId> FrontEnd::CoordinationAgentFor(
    const std::string& workflow) const {
  auto it = schemas_.find(workflow);
  if (it == schemas_.end()) {
    return Status::NotFound("no schema registered as " + workflow);
  }
  return deployment_->CoordinationAgent(*it->second);
}

NodeId FrontEnd::CoordinatorOf(const InstanceId& instance) const {
  auto it = coordinators_.find(instance);
  return it == coordinators_.end() ? kInvalidNode : it->second;
}

Result<NodeId> FrontEnd::RouteFor(const InstanceId& instance) const {
  NodeId placed = CoordinatorOf(instance);
  if (placed != kInvalidNode) return placed;
  return CoordinationAgentFor(instance.workflow);
}

Result<InstanceId> FrontEnd::StartWorkflow(
    const std::string& workflow, std::map<std::string, Value> inputs) {
  Result<NodeId> coordination_agent = CoordinationAgentFor(workflow);
  if (!coordination_agent.ok()) return coordination_agent.status();

  runtime::WorkflowStartMsg msg;
  msg.instance = {workflow, next_instance_++};
  msg.inputs = std::move(inputs);
  msg.reply_to = id_;

  NodeId target = coordination_agent.value();
  if (placement_ != nullptr) {
    auto schema_it = schemas_.find(workflow);
    const std::vector<NodeId>& candidates = deployment_->Eligible(
        workflow, schema_it->second->schema().start_step());
    NodeId placed = placement_->Place(msg.instance, candidates);
    if (placed != kInvalidNode) {
      target = placed;
      coordinators_[msg.instance] = placed;
    }
  }

  // Bind coordinated-execution requirements against live instances: the
  // new instance lags every binding's leading instance.
  for (const runtime::RoBinding& binding :
       tracker_.OnInstanceStart(msg.instance)) {
    for (const auto& [lead_step, lag_step] : binding.step_pairs) {
      runtime::RoLink link;
      link.other = binding.leading;
      link.my_step = lag_step;
      link.other_step = lead_step;
      link.leading = false;
      msg.ro_links.push_back(link);
    }
  }

  statuses_[msg.instance] = runtime::WorkflowState::kExecuting;
  obs::Tracer& tr = ctx_->tracer();
  if (tr.enabled()) {
    // End-to-end span as the submitter sees it: closes when a status
    // reply first reports the instance committed or aborted. Named
    // "instance.e2e" (not "instance") so it does not double-feed the
    // instance-latency histogram owned by the coordination agent.
    tr.Begin(obs::SpanKind::kInstance, id_, msg.instance, kInvalidStep,
             "instance.e2e", static_cast<int>(sim::MsgCategory::kAdmin));
  }
  sim::Message out{id_, target, runtime::wi::kWorkflowStart,
                   msg.Serialize(), sim::MsgCategory::kAdmin};
  CREW_RETURN_IF_ERROR(ctx_->network().Send(std::move(out)));
  return msg.instance;
}

Status FrontEnd::RequestAbort(const InstanceId& instance) {
  Result<NodeId> coordination_agent = RouteFor(instance);
  if (!coordination_agent.ok()) return coordination_agent.status();
  runtime::WorkflowAbortMsg msg;
  msg.instance = instance;
  sim::Message out{id_, coordination_agent.value(),
                   runtime::wi::kWorkflowAbort, msg.Serialize(),
                   sim::MsgCategory::kAdmin};
  return ctx_->network().Send(std::move(out));
}

Status FrontEnd::RequestChangeInputs(
    const InstanceId& instance, std::map<std::string, Value> new_inputs) {
  Result<NodeId> coordination_agent = RouteFor(instance);
  if (!coordination_agent.ok()) return coordination_agent.status();
  runtime::WorkflowChangeInputsMsg msg;
  msg.instance = instance;
  msg.new_inputs = std::move(new_inputs);
  sim::Message out{id_, coordination_agent.value(),
                   runtime::wi::kWorkflowChangeInputs, msg.Serialize(),
                   sim::MsgCategory::kAdmin};
  return ctx_->network().Send(std::move(out));
}

runtime::WorkflowState FrontEnd::KnownStatus(
    const InstanceId& instance) const {
  auto it = statuses_.find(instance);
  return it == statuses_.end() ? runtime::WorkflowState::kUnknown
                               : it->second;
}

void FrontEnd::HandleMessage(const sim::Message& message) {
  if (message.type == runtime::wi::kAddEvent) {
    // Rollback-dependency notice from a rollback-target agent: fan the
    // rollback out to the live dependent instances (§3). The front end
    // holds the only global view of the live instance set, mirroring its
    // administrative role in §4.1.
    Result<runtime::AddEventMsg> parsed =
        runtime::AddEventMsg::Parse(message.payload);
    if (!parsed.ok()) return;
    const std::string& token = parsed.value().event_token;
    if (token.rfind("rd.rollback:S", 0) != 0) return;
    StepId origin = static_cast<StepId>(
        strtol(token.c_str() + strlen("rd.rollback:S"), nullptr, 10));
    for (const auto& [dependent, to_step] :
         tracker_.RollbackDependents(parsed.value().instance, origin)) {
      auto schema_it = schemas_.find(dependent.workflow);
      if (schema_it == schemas_.end()) continue;
      runtime::WorkflowRollbackMsg rollback;
      rollback.instance = dependent;
      rollback.origin_step = to_step;
      rollback.new_epoch = 0;  // RD marker: target computes its own epoch
      rollback.state.instance = dependent;
      for (NodeId agent :
           deployment_->Eligible(dependent.workflow, to_step)) {
        sim::Message out{id_, agent, runtime::wi::kWorkflowRollback,
                         rollback.Serialize(),
                         sim::MsgCategory::kCoordination};
        (void)ctx_->network().Send(std::move(out));
      }
    }
    return;
  }
  if (message.type != runtime::wi::kWorkflowStatusReply) {
    CREW_LOG(Warn) << "front end ignoring message type " << message.type;
    return;
  }
  Result<runtime::WorkflowStatusReplyMsg> parsed =
      runtime::WorkflowStatusReplyMsg::Parse(message.payload);
  if (!parsed.ok()) return;
  const runtime::WorkflowStatusReplyMsg& msg = parsed.value();
  runtime::WorkflowState previous = KnownStatus(msg.instance);
  statuses_[msg.instance] = msg.state;
  if (previous != msg.state) {
    if (msg.state == runtime::WorkflowState::kCommitted ||
        msg.state == runtime::WorkflowState::kAborted) {
      obs::Tracer& tr = ctx_->tracer();
      if (tr.enabled()) {
        tr.End(obs::SpanKind::kInstance, id_, msg.instance, kInvalidStep,
               "instance.e2e", 0,
               msg.state == runtime::WorkflowState::kCommitted
                   ? "committed"
                   : "aborted");
      }
    }
    if (msg.state == runtime::WorkflowState::kCommitted) {
      ++known_committed_;
      tracker_.OnInstanceEnd(msg.instance);
      if (placement_ != nullptr) placement_->Forget(msg.instance);
    } else if (msg.state == runtime::WorkflowState::kAborted) {
      ++known_aborted_;
      tracker_.OnInstanceEnd(msg.instance);
      if (placement_ != nullptr) placement_->Forget(msg.instance);
    }
  }
}

}  // namespace crew::dist
