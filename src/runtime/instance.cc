#include "runtime/instance.h"

#include <algorithm>

#include "rules/event.h"

namespace crew::runtime {

InstanceState::InstanceState(InstanceId id, model::CompiledSchemaPtr schema)
    : id_(std::move(id)),
      schema_(std::move(schema)),
      rules_(&schema_->rules()) {}

void InstanceState::SetData(const std::string& item, Value value) {
  data_[item] = std::move(value);
}

std::optional<Value> InstanceState::GetData(const std::string& item) const {
  auto it = data_.find(item);
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

void InstanceState::MergeData(const std::map<std::string, Value>& data) {
  for (const auto& [name, value] : data) {
    data_[name] = value;
  }
}

void InstanceState::MergeData(const PacketDataMap& data) {
  for (const auto& [name, value] : data) {
    data_[name] = value;
  }
}

const StepRecord* InstanceState::FindStepRecord(StepId step) const {
  auto it = steps_.find(step);
  return it == steps_.end() ? nullptr : &it->second;
}

StepRunState InstanceState::StepState(StepId step) const {
  const StepRecord* record = FindStepRecord(step);
  return record == nullptr ? StepRunState::kUnknown : record->state;
}

void InstanceState::NoteForwarded(StepId step, NodeId agent) {
  std::vector<NodeId>& agents = forwarded_[step];
  if (std::find(agents.begin(), agents.end(), agent) == agents.end()) {
    agents.push_back(agent);
  }
}

bool InstanceState::MergeEvent(const EventOcc& event) {
  const rules::EventEntry* entry = rules_.FindEvent(event.token);
  // Same or older occurrence: never resurrects an invalidated event.
  if (event.occ <= (entry == nullptr ? 0 : entry->occ)) return false;
  rules_.Post(event.token, event.occ, event.epoch);
  return true;
}

EventOcc InstanceState::PostEvent(rules::EventToken token) {
  const rules::EventEntry* entry = rules_.FindEvent(token);
  EventOcc occ{token, entry == nullptr ? 1 : entry->occ + 1, epoch_};
  rules_.Post(token, occ.occ, occ.epoch);
  return occ;
}

std::vector<rules::EventToken> InstanceState::InvalidateDownstream(
    StepId origin, int64_t new_epoch) {
  std::vector<rules::EventToken> invalidated;
  if (!schema_) return invalidated;
  for (StepId step : schema_->downstream_including(origin)) {
    for (rules::EventToken token : {rules::event::StepDoneToken(step),
                                    rules::event::StepFailToken(step)}) {
      const rules::EventEntry* entry = rules_.FindEvent(token);
      if (entry != nullptr && entry->valid && entry->epoch < new_epoch) {
        rules_.Invalidate(token);
        invalidated.push_back(token);
      }
    }
  }
  return invalidated;
}

std::vector<StepId> InstanceState::FireableSteps() {
  std::vector<StepId> steps;
  for (StepId step : rules_.CollectFireable(DataEnv())) {
    if (std::find(steps.begin(), steps.end(), step) == steps.end()) {
      steps.push_back(step);
    }
  }
  return steps;
}

int64_t InstanceState::ResetDownstream(StepId origin, int64_t new_epoch) {
  InvalidateDownstream(origin, new_epoch);
  // Replies and completions of runs under the old epoch are void.
  int64_t touched = 0;
  for (StepId step : schema_->downstream_including(origin)) {
    rules_.Rearm(step);
    StepRecord& record = steps_[step];
    if (record.state != StepRunState::kUnknown || record.in_flight) {
      ++touched;
    }
    record.in_flight = false;
    starting_.erase(step);
  }
  return touched;
}

bool InstanceState::TryStart(StepId step) {
  return !steps_[step].in_flight && starting_.insert(step).second;
}

void InstanceState::RecordCompensated(StepId step) {
  steps_[step].state = StepRunState::kCompensated;
  PostEvent(rules::event::StepCompensatedToken(step));
}

void InstanceState::RecordSuccess(StepId step, NodeId agent,
                                  const std::map<std::string, Value>& outputs,
                                  std::map<std::string, Value> inputs) {
  const std::string prefix = "S" + std::to_string(step) + ".";
  std::map<std::string, Value> qualified;
  for (const auto& [name, value] : outputs) {
    qualified[prefix + name] = value;
  }
  MergeData(qualified);
  StepRecord& record = steps_[step];
  record.prev_inputs = std::move(inputs);
  record.prev_outputs = std::move(qualified);
  record.state = StepRunState::kDone;
  record.exec_seq = NextExecSeq();
  record.epoch = epoch_;
  record.executed_by = agent;
  SetExecutedBy(step, agent);
}

bool InstanceState::RecordFailure(StepId step) {
  PostEvent(rules::event::StepFailToken(step));
  const model::FailureSpec& policy = schema_->schema().step(step).failure;
  const StepRecord* record = FindStepRecord(step);
  return (record != nullptr && record->attempts >= policy.max_attempts) ||
         policy.rollback_to == kInvalidStep;
}

StepId InstanceState::SwitchBranch(StepId split_step, StepId* chosen) {
  expr::FunctionEnvironment env = DataEnv();
  const model::ControlArc* else_arc = nullptr;
  *chosen = kInvalidStep;
  for (const model::ControlArc* arc : schema_->forward_out(split_step)) {
    if (arc->is_else) {
      else_arc = arc;
    } else if (arc->condition &&
               expr::EvaluateCondition(arc->condition, env)) {
      *chosen = arc->to;
      break;
    }
  }
  if (*chosen == kInvalidStep && else_arc != nullptr) *chosen = else_arc->to;
  if (*chosen == kInvalidStep) return kInvalidStep;
  auto [it, first] = taken_branch_.try_emplace(split_step, *chosen);
  StepId before = it->second;
  it->second = *chosen;
  return first || before == *chosen ? kInvalidStep : before;
}

std::vector<EventOcc> InstanceState::ValidEvents() const {
  std::vector<EventOcc> out;
  out.reserve(rules_.events().size());
  for (const auto& [token, entry] : rules_.events()) {
    if (entry.valid) out.push_back(EventOcc{token, entry.occ, entry.epoch});
  }
  // The table used to be a name-keyed std::map, so packets carried events
  // in name order; sort by name to keep the wire order (and everything
  // derived from it) byte-identical.
  std::sort(out.begin(), out.end(), [](const EventOcc& a, const EventOcc& b) {
    return a.name() < b.name();
  });
  return out;
}

bool InstanceState::EventValid(rules::EventToken token) const {
  return rules_.Occurred(token);
}

bool InstanceState::EventValid(std::string_view token) const {
  rules::EventToken t = rules::FindToken(token);
  return t != rules::kInvalidEventToken && EventValid(t);
}

std::map<std::string, Value> InstanceState::ResolveInputs(
    StepId step) const {
  std::map<std::string, Value> inputs;
  if (!schema_) return inputs;
  for (const std::string& item : schema_->schema().step(step).inputs) {
    std::optional<Value> v = GetData(item);
    if (v.has_value()) inputs[item] = *v;
  }
  return inputs;
}

expr::FunctionEnvironment InstanceState::DataEnv() const {
  return expr::FunctionEnvironment(
      [this](const std::string& name) { return GetData(name); });
}

expr::FunctionEnvironment InstanceState::OcrEnv(StepId step) const {
  return expr::FunctionEnvironment(
      [this](const std::string& name) { return GetData(name); },
      [this, step](const std::string& name) -> std::optional<Value> {
        const StepRecord* record = FindStepRecord(step);
        if (record == nullptr) return std::nullopt;
        auto it = record->prev_inputs.find(name);
        if (it != record->prev_inputs.end()) return it->second;
        auto jt = record->prev_outputs.find(name);
        if (jt != record->prev_outputs.end()) return jt->second;
        return std::nullopt;
      });
}

void InstanceState::MergePacket(const WorkflowPacket& packet) {
  MergeData(packet.data);
  MergeRoLinks(packet.ro_links);
  MergeRdLinks(packet.rd_links);
  for (const auto& [step, agent] : packet.executed_by) {
    executed_by_[step] = agent;
  }
  if (packet.epoch > epoch_) {
    epoch_ = packet.epoch;
  }
  if (packet.coordinator != kInvalidNode) {
    set_coordinator(packet.coordinator);
  }
  for (const EventOcc& event : packet.events) MergeEvent(event);
}

WorkflowPacket InstanceState::MakePacket(StepId target_step) const {
  WorkflowPacket packet;
  packet.instance = id_;
  packet.target_step = target_step;
  packet.epoch = epoch_;
  packet.coordinator = coordinator_;
  packet.data.assign(data_.begin(), data_.end());
  std::vector<EventOcc> events = ValidEvents();
  packet.events.assign(events.begin(), events.end());
  packet.executed_by.assign(executed_by_.begin(), executed_by_.end());
  packet.ro_links.assign(ro_links_.begin(), ro_links_.end());
  packet.rd_links.assign(rd_links_.begin(), rd_links_.end());
  return packet;
}

void InstanceState::SetExecutedBy(StepId step, NodeId agent) {
  executed_by_[step] = agent;
}

bool BeginStep(obs::Tracer& tr, NodeId node, InstanceState* state,
               StepId step) {
  if (!state->TryStart(step)) return false;
  if (tr.enabled()) {
    tr.Begin(obs::SpanKind::kStep, node, state->id(), step, "step",
             static_cast<int>(state->mode()));
  }
  return true;
}

bool PassMutexGate(obs::Tracer& tr, NodeId node, InstanceState* state,
                   StepId step, bool acquired) {
  if (acquired) {
    if (tr.enabled()) {
      tr.End(obs::SpanKind::kCoord, node, state->id(), step, "mutex.wait");
    }
    return true;
  }
  if (tr.enabled()) {
    tr.Begin(obs::SpanKind::kCoord, node, state->id(), step, "mutex.wait",
             static_cast<int>(sim::MsgCategory::kCoordination));
  }
  state->EndStart(step);
  return false;
}

void StepDone(obs::Tracer& tr, NodeId node, InstanceState* state,
              StepId step, bool reused) {
  if (tr.enabled()) {
    tr.End(obs::SpanKind::kStep, node, state->id(), step, "step", 0,
           reused ? "reused" : "done");
  }
  state->PostEvent(rules::event::StepDoneToken(step));
  if (!reused && state->step_record(step).attempts <= 1) {
    state->set_mode(sim::MsgCategory::kNormal);
  }
}

bool StepFailed(obs::Tracer& tr, NodeId node, InstanceState* state,
                StepId step) {
  if (tr.enabled()) {
    const int category = static_cast<int>(sim::MsgCategory::kFailureHandling);
    tr.End(obs::SpanKind::kStep, node, state->id(), step, "step", category,
           "failed");
    tr.Instant(obs::SpanKind::kOcr, node, state->id(), step, "step.failed",
               state->step_record(step).attempts, {}, category);
  }
  return state->RecordFailure(step);
}

bool DeliverOrderToken(obs::Tracer& tr, NodeId node, InstanceState* state,
                       rules::EventToken token) {
  if (state->EventValid(token)) return false;
  if (tr.enabled()) {
    tr.End(obs::SpanKind::kCoord, node, state->id(), kInvalidStep,
           "ro.wait:" + rules::TokenNameStr(token));
  }
  state->PostEvent(token);
  return true;
}

}  // namespace crew::runtime
