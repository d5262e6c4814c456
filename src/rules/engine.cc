#include "rules/engine.h"

#include <algorithm>

namespace crew::rules {
namespace {

const std::vector<uint32_t>& NoSlots() {
  static const std::vector<uint32_t> kNone;
  return kNone;
}

}  // namespace

Result<RuleProgram> RuleProgram::Build(std::vector<Rule> rules) {
  std::sort(rules.begin(), rules.end(),
            [](const Rule& a, const Rule& b) { return a.id < b.id; });
  RuleProgram program;
  for (uint32_t slot = 0; slot < rules.size(); ++slot) {
    const Rule& rule = rules[slot];
    if (rule.id.empty()) {
      return Status::InvalidArgument("rule id must not be empty");
    }
    if (slot > 0 && rules[slot - 1].id == rule.id) {
      return Status::AlreadyExists("rule " + rule.id + " already present");
    }
    if (rule.events.empty()) {
      return Status::InvalidArgument("rule " + rule.id +
                                     " has no trigger events");
    }
    if (rule.step <= kInvalidStep) {
      return Status::InvalidArgument("rule " + rule.id + " starts no step");
    }
    for (EventToken token : rule.events) {
      program.watchers_[token].push_back(slot);
    }
    if (program.step_slots_.size() <= static_cast<size_t>(rule.step)) {
      program.step_slots_.resize(rule.step + 1);
    }
    program.step_slots_[rule.step].push_back(slot);
  }
  program.rules_ = std::move(rules);
  return program;
}

const std::vector<uint32_t>& RuleProgram::watchers(EventToken token) const {
  auto it = watchers_.find(token);
  return it == watchers_.end() ? NoSlots() : it->second;
}

const std::vector<uint32_t>& RuleProgram::step_slots(StepId step) const {
  return step > kInvalidStep && static_cast<size_t>(step) < step_slots_.size()
             ? step_slots_[step]
             : NoSlots();
}

FiringState::FiringState() {
  static const RuleProgram kEmpty;
  program_ = &kEmpty;
}

FiringState::FiringState(const RuleProgram* program)
    : program_(program), slots_(program->num_rules()) {}

void FiringState::MarkDirty(uint32_t slot) {
  SlotState& state = slots_[slot];
  if (state.dirty) return;
  state.dirty = true;
  dirty_.push_back(slot);
}

void FiringState::Post(EventToken token, int64_t occ, int64_t epoch) {
  events_[token] = EventEntry{occ, epoch, next_stamp_++, true};
  for (uint32_t slot : program_->watchers(token)) MarkDirty(slot);
  for (const auto& [step, gate] : gates_) {
    if (gate != token) continue;
    for (uint32_t slot : program_->step_slots(step)) MarkDirty(slot);
  }
}

void FiringState::Invalidate(EventToken token) {
  auto it = events_.find(token);
  if (it != events_.end()) it->second.valid = false;
}

const EventEntry* FiringState::FindEvent(EventToken token) const {
  auto it = events_.find(token);
  return it == events_.end() ? nullptr : &it->second;
}

bool FiringState::Occurred(EventToken token) const {
  const EventEntry* entry = FindEvent(token);
  return entry != nullptr && entry->valid;
}

bool FiringState::Gate(StepId step, EventToken token) {
  const std::vector<uint32_t>& slots = program_->step_slots(step);
  if (slots.empty()) return false;
  std::pair<StepId, EventToken> gate{step, token};
  if (std::find(gates_.begin(), gates_.end(), gate) == gates_.end()) {
    gates_.push_back(gate);
    // A valid gate can raise a rule's newest stamp above its last-fired
    // stamp, making it fireable right now.
    for (uint32_t slot : slots) MarkDirty(slot);
  }
  return true;
}

void FiringState::Rearm(StepId step) {
  for (uint32_t slot : program_->step_slots(step)) {
    slots_[slot].last_fired_stamp = 0;
    // Still-valid events can now re-fire the rule.
    MarkDirty(slot);
  }
}

template <typename Fn>
bool FiringState::ForEachTrigger(uint32_t slot, Fn fn) const {
  const Rule& rule = program_->rule(slot);
  for (EventToken token : rule.events) {
    if (!fn(token)) return false;
  }
  for (const auto& [step, token] : gates_) {
    // A gate on one of the rule's own events adds nothing.
    if (step != rule.step || std::find(rule.events.begin(), rule.events.end(),
                                       token) != rule.events.end()) {
      continue;
    }
    if (!fn(token)) return false;
  }
  return true;
}

FiringState::Readiness FiringState::Evaluate(uint32_t slot,
                                             const expr::Environment& env,
                                             uint64_t* newest_stamp) const {
  uint64_t newest = 0;
  bool all_valid = ForEachTrigger(slot, [&](EventToken token) {
    const EventEntry* event = FindEvent(token);
    if (event == nullptr || !event->valid) return false;
    newest = std::max(newest, event->stamp);
    return true;
  });
  if (!all_valid || newest <= slots_[slot].last_fired_stamp) {
    return Readiness::kNotReady;
  }
  if (!expr::EvaluateCondition(program_->rule(slot).condition, env)) {
    return Readiness::kConditionFalse;
  }
  *newest_stamp = newest;
  return Readiness::kFire;
}

std::vector<StepId> FiringState::CollectFireable(
    const expr::Environment& env) {
  std::vector<StepId> fired;
  if (dirty_.empty()) return fired;
  // Slot order is rule-id order: that of a full id-ordered scan.
  std::sort(dirty_.begin(), dirty_.end());
  std::vector<uint32_t> retained;
  for (uint32_t slot : dirty_) {
    SlotState& state = slots_[slot];
    state.dirty = false;
    uint64_t newest = 0;
    switch (Evaluate(slot, env, &newest)) {
      case Readiness::kFire:
        state.last_fired_stamp = newest;
        fired.push_back(program_->rule(slot).step);
        ++fire_count_;
        break;
      case Readiness::kConditionFalse:
        // Events satisfied, condition not (yet): the environment can
        // change without another Post, so keep the candidate hot.
        state.dirty = true;
        retained.push_back(slot);
        break;
      case Readiness::kNotReady:
        // Missing event or no fresh stamp: only a mutation that re-marks
        // this rule dirty can change that.
        break;
    }
  }
  dirty_ = std::move(retained);
  return fired;
}

bool FiringState::Triggerable(StepId step,
                              const expr::Environment& env) const {
  for (uint32_t slot : program_->step_slots(step)) {
    bool all_valid = ForEachTrigger(
        slot, [this](EventToken token) { return Occurred(token); });
    if (all_valid &&
        expr::EvaluateCondition(program_->rule(slot).condition, env)) {
      return true;
    }
  }
  return false;
}

std::vector<EventToken> FiringState::Missing(uint32_t slot) const {
  std::vector<EventToken> missing;
  ForEachTrigger(slot, [&](EventToken token) {
    if (!Occurred(token)) missing.push_back(token);
    return true;
  });
  return missing;
}

}  // namespace crew::rules
