#ifndef CREW_RULES_ENGINE_H_
#define CREW_RULES_ENGINE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "expr/ast.h"
#include "expr/eval.h"
#include "rules/token.h"

namespace crew::rules {

/// An Event-Condition-Action rule (§3): when every trigger event has
/// occurred (and is currently valid) and the condition holds, it starts
/// its step. Trigger events are interned EventTokens (see rules/token.h).
struct Rule {
  std::string id;                    ///< unique within one program
  std::vector<EventToken> events;    ///< ALL must be valid to fire
  expr::NodePtr condition;           ///< null => unconditional
  StepId step = kInvalidStep;        ///< the step the rule starts
};

/// The rules of one workflow class, compiled once before deployment
/// (§4.2) and shared read-only by every instance of the class. Rules
/// live in rule-id order, so a slot number is also the rule's firing
/// rank. Two indexes point back into the slots: event -> rules it
/// triggers, and step -> rules that start it.
class RuleProgram {
 public:
  /// Sorts `rules` by id. Rejects an empty or duplicate id, a rule
  /// without trigger events and one that starts no step.
  static Result<RuleProgram> Build(std::vector<Rule> rules);

  size_t num_rules() const { return rules_.size(); }
  const Rule& rule(uint32_t slot) const { return rules_[slot]; }
  /// Slots of the rules `token` triggers (empty if none).
  const std::vector<uint32_t>& watchers(EventToken token) const;
  /// Slots of the rules that start `step` (empty if none).
  const std::vector<uint32_t>& step_slots(StepId step) const;

 private:
  std::vector<Rule> rules_;
  std::unordered_map<EventToken, std::vector<uint32_t>> watchers_;
  std::vector<std::vector<uint32_t>> step_slots_;  // indexed by StepId
};

/// One event of an instance: the occurrence number and epoch the runtime
/// ships in packets, the sequence stamp of its latest post (which orders
/// firings), and whether it still stands.
struct EventEntry {
  int64_t occ = 0;
  int64_t epoch = 0;
  uint64_t stamp = 0;
  bool valid = false;
};

/// The per-instance side of a RuleProgram: the instance's event table and
/// each rule's firing state, implementing the paper's general-rule and
/// pending-rule tables with its primitives AddEvent() (Post) and
/// AddPrecondition() (Gate). The program itself never changes.
///
/// Firing semantics:
///  - Every Post() stamps the event with a fresh sequence number and
///    marks it valid.
///  - Invalidate() marks an event no-longer-occurred; pending progress of
///    rules that depend on it is discarded (the paper's rollback step).
///  - A rule is *fireable* when every trigger event and every gate of its
///    step is valid, the newest of their stamps exceeds the rule's
///    last-fired stamp (so loop rules re-fire on re-posted events, but a
///    rule does not re-fire spuriously), and its condition holds.
///
/// Dispatch is indexed rather than scanned: every mutation that can newly
/// enable a rule (Post / Gate / Rearm) marks only the dependent slots
/// dirty, and CollectFireable() evaluates the dirty slots in slot order —
/// rule-id order, the order of a full id-ordered scan. A candidate whose
/// events are satisfied but whose condition is false stays dirty (the
/// environment can change between calls without a new event); one that
/// is missing an event or a fresh stamp is dropped, because only a
/// mutation that re-marks it can make it fireable again.
class FiringState {
 public:
  /// A state over no rules (a default-constructed instance).
  FiringState();
  explicit FiringState(const RuleProgram* program);

  const RuleProgram& program() const { return *program_; }

  // ---- event table ----
  /// AddEvent() primitive: records occurrence `occ` of `token` at
  /// `epoch` under a fresh stamp, valid.
  void Post(EventToken token, int64_t occ, int64_t epoch);
  /// Invalidates an occurred event (rollback). No-op if never posted.
  void Invalidate(EventToken token);
  const EventEntry* FindEvent(EventToken token) const;
  bool Occurred(EventToken token) const;
  const std::unordered_map<EventToken, EventEntry>& events() const {
    return events_;
  }

  // ---- firing ----
  /// AddPrecondition() for this instance only: every rule that starts
  /// `step` also waits for `token`. False (and nothing gated) when no
  /// rule starts the step.
  bool Gate(StepId step, EventToken token);

  /// Clears the fired marker of the rules that start `step`, so they can
  /// fire again on their *existing* (still valid) events. Used when a
  /// rollback re-enables the rules of downstream steps (§5.2).
  void Rearm(StepId step);

  /// Returns the steps of every rule that can fire now, in slot order,
  /// marking the rules fired. Conditions are evaluated against `env`.
  std::vector<StepId> CollectFireable(const expr::Environment& env);

  /// True when some rule that starts `step` has every event (and gate)
  /// valid and its condition holds, whether or not it fired already.
  bool Triggerable(StepId step, const expr::Environment& env) const;

  /// The events (triggers, then gates) rule `slot` still waits for — its
  /// row of the paper's pending-rule table.
  std::vector<EventToken> Missing(uint32_t slot) const;

  /// Total number of rule firings (metrics).
  int64_t fire_count() const { return fire_count_; }

 private:
  struct SlotState {
    uint64_t last_fired_stamp = 0;
    bool dirty = false;  // queued in dirty_
  };

  /// Outcome of evaluating one dirty candidate.
  enum class Readiness { kFire, kConditionFalse, kNotReady };

  void MarkDirty(uint32_t slot);
  /// Calls `fn(token)` for the events and gates of rule `slot`; stops at
  /// the first call that returns false.
  template <typename Fn>
  bool ForEachTrigger(uint32_t slot, Fn fn) const;
  Readiness Evaluate(uint32_t slot, const expr::Environment& env,
                     uint64_t* newest_stamp) const;

  const RuleProgram* program_;
  std::unordered_map<EventToken, EventEntry> events_;
  std::vector<SlotState> slots_;  // parallel to the program's rules
  /// The gate overlay: (step, token) pairs added by Gate().
  std::vector<std::pair<StepId, EventToken>> gates_;
  /// Candidates to evaluate at the next CollectFireable(), each at most
  /// once (SlotState::dirty guards duplicates).
  std::vector<uint32_t> dirty_;
  uint64_t next_stamp_ = 1;
  int64_t fire_count_ = 0;
};

}  // namespace crew::rules

#endif  // CREW_RULES_ENGINE_H_
