// Equivalence test for the indexed rule engine: replays mutation scripts
// against both the production RuleProgram + FiringState (inverted index,
// dirty set, per-step gate overlay) and a reference engine that
// reimplements the original full-scan semantics (id-ordered std::map,
// every rule re-evaluated on every collect), and asserts the fired-step
// sequences and fire counts are identical. Every rule starts its own
// step, so gating a step equals the reference's per-rule
// AddPrecondition, and re-arming a step equals its per-rule reset.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "expr/eval.h"
#include "expr/parser.h"
#include "rules/engine.h"

namespace crew::rules {
namespace {

// What a reference rule fires: its step.
struct RuleAction {
  StepId step = kInvalidStep;
};

// The pre-index engine, verbatim semantics: string-keyed event table,
// rules in an id-ordered map, CollectFireable scans every rule.
class ReferenceEngine {
 public:
  bool AddRule(const std::string& id,
               const std::vector<std::string>& events,
               expr::NodePtr condition, RuleAction action) {
    if (id.empty() || events.empty()) return false;
    auto [it, inserted] = rules_.try_emplace(id);
    if (!inserted) return false;
    it->second.events = events;
    it->second.condition = std::move(condition);
    it->second.action = action;
    return true;
  }

  bool RemoveRule(const std::string& id) { return rules_.erase(id) > 0; }

  void AddPrecondition(const std::string& id, const std::string& event) {
    auto it = rules_.find(id);
    if (it == rules_.end()) return;
    std::vector<std::string>& events = it->second.events;
    if (std::find(events.begin(), events.end(), event) == events.end()) {
      events.push_back(event);
    }
  }

  void Post(const std::string& event) {
    EventState& state = events_[event];
    state.valid = true;
    state.stamp = next_stamp_++;
  }

  void Invalidate(const std::string& event) {
    auto it = events_.find(event);
    if (it != events_.end()) it->second.valid = false;
  }

  void ResetFiringIf(const std::string& id) {
    auto it = rules_.find(id);
    if (it != rules_.end()) it->second.last_fired_stamp = 0;
  }

  std::vector<RuleAction> CollectFireable(const expr::Environment& env) {
    std::vector<RuleAction> fired;
    for (auto& [id, state] : rules_) {
      uint64_t newest = 0;
      bool ready = true;
      for (const std::string& token : state.events) {
        auto it = events_.find(token);
        if (it == events_.end() || !it->second.valid) {
          ready = false;
          break;
        }
        newest = std::max(newest, it->second.stamp);
      }
      if (!ready || newest <= state.last_fired_stamp) continue;
      if (!expr::EvaluateCondition(state.condition, env)) continue;
      state.last_fired_stamp = newest;
      fired.push_back(state.action);
      ++fire_count_;
    }
    return fired;
  }

  int64_t fire_count() const { return fire_count_; }

 private:
  struct EventState {
    bool valid = false;
    uint64_t stamp = 0;
  };
  struct RuleState {
    std::vector<std::string> events;
    expr::NodePtr condition;
    RuleAction action;
    uint64_t last_fired_stamp = 0;
  };

  std::map<std::string, EventState> events_;
  std::map<std::string, RuleState> rules_;
  uint64_t next_stamp_ = 1;
  int64_t fire_count_ = 0;
};

// Applies every mutation to both engines and checks each collect. Rules
// are added first; Build() then compiles the indexed side's program.
class Harness {
 public:
  Harness()
      : env_([this](const std::string& name) -> std::optional<Value> {
          if (name == "x") return Value(int64_t{x_});
          return std::nullopt;
        }) {}

  void AddRule(const std::string& id,
               const std::vector<std::string>& events, StepId step,
               const std::string& condition_src = "") {
    expr::NodePtr condition;
    if (!condition_src.empty()) {
      condition = expr::ParseExpression(condition_src).value();
    }
    Rule rule;
    rule.id = id;
    for (const std::string& event : events) {
      rule.events.push_back(InternToken(event));
    }
    rule.condition = condition;
    rule.step = step;
    rules_.push_back(std::move(rule));
    step_of_[id] = step;
    ASSERT_TRUE(ref_.AddRule(id, events, condition, RuleAction{step}))
        << "AddRule(" << id << ") rejected";
  }

  void Build() {
    program_ = RuleProgram::Build(std::move(rules_)).value();
    indexed_ = FiringState(&program_);
  }

  void AddPrecondition(const std::string& id, const std::string& event) {
    auto it = step_of_.find(id);
    if (it != step_of_.end()) indexed_.Gate(it->second, InternToken(event));
    ref_.AddPrecondition(id, event);
  }

  void Post(const std::string& event) {
    indexed_.Post(InternToken(event), 1, 0);
    ref_.Post(event);
  }

  void Invalidate(const std::string& event) {
    indexed_.Invalidate(InternToken(event));
    ref_.Invalidate(event);
  }

  void ResetFiring(const std::string& id) {
    auto it = step_of_.find(id);
    if (it != step_of_.end()) indexed_.Rearm(it->second);
    ref_.ResetFiringIf(id);
  }

  void set_x(int64_t x) { x_ = x; }

  // Collects from both engines and asserts identical firing sequences
  // and running fire counts. Returns the fired steps.
  std::vector<StepId> Collect() {
    std::vector<StepId> got = indexed_.CollectFireable(env_);
    std::vector<StepId> want;
    for (const RuleAction& action : ref_.CollectFireable(env_)) {
      want.push_back(action.step);
    }
    EXPECT_EQ(got, want) << "collect #" << ++collects_;
    EXPECT_EQ(indexed_.fire_count(), ref_.fire_count())
        << "fire_count after collect #" << collects_;
    return got;
  }

 private:
  std::vector<Rule> rules_;
  std::map<std::string, StepId> step_of_;
  RuleProgram program_;
  FiringState indexed_;
  ReferenceEngine ref_;
  int64_t x_ = 0;
  expr::FunctionEnvironment env_;
  int collects_ = 0;
};

TEST(RuleEquivalenceTest, RePostAfterInvalidate) {
  Harness h;
  h.AddRule("r1", {"A", "B"}, 1);
  h.Build();
  h.Post("A");
  h.Post("B");
  EXPECT_EQ(h.Collect().size(), 1u);

  // Invalidate one trigger: re-posting the *other* must not fire.
  h.Invalidate("A");
  h.Post("B");
  EXPECT_TRUE(h.Collect().empty());

  // Re-posting the invalidated trigger re-arms the rule.
  h.Post("A");
  EXPECT_EQ(h.Collect(), std::vector<StepId>{1});
  EXPECT_TRUE(h.Collect().empty());
}

TEST(RuleEquivalenceTest, PreconditionAddedAfterPartialTriggering) {
  Harness h;
  h.AddRule("r1", {"A"}, 1);
  h.Build();
  h.Post("A");
  // The trigger is satisfied but a precondition lands before collect.
  h.AddPrecondition("r1", "P");
  EXPECT_TRUE(h.Collect().empty());
  h.Post("P");
  EXPECT_EQ(h.Collect().size(), 1u);

  // A precondition whose event is already valid and fresher than the
  // rule's last firing re-fires it without any new Post.
  h.Post("Q");
  h.AddPrecondition("r1", "Q");
  EXPECT_EQ(h.Collect().size(), 1u);
  EXPECT_TRUE(h.Collect().empty());
}

TEST(RuleEquivalenceTest, ResetFiringReArmsOnOldEvents) {
  Harness h;
  h.AddRule("r1", {"A"}, 1);
  h.AddRule("r2", {"A", "B"}, 2);
  h.Build();
  h.Post("A");
  h.Post("B");
  EXPECT_EQ(h.Collect().size(), 2u);
  EXPECT_TRUE(h.Collect().empty());

  // Reset re-fires r1 on its still-valid trigger.
  h.ResetFiring("r1");
  EXPECT_EQ(h.Collect(), std::vector<StepId>{1});

  // Reset of a rule whose trigger was invalidated must stay quiet.
  h.Invalidate("B");
  h.ResetFiring("r2");
  EXPECT_TRUE(h.Collect().empty());
  h.Post("B");
  EXPECT_EQ(h.Collect().size(), 1u);
}

TEST(RuleEquivalenceTest, ConditionFalseRuleStaysHotAcrossCollects) {
  Harness h;
  h.AddRule("r1", {"A"}, 1, "x > 5");
  h.Build();
  h.Post("A");
  // Condition false: neither engine fires, on every collect.
  EXPECT_TRUE(h.Collect().empty());
  EXPECT_TRUE(h.Collect().empty());
  // Environment flips with no new event: both engines must now fire,
  // because a satisfied-but-condition-false rule is re-evaluated on
  // every collect (the dirty set keeps it hot).
  h.set_x(6);
  EXPECT_EQ(h.Collect().size(), 1u);
  EXPECT_TRUE(h.Collect().empty());
}

TEST(RuleEquivalenceTest, FiringOrderIsIdLexicographic) {
  Harness h;
  // Insert out of id order, with ids whose lexicographic order differs
  // from numeric order (r10 < r2).
  h.AddRule("r2", {"A"}, 2);
  h.AddRule("r10", {"A"}, 10);
  h.AddRule("r1", {"A"}, 1);
  h.Build();
  h.Post("A");
  // r1, r10, r2.
  EXPECT_EQ(h.Collect(), (std::vector<StepId>{1, 10, 2}));
}

TEST(RuleEquivalenceTest, RandomizedScriptsMatchReference) {
  // Replays pseudo-random scripts of every mutating primitive against
  // both engines; the harness asserts equality at each collect. The
  // rules are fixed before the script runs, as a compiled program is.
  for (uint32_t seed : {1u, 7u, 1998u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    Harness h;

    const int kNumEvents = 12;
    auto event_name = [](int i) { return "E" + std::to_string(i); };
    auto rule_name = [](int i) { return "r" + std::to_string(i); };

    // Rules: one or two triggers each, a third with a condition.
    const int kNumRules = 16;
    for (int next_rule = 0; next_rule < kNumRules; ++next_rule) {
      std::vector<std::string> events{
          event_name(static_cast<int>(rng() % kNumEvents))};
      if (rng() % 2 == 0) {
        events.push_back(event_name(static_cast<int>(rng() % kNumEvents)));
        if (events[1] == events[0]) events.pop_back();
      }
      std::string condition;
      if (next_rule % 3 == 0) condition = "x > 5";
      h.AddRule(rule_name(next_rule), events,
                static_cast<StepId>(next_rule + 1), condition);
    }
    h.Build();

    // Gate and reset also name one rule past the last, which neither
    // engine has.
    auto any_rule = [&] {
      return rule_name(static_cast<int>(rng() % (kNumRules + 1)));
    };
    for (int op = 0; op < 2000; ++op) {
      switch (rng() % 9) {
        case 0:
        case 1:
        case 2:
        case 3:  // Post dominates, as in real runs.
          h.Post(event_name(static_cast<int>(rng() % kNumEvents)));
          break;
        case 4:
          h.Invalidate(event_name(static_cast<int>(rng() % kNumEvents)));
          break;
        case 5: {
          std::string rule = any_rule();
          h.AddPrecondition(rule,
                            event_name(static_cast<int>(rng() % kNumEvents)));
          break;
        }
        case 6:
          h.ResetFiring(any_rule());
          break;
        case 7:
          h.set_x(static_cast<int64_t>(rng() % 10));
          break;
        case 8:
          h.Collect();
          break;
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Drain: every pending firing must match at the end of the script.
    h.Collect();
    h.Collect();
  }
}

}  // namespace
}  // namespace crew::rules
