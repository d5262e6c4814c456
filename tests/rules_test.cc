#include <gtest/gtest.h>

#include "expr/eval.h"
#include "expr/parser.h"
#include "rules/engine.h"
#include "rules/event.h"

namespace crew::rules {
namespace {

expr::FunctionEnvironment EmptyEnv() {
  return expr::FunctionEnvironment(
      [](const std::string&) { return std::nullopt; });
}

Rule MakeRule(std::string id, std::vector<std::string> events,
              StepId step) {
  Rule rule;
  rule.id = std::move(id);
  for (const std::string& event : events) {
    rule.events.push_back(InternToken(event));
  }
  rule.step = step;
  return rule;
}

// A program over `rules` and one instance's firing state on it.
class Engine {
 public:
  explicit Engine(std::vector<Rule> rules)
      : program_(RuleProgram::Build(std::move(rules)).value()),
        state_(&program_) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  FiringState* operator->() { return &state_; }
  void Post(std::string_view event) { state_.Post(InternToken(event), 1, 0); }
  void Invalidate(std::string_view event) {
    state_.Invalidate(InternToken(event));
  }
  bool Occurred(std::string_view event) const {
    return state_.Occurred(InternToken(event));
  }
  std::vector<std::string> Missing(uint32_t slot) const {
    std::vector<std::string> names;
    for (EventToken token : state_.Missing(slot)) {
      names.push_back(TokenNameStr(token));
    }
    return names;
  }

 private:
  RuleProgram program_;
  FiringState state_;
};

TEST(EventTest, TokenFormats) {
  EXPECT_EQ(event::WorkflowStart(), "WF.start");
  EXPECT_EQ(event::StepDone(3), "S3.done");
  EXPECT_EQ(event::StepFail(12), "S12.fail");
  EXPECT_EQ(event::StepCompensated(4), "S4.comp");
  InstanceId lead{"WF1", 5};
  EXPECT_EQ(event::RelativeOrder(lead, 2), "RO:WF1#5:S2.done");
  EXPECT_EQ(event::MutexFree("printer"), "ME:printer.free");
}

TEST(EventTest, ParseStepEvent) {
  EXPECT_EQ(event::ParseStepEvent("S7.done", "done"), 7);
  EXPECT_EQ(event::ParseStepEvent("S7.done", "fail"), kInvalidStep);
  EXPECT_EQ(event::ParseStepEvent("X7.done", "done"), kInvalidStep);
  EXPECT_EQ(event::ParseStepEvent("S.done", "done"), kInvalidStep);
}

TEST(RuleEngineTest, FiresWhenAllEventsPresent) {
  Engine engine({MakeRule("r1", {"A", "B"}, 1)});
  auto env = EmptyEnv();
  engine.Post("A");
  EXPECT_TRUE(engine->CollectFireable(env).empty());
  engine.Post("B");
  EXPECT_EQ(engine->CollectFireable(env), std::vector<StepId>{1});
}

TEST(RuleEngineTest, DoesNotRefireWithoutNewEvents) {
  Engine engine({MakeRule("r1", {"A"}, 1)});
  auto env = EmptyEnv();
  engine.Post("A");
  EXPECT_EQ(engine->CollectFireable(env).size(), 1u);
  EXPECT_TRUE(engine->CollectFireable(env).empty());
}

TEST(RuleEngineTest, RefiresOnRepostedEvent) {
  // Loop semantics: a re-posted trigger re-fires the rule.
  Engine engine({MakeRule("r1", {"A"}, 1)});
  auto env = EmptyEnv();
  engine.Post("A");
  EXPECT_EQ(engine->CollectFireable(env).size(), 1u);
  engine.Post("A");
  EXPECT_EQ(engine->CollectFireable(env).size(), 1u);
}

TEST(RuleEngineTest, ConditionGatesFiring) {
  Rule rule = MakeRule("r1", {"A"}, 1);
  rule.condition = expr::ParseExpression("x > 5").value();
  Engine engine({std::move(rule)});

  int x = 0;
  expr::FunctionEnvironment env(
      [&x](const std::string& name) -> std::optional<Value> {
        if (name == "x") return Value(int64_t{x});
        return std::nullopt;
      });
  engine.Post("A");
  EXPECT_TRUE(engine->CollectFireable(env).empty());
  EXPECT_FALSE(engine->Triggerable(1, env));
  x = 6;
  EXPECT_TRUE(engine->Triggerable(1, env));
  // No new event, but the rule never fired: the condition is re-checked
  // only on a fresh stamp, so re-post to re-evaluate.
  engine.Post("A");
  EXPECT_EQ(engine->CollectFireable(env).size(), 1u);
}

TEST(RuleEngineTest, InvalidationDisarmsRule) {
  Engine engine({MakeRule("r1", {"A", "B"}, 1)});
  auto env = EmptyEnv();
  engine.Post("A");
  engine.Invalidate("A");
  engine.Post("B");
  EXPECT_TRUE(engine->CollectFireable(env).empty());
  EXPECT_FALSE(engine.Occurred("A"));
  EXPECT_TRUE(engine.Occurred("B"));
}

TEST(RuleEngineTest, ResetFiringAllowsRefireOnOldEvents) {
  Engine engine({MakeRule("r1", {"A"}, 1)});
  auto env = EmptyEnv();
  engine.Post("A");
  EXPECT_EQ(engine->CollectFireable(env).size(), 1u);
  engine->Rearm(1);
  EXPECT_EQ(engine->CollectFireable(env).size(), 1u);
}

TEST(RuleEngineTest, AddPreconditionBlocksUntilEventArrives) {
  Engine engine({MakeRule("r1", {"A"}, 1)});
  EXPECT_TRUE(engine->Gate(1, InternToken("RO:WF1#1:S2.done")));
  auto env = EmptyEnv();
  engine.Post("A");
  EXPECT_TRUE(engine->CollectFireable(env).empty());
  EXPECT_FALSE(engine->Triggerable(1, env));
  engine.Post("RO:WF1#1:S2.done");
  EXPECT_EQ(engine->CollectFireable(env).size(), 1u);
}

TEST(RuleEngineTest, AddPreconditionIsIdempotent) {
  Engine engine({MakeRule("r1", {"A"}, 1)});
  EXPECT_TRUE(engine->Gate(1, InternToken("X")));
  EXPECT_TRUE(engine->Gate(1, InternToken("X")));
  // A gate on one of the rule's own triggers adds nothing either.
  EXPECT_TRUE(engine->Gate(1, InternToken("A")));
  EXPECT_EQ(engine.Missing(0), (std::vector<std::string>{"A", "X"}));
}

TEST(RuleEngineTest, AddPreconditionOnMissingRuleFails) {
  // No rule starts step 2, so there is nothing to gate.
  Engine engine({MakeRule("r1", {"A"}, 1)});
  EXPECT_FALSE(engine->Gate(2, InternToken("X")));
  engine.Post("A");
  EXPECT_EQ(engine->CollectFireable(EmptyEnv()), std::vector<StepId>{1});
}

TEST(RuleEngineTest, DuplicateRuleIdRejected) {
  EXPECT_EQ(RuleProgram::Build({MakeRule("r1", {"A"}, 1),
                                MakeRule("r1", {"B"}, 2)})
                .status()
                .code(),
            StatusCode::kAlreadyExists);
}

TEST(RuleEngineTest, RuleValidationRejectsEmpty) {
  EXPECT_FALSE(RuleProgram::Build({MakeRule("", {"A"}, 1)}).ok());
  EXPECT_FALSE(RuleProgram::Build({MakeRule("r", {}, 1)}).ok());
  EXPECT_FALSE(RuleProgram::Build({MakeRule("r", {"A"}, kInvalidStep)}).ok());
  EXPECT_TRUE(RuleProgram::Build({MakeRule("r", {"A"}, 1)}).ok());
}

TEST(RuleEngineTest, PendingRulesListsMissingEvents) {
  Engine engine({MakeRule("r1", {"A", "B", "C"}, 1)});
  engine.Post("B");
  EXPECT_EQ(engine.Missing(0), (std::vector<std::string>{"A", "C"}));
  engine.Post("A");
  engine.Post("C");
  EXPECT_TRUE(engine.Missing(0).empty());
}

TEST(RuleEngineTest, FiringOrderIsDeterministicById) {
  Engine engine({MakeRule("b", {"X"}, 2), MakeRule("a", {"X"}, 1)});
  EXPECT_EQ(engine->program().rule(0).id, "a");
  auto env = EmptyEnv();
  engine.Post("X");
  EXPECT_EQ(engine->CollectFireable(env), (std::vector<StepId>{1, 2}));
}

TEST(RuleEngineTest, FireCountAccumulates) {
  Engine engine({MakeRule("r1", {"A"}, 1)});
  auto env = EmptyEnv();
  engine.Post("A");
  engine->CollectFireable(env);
  engine.Post("A");
  engine->CollectFireable(env);
  EXPECT_EQ(engine->fire_count(), 2);
}

}  // namespace
}  // namespace crew::rules
