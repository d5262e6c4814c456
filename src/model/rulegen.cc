#include "model/rulegen.h"

#include <algorithm>
#include <string>

#include "expr/ast.h"
#include "rules/event.h"

namespace crew::model {
namespace {

/// Negated-conjunction condition for an else arc: not(c1) and not(c2)...
expr::NodePtr ElseCondition(const CompiledSchema& schema,
                            const ControlArc& else_arc) {
  expr::NodePtr acc;
  for (const ControlArc* sibling : schema.forward_out(else_arc.from)) {
    if (sibling->condition == nullptr) continue;
    expr::NodePtr negated =
        expr::MakeUnary(expr::UnaryOp::kNot, sibling->condition);
    acc = acc ? expr::MakeBinary(expr::BinaryOp::kAnd, acc, negated)
              : negated;
  }
  return acc;  // null if the split had no conditional siblings
}

/// done-events of steps that feed `step` through declared data arcs and
/// are not already among `triggers`. Rules must wait for cross-branch
/// data producers (§4.2: "the rule may require other step.done events
/// depending on which of the steps it gets its input data from").
void AppendDataTriggers(const CompiledSchema& schema, StepId step,
                        std::vector<rules::EventToken>* triggers) {
  for (const DataArc& arc : schema.schema().data_arcs()) {
    if (arc.to != step) continue;
    rules::EventToken token = rules::event::StepDoneToken(arc.from);
    if (std::find(triggers->begin(), triggers->end(), token) ==
        triggers->end()) {
      triggers->push_back(token);
    }
  }
}

/// Rule-id prefix of the rules that fire `step`: "exec.S<k>.".
std::string StepRulePrefix(StepId step) {
  return "exec.S" + std::to_string(step) + ".";
}

}  // namespace

std::vector<rules::Rule> MakeStepRules(const CompiledSchema& schema,
                                       StepId step) {
  std::vector<rules::Rule> out;
  const Step& s = schema.schema().step(step);
  const std::string prefix = StepRulePrefix(step);

  if (step == schema.schema().start_step() &&
      schema.forward_in(step).empty()) {
    rules::Rule rule;
    rule.id = prefix + "start";
    rule.events = {rules::event::WorkflowStartToken()};
    rule.step = step;
    out.push_back(std::move(rule));
  } else if (s.join == JoinKind::kAnd) {
    rules::Rule rule;
    rule.id = prefix + "join";
    for (const ControlArc* arc : schema.forward_in(step)) {
      rule.events.push_back(rules::event::StepDoneToken(arc->from));
    }
    AppendDataTriggers(schema, step, &rule.events);
    rule.step = step;
    out.push_back(std::move(rule));
  } else {
    for (const ControlArc* arc : schema.forward_in(step)) {
      rules::Rule rule;
      rule.id = prefix + "via.S" + std::to_string(arc->from);
      rule.events = {rules::event::StepDoneToken(arc->from)};
      AppendDataTriggers(schema, step, &rule.events);
      if (arc->condition) {
        rule.condition = arc->condition;
      } else if (arc->is_else) {
        rule.condition = ElseCondition(schema, *arc);
      }
      rule.step = step;
      out.push_back(std::move(rule));
    }
  }

  // Loop back-edges re-fire the loop head.
  for (const ControlArc* arc : schema.back_in(step)) {
    rules::Rule rule;
    rule.id = prefix + "loop.S" + std::to_string(arc->from);
    rule.events = {rules::event::StepDoneToken(arc->from)};
    rule.condition = arc->condition;
    rule.step = step;
    out.push_back(std::move(rule));
  }

  return out;
}

std::vector<rules::Rule> MakeAllRules(const CompiledSchema& schema) {
  std::vector<rules::Rule> out;
  for (StepId id = 1; id <= schema.schema().num_steps(); ++id) {
    std::vector<rules::Rule> step_rules = MakeStepRules(schema, id);
    for (rules::Rule& rule : step_rules) out.push_back(std::move(rule));
  }
  return out;
}

}  // namespace crew::model
