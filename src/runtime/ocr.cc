#include "runtime/ocr.h"

#include "expr/eval.h"

namespace crew::runtime {

const char* OcrDecisionName(OcrDecision decision) {
  switch (decision) {
    case OcrDecision::kFirstExecution: return "first-execution";
    case OcrDecision::kReuse: return "reuse";
    case OcrDecision::kPartialCompIncrReexec: return "partial+incremental";
    case OcrDecision::kFullCompReexec: return "full-comp+reexec";
  }
  return "?";
}

OcrDecision DecideOcr(const model::Step& step, const InstanceState& state) {
  const StepRecord* record = state.FindStepRecord(step.id);
  if (record == nullptr || record->state != StepRunState::kDone) {
    // Never completed here (or already compensated): plain execution.
    return OcrDecision::kFirstExecution;
  }

  expr::FunctionEnvironment env = state.OcrEnv(step.id);

  // Figure 5: "check the compensation and re-execution condition first".
  // A null condition means the designer gave no reuse opportunity: the
  // step always re-executes.
  if (step.ocr.reexec_condition) {
    if (!expr::EvaluateCondition(step.ocr.reexec_condition, env)) {
      return OcrDecision::kReuse;
    }
  }

  const bool partial_configured =
      step.ocr.partial_compensation_fraction < 1.0 ||
      step.ocr.incremental_reexec_fraction < 1.0;
  if (partial_configured) {
    if (!step.ocr.partial_applicable_condition ||
        expr::EvaluateCondition(step.ocr.partial_applicable_condition,
                                env)) {
      return OcrDecision::kPartialCompIncrReexec;
    }
  }
  return OcrDecision::kFullCompReexec;
}

OcrPlan PlanOcr(const model::Step& step, const InstanceState& state) {
  OcrPlan plan;
  plan.decision = DecideOcr(step, state);
  plan.compensate_first =
      step.ocr.compensate_before_reexec &&
      (plan.decision == OcrDecision::kPartialCompIncrReexec ||
       plan.decision == OcrDecision::kFullCompReexec);
  if (plan.compensate_first &&
      plan.decision == OcrDecision::kPartialCompIncrReexec) {
    plan.exec_fraction = step.ocr.incremental_reexec_fraction;
  }
  return plan;
}

OcrPlan PlanStep(obs::Tracer& tr, NodeId node, InstanceState* state,
                 const model::Step& step) {
  OcrPlan plan = PlanOcr(step, *state);
  const bool reuse = plan.decision == OcrDecision::kReuse;
  if (tr.enabled()) {
    const int category = static_cast<int>(sim::MsgCategory::kFailureHandling);
    tr.Instant(obs::SpanKind::kOcr, node, state->id(), step.id,
               std::string("ocr.") + OcrDecisionName(plan.decision), 0, {},
               category);
    if (reuse) {
      tr.Instant(obs::SpanKind::kOcr, node, state->id(), step.id,
                 "ocr.result-reused", 0, {}, category);
    }
  }
  if (reuse) {
    state->EndStart(step.id);
    state->step_record(step.id).epoch = state->epoch();
  }
  return plan;
}

}  // namespace crew::runtime
