#ifndef CREW_RUNTIME_OCR_H_
#define CREW_RUNTIME_OCR_H_

#include "model/step.h"
#include "obs/trace.h"
#include "runtime/instance.h"

namespace crew::runtime {

/// What to do when a StepExecute arrives for a step in the context of a
/// partial rollback + re-execution (the OCR algorithm, Figure 5).
enum class OcrDecision {
  kFirstExecution,         ///< never executed: run normally
  kReuse,                  ///< previous results stand: emit step.done only
  kPartialCompIncrReexec,  ///< partial compensation + incremental re-exec
  kFullCompReexec,         ///< complete compensation + complete re-exec
};

const char* OcrDecisionName(OcrDecision decision);

/// Implements the decision box of the OCR algorithm:
///  - no prior completed execution           -> kFirstExecution
///  - reexec condition false                 -> kReuse (savings!)
///  - partial path configured and applicable -> kPartialCompIncrReexec
///  - otherwise                              -> kFullCompReexec
///
/// The re-execution condition is evaluated with the step's OcrEnv so
/// changed(x) compares against the previous execution's snapshot.
OcrDecision DecideOcr(const model::Step& step, const InstanceState& state);

/// What starting a step does, from the OCR decision.
struct OcrPlan {
  OcrDecision decision = OcrDecision::kFirstExecution;
  /// Compensate the step (and the later members of its compensation
  /// dependent sets) before re-executing it; false for a first run, a
  /// reuse, and a loop-body step (compensate_before_reexec off).
  bool compensate_first = false;
  /// Cost fraction of the run: incremental_reexec_fraction for a
  /// compensating partial re-execution, else 1.
  double exec_fraction = 1.0;
};

/// DecideOcr plus what it implies for the run. A compensation, partial or
/// full, costs partial_compensation_fraction of the step's program cost
/// in both control architectures.
OcrPlan PlanOcr(const model::Step& step, const InstanceState& state);

/// PlanOcr for a step that starts at `node`, traced as ocr.<decision>.
/// A reuse is also traced as ocr.result-reused, and the step's previous
/// results then stand at the current epoch: it is no longer starting.
OcrPlan PlanStep(obs::Tracer& tr, NodeId node, InstanceState* state,
                 const model::Step& step);

}  // namespace crew::runtime

#endif  // CREW_RUNTIME_OCR_H_
