#include "runtime/wire.h"

#include "runtime/fields.h"

namespace crew::runtime {

const char* WorkflowStateName(WorkflowState state) {
  switch (state) {
    case WorkflowState::kUnknown: return "unknown";
    case WorkflowState::kExecuting: return "executing";
    case WorkflowState::kCommitted: return "committed";
    case WorkflowState::kAborted: return "aborted";
  }
  return "?";
}

WorkflowState ParseWorkflowState(const std::string& name) {
  if (name == "executing") return WorkflowState::kExecuting;
  if (name == "committed") return WorkflowState::kCommitted;
  if (name == "aborted") return WorkflowState::kAborted;
  return WorkflowState::kUnknown;
}

const char* StepRunStateName(StepRunState state) {
  switch (state) {
    case StepRunState::kUnknown: return "unknown";
    case StepRunState::kExecuting: return "executing";
    case StepRunState::kDone: return "done";
    case StepRunState::kFailed: return "failed";
    case StepRunState::kCompensated: return "compensated";
  }
  return "?";
}

StepRunState ParseStepRunState(const std::string& name) {
  if (name == "executing") return StepRunState::kExecuting;
  if (name == "done") return StepRunState::kDone;
  if (name == "failed") return StepRunState::kFailed;
  if (name == "compensated") return StepRunState::kCompensated;
  return StepRunState::kUnknown;
}

CREW_FIELD_CODEC(WorkflowStartMsg)
CREW_FIELD_CODEC(WorkflowChangeInputsMsg)
CREW_FIELD_CODEC(WorkflowAbortMsg)
CREW_FIELD_CODEC(WorkflowStatusMsg)
CREW_FIELD_CODEC(WorkflowStatusReplyMsg)
CREW_FIELD_CODEC(StepExecuteMsg)
CREW_FIELD_CODEC(StepCompensateMsg)
CREW_FIELD_CODEC(StepCompletedMsg)
CREW_FIELD_CODEC(StepStatusMsg)
CREW_FIELD_CODEC(StepStatusReplyMsg)
CREW_FIELD_CODEC(WorkflowRollbackMsg)
CREW_FIELD_CODEC(HaltThreadMsg)
CREW_FIELD_CODEC(CompensateSetMsg)
CREW_FIELD_CODEC(CompensateThreadMsg)
CREW_FIELD_CODEC(StateInformationMsg)
CREW_FIELD_CODEC(StateInformationReplyMsg)
CREW_FIELD_CODEC(AddRuleMsg)
CREW_FIELD_CODEC(AddEventMsg)
CREW_FIELD_CODEC(AddPreconditionMsg)
CREW_FIELD_CODEC(RunProgramMsg)
CREW_FIELD_CODEC(RunProgramReplyMsg)
CREW_FIELD_CODEC(PurgeInstancesMsg)

}  // namespace crew::runtime
