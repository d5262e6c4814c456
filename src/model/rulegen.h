#ifndef CREW_MODEL_RULEGEN_H_
#define CREW_MODEL_RULEGEN_H_

#include <vector>

#include "model/compiled.h"
#include "rules/engine.h"

namespace crew::model {

/// Generates the Event-Condition-Action rules that fire a step, from the
/// compiled schema. CompiledSchema::Compile runs it once per schema to
/// build the class's rules::RuleProgram; every instance, under all three
/// control architectures, then fires from that one program (the paper's
/// per-instance "instances of the appropriate rules", §3, are its
/// per-instance rules::FiringState).
///
/// Generated rules per step S:
///  - start step: id "exec.S<k>.start", trigger {WF.start};
///  - AND-join:   id "exec.S<k>.join", triggers = done events of every
///                incoming forward arc source (+ data-arc producers);
///  - otherwise:  one rule per incoming forward arc j->k:
///                id "exec.S<k>.via.S<j>", trigger {S<j>.done} (+ data
///                producers), condition = the arc's condition (an else
///                arc gets the conjunction of its siblings' negations);
///  - loop back-edges j->k: id "exec.S<k>.loop.S<j>", trigger
///                {S<j>.done}, condition = the back arc's condition.
std::vector<rules::Rule> MakeStepRules(const CompiledSchema& schema,
                                       StepId step);

/// All rules for every step of the schema.
std::vector<rules::Rule> MakeAllRules(const CompiledSchema& schema);

}  // namespace crew::model

#endif  // CREW_MODEL_RULEGEN_H_
