#ifndef CREW_MODEL_COMPILED_H_
#define CREW_MODEL_COMPILED_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "model/schema.h"
#include "rules/engine.h"

namespace crew::model {

/// Static analysis of a Schema, produced once by the "compilation process"
/// the paper says runs before deployment (§4.2), together with the
/// schema's rule program. All runtimes (central, parallel, distributed)
/// navigate and fire rules from this structure.
class CompiledSchema {
 public:
  /// Analyzes the schema and builds its rule program. The schema must
  /// have passed SchemaBuilder validation.
  static Result<std::shared_ptr<const CompiledSchema>> Compile(
      Schema schema);

  const Schema& schema() const { return schema_; }

  /// The rules of every step (model/rulegen.h), built once here; every
  /// instance of the schema fires from this one program.
  const rules::RuleProgram& rules() const { return rules_; }

  /// Outgoing forward arcs of a step (in declaration order).
  const std::vector<const ControlArc*>& forward_out(StepId id) const {
    return forward_out_[id];
  }
  /// Outgoing back-edges (loop arcs) of a step.
  const std::vector<const ControlArc*>& back_out(StepId id) const {
    return back_out_[id];
  }
  /// Incoming forward arcs.
  const std::vector<const ControlArc*>& forward_in(StepId id) const {
    return forward_in_[id];
  }
  /// Incoming back-edges.
  const std::vector<const ControlArc*>& back_in(StepId id) const {
    return back_in_[id];
  }

  /// Number of control-flow tokens the step waits for before firing:
  /// kAnd join => number of incoming forward arcs; otherwise 1.
  int required_incoming(StepId id) const { return required_incoming_[id]; }

  /// True if the step has conditional outgoing arcs (if-then-else split).
  bool is_choice_split(StepId id) const { return is_choice_split_[id]; }

  /// Terminal steps (no outgoing forward arcs).
  const std::vector<StepId>& terminal_steps() const {
    return terminal_steps_;
  }
  /// Index of the terminal group containing `id`; -1 if not terminal.
  int terminal_group_of(StepId id) const { return terminal_group_of_[id]; }
  int num_terminal_groups() const {
    return static_cast<int>(schema_.terminal_groups().size());
  }

  /// All steps strictly downstream of `id` through forward arcs. This is
  /// the set whose step.done events a rollback to `id` invalidates and
  /// whose threads HaltThread() must quiesce (§5.2). Includes `id` itself
  /// as the first element (the rollback origin also re-executes).
  const std::vector<StepId>& downstream_including(StepId id) const {
    return downstream_[id];
  }
  /// True if `maybe_down` is `id` or reachable from `id` forward.
  bool IsDownstream(StepId id, StepId maybe_down) const;

  /// Steps strictly upstream of `id` (can reach `id` forward).
  std::vector<StepId> UpstreamOf(StepId id) const;

  /// Topological order of the forward graph (start first).
  const std::vector<StepId>& topo_order() const { return topo_order_; }

  /// Comp-dep sets that contain `id` (indices into
  /// schema().comp_dep_sets()).
  const std::vector<int>& comp_dep_sets_of(StepId id) const {
    return comp_dep_sets_of_[id];
  }

 private:
  CompiledSchema() = default;

  Schema schema_;
  // Index 0 unused (step ids are 1-based).
  std::vector<std::vector<const ControlArc*>> forward_out_;
  std::vector<std::vector<const ControlArc*>> back_out_;
  std::vector<std::vector<const ControlArc*>> forward_in_;
  std::vector<std::vector<const ControlArc*>> back_in_;
  std::vector<int> required_incoming_;
  std::vector<bool> is_choice_split_;
  std::vector<StepId> terminal_steps_;
  std::vector<int> terminal_group_of_;
  std::vector<std::vector<StepId>> downstream_;
  std::vector<std::vector<int>> comp_dep_sets_of_;
  std::vector<StepId> topo_order_;
  rules::RuleProgram rules_;
};

using CompiledSchemaPtr = std::shared_ptr<const CompiledSchema>;

}  // namespace crew::model

#endif  // CREW_MODEL_COMPILED_H_
