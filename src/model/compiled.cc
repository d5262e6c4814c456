#include "model/compiled.h"

#include <algorithm>

#include "model/rulegen.h"

namespace crew::model {

Result<CompiledSchemaPtr> CompiledSchema::Compile(Schema schema) {
  auto compiled = std::shared_ptr<CompiledSchema>(new CompiledSchema());
  compiled->schema_ = std::move(schema);
  const Schema& s = compiled->schema_;
  const int n = s.num_steps();

  compiled->forward_out_.resize(n + 1);
  compiled->back_out_.resize(n + 1);
  compiled->forward_in_.resize(n + 1);
  compiled->back_in_.resize(n + 1);
  compiled->required_incoming_.assign(n + 1, 1);
  compiled->is_choice_split_.assign(n + 1, false);
  compiled->terminal_group_of_.assign(n + 1, -1);
  compiled->downstream_.resize(n + 1);
  compiled->comp_dep_sets_of_.resize(n + 1);

  for (const ControlArc& arc : s.control_arcs()) {
    if (arc.is_back_edge) {
      compiled->back_out_[arc.from].push_back(&arc);
      compiled->back_in_[arc.to].push_back(&arc);
    } else {
      compiled->forward_out_[arc.from].push_back(&arc);
      compiled->forward_in_[arc.to].push_back(&arc);
      if (arc.condition) compiled->is_choice_split_[arc.from] = true;
    }
  }

  for (StepId id = 1; id <= n; ++id) {
    const Step& step = s.step(id);
    int in = static_cast<int>(compiled->forward_in_[id].size());
    if (step.join == JoinKind::kAnd) {
      compiled->required_incoming_[id] = std::max(1, in);
    } else {
      compiled->required_incoming_[id] = 1;
    }
    if (compiled->forward_out_[id].empty()) {
      compiled->terminal_steps_.push_back(id);
    }
  }

  const auto& groups = s.terminal_groups();
  for (size_t g = 0; g < groups.size(); ++g) {
    for (StepId id : groups[g]) {
      compiled->terminal_group_of_[id] = static_cast<int>(g);
    }
  }

  // Downstream closure per step, DFS over forward arcs.
  for (StepId id = 1; id <= n; ++id) {
    std::vector<bool> seen(n + 1, false);
    std::vector<StepId> stack = {id};
    seen[id] = true;
    std::vector<StepId>& out = compiled->downstream_[id];
    out.push_back(id);
    while (!stack.empty()) {
      StepId cur = stack.back();
      stack.pop_back();
      for (const ControlArc* arc : compiled->forward_out_[cur]) {
        if (!seen[arc->to]) {
          seen[arc->to] = true;
          out.push_back(arc->to);
          stack.push_back(arc->to);
        }
      }
    }
    std::sort(out.begin(), out.end());
  }

  const auto& sets = s.comp_dep_sets();
  for (size_t i = 0; i < sets.size(); ++i) {
    for (StepId id : sets[i].steps) {
      compiled->comp_dep_sets_of_[id].push_back(static_cast<int>(i));
    }
  }

  // Topological order (forward graph; builder guaranteed acyclic).
  {
    std::vector<int> in_degree(n + 1, 0);
    for (StepId id = 1; id <= n; ++id) {
      in_degree[id] = static_cast<int>(compiled->forward_in_[id].size());
    }
    std::vector<StepId> frontier;
    for (StepId id = 1; id <= n; ++id) {
      if (in_degree[id] == 0) frontier.push_back(id);
    }
    // Lowest id first for determinism.
    std::sort(frontier.rbegin(), frontier.rend());
    while (!frontier.empty()) {
      StepId cur = frontier.back();
      frontier.pop_back();
      compiled->topo_order_.push_back(cur);
      for (const ControlArc* arc : compiled->forward_out_[cur]) {
        if (--in_degree[arc->to] == 0) {
          frontier.push_back(arc->to);
          std::sort(frontier.rbegin(), frontier.rend());
        }
      }
    }
    if (static_cast<int>(compiled->topo_order_.size()) != n) {
      return Status::Internal("cycle slipped through builder validation");
    }
  }

  Result<rules::RuleProgram> program =
      rules::RuleProgram::Build(MakeAllRules(*compiled));
  if (!program.ok()) return program.status();
  compiled->rules_ = std::move(program).value();

  return CompiledSchemaPtr(compiled);
}

bool CompiledSchema::IsDownstream(StepId id, StepId maybe_down) const {
  const std::vector<StepId>& d = downstream_[id];
  return std::binary_search(d.begin(), d.end(), maybe_down);
}

std::vector<StepId> CompiledSchema::UpstreamOf(StepId id) const {
  std::vector<StepId> out;
  for (StepId candidate = 1; candidate <= schema_.num_steps();
       ++candidate) {
    if (candidate != id && IsDownstream(candidate, id)) {
      out.push_back(candidate);
    }
  }
  return out;
}

}  // namespace crew::model
