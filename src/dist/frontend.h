#ifndef CREW_DIST_FRONTEND_H_
#define CREW_DIST_FRONTEND_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "model/compiled.h"
#include "model/deployment.h"
#include "runtime/coord.h"
#include "runtime/placement.h"
#include "runtime/wire.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace crew::dist {

/// The front-end database of distributed control (§4.1): the
/// administrative interface through which users execute, abort, change
/// and query workflows. It interacts only with coordination agents, holds
/// the global instance counter, and — acting as the paper's modelling
/// tool output — binds coordinated-execution requirements (RO/RD) for new
/// instances against the live instance set.
class FrontEnd : public sim::MessageHandler {
 public:
  FrontEnd(NodeId id, sim::Context* context,
           const model::Deployment* deployment,
           const runtime::CoordinationSpec* coordination);

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  void RegisterSchema(model::CompiledSchemaPtr schema);

  /// Installs the instance->coordination-agent placement policy
  /// (non-owning; null reverts to the deployment's static choice).
  /// Candidates are the start step's eligible agents, so placement
  /// never moves coordination outside the eligibility footprint.
  void set_placement(runtime::PlacementPolicy* placement) {
    placement_ = placement;
  }

  /// Coordination agent this front end placed `instance` at;
  /// kInvalidNode when the instance was routed statically.
  NodeId CoordinatorOf(const InstanceId& instance) const;

  /// Instantiates a workflow; assigns and returns the instance id.
  Result<InstanceId> StartWorkflow(const std::string& workflow,
                                   std::map<std::string, Value> inputs);

  /// Requests abort / input change from the coordination agent.
  Status RequestAbort(const InstanceId& instance);
  Status RequestChangeInputs(const InstanceId& instance,
                             std::map<std::string, Value> new_inputs);

  /// Last known status (updated by coordination-agent replies).
  runtime::WorkflowState KnownStatus(const InstanceId& instance) const;

  void HandleMessage(const sim::Message& message) override;

  int64_t known_committed() const { return known_committed_; }
  int64_t known_aborted() const { return known_aborted_; }

 private:
  Result<NodeId> CoordinationAgentFor(const std::string& workflow) const;
  /// Per-instance routing: the placed coordinator when one was
  /// recorded, otherwise the schema's static coordination agent.
  Result<NodeId> RouteFor(const InstanceId& instance) const;

  NodeId id_;
  sim::Context* ctx_;
  const model::Deployment* deployment_;
  runtime::ConflictTracker tracker_;
  std::map<std::string, model::CompiledSchemaPtr> schemas_;
  std::map<InstanceId, runtime::WorkflowState> statuses_;
  runtime::PlacementPolicy* placement_ = nullptr;
  std::map<InstanceId, NodeId> coordinators_;  ///< placed routes
  int64_t next_instance_ = 1;
  int64_t known_committed_ = 0;
  int64_t known_aborted_ = 0;
};

}  // namespace crew::dist

#endif  // CREW_DIST_FRONTEND_H_
