#ifndef CREW_CENTRAL_ENGINE_H_
#define CREW_CENTRAL_ENGINE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "model/compiled.h"
#include "model/deployment.h"
#include "runtime/coord.h"
#include "runtime/instance.h"
#include "runtime/ocr.h"
#include "runtime/programs.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "storage/database.h"

namespace crew::central {

/// Configuration shared by the engine of centralized control and the
/// engines of parallel control.
struct EngineOptions {
  /// Navigation-and-other load per step (Table 3's parameter l).
  int64_t navigation_load = 100;
  /// Directory for the durable WFDB; empty => in-memory only.
  std::string wfdb_dir;
};

/// Topology oracle for *parallel* control: which engine owns an instance,
/// which engine arbitrates a mutual-exclusion resource, and the full
/// engine list (for coordination-event broadcast). Central control leaves
/// the engine's topology unset and everything stays engine-local.
class ParallelTopology {
 public:
  virtual ~ParallelTopology() = default;
  virtual NodeId OwnerEngine(const InstanceId& instance) const = 0;
  virtual NodeId LockOwnerEngine(const std::string& resource) const = 0;
  virtual std::vector<NodeId> AllEngines() const = 0;
};

/// The centralized workflow engine (§2, §3): maintains every instance's
/// state in the WFDB, navigates via the rule-based run-time system,
/// dispatches step programs to thin agents, and implements coordinated
/// execution (engine-locally, with zero inter-node messages) and the OCR
/// failure-handling strategy.
///
/// The same class serves as one engine of the *parallel* architecture:
/// parallel control instantiates several engines and partitions instances
/// among them; cross-engine coordination events are exchanged through the
/// CoordinationPeer hook.
class WorkflowEngine : public sim::MessageHandler {
 public:
  WorkflowEngine(NodeId id, sim::Context* context,
                 const runtime::ProgramRegistry* programs,
                 const model::Deployment* deployment,
                 const runtime::CoordinationSpec* coordination,
                 EngineOptions options = {});

  WorkflowEngine(const WorkflowEngine&) = delete;
  WorkflowEngine& operator=(const WorkflowEngine&) = delete;

  NodeId id() const { return id_; }

  /// Registers a schema (compiled) with the engine.
  void RegisterSchema(model::CompiledSchemaPtr schema);

  // ---- administrative interface (the front end calls these) ----

  /// Instantiates a workflow. `number` must be unique system-wide.
  Status StartWorkflow(const std::string& workflow, int64_t number,
                       std::map<std::string, Value> inputs);

  /// User-initiated abort. Rejected once committed.
  Status AbortWorkflow(const InstanceId& instance);

  /// User-initiated input change; triggers partial rollback + OCR
  /// re-execution of affected steps. Rejected once committed.
  Status ChangeInputs(const InstanceId& instance,
                      std::map<std::string, Value> new_inputs);

  /// The live instance's status while it runs or compensates, its
  /// archive record's once it has been retired.
  runtime::WorkflowState QueryStatus(const InstanceId& instance) const;

  /// Data table of an instance: live while it runs, the archived final
  /// one after it ended (empty if unknown or recovered from the WFDB).
  std::map<std::string, Value> FinalData(const InstanceId& instance) const;

  void HandleMessage(const sim::Message& message) override;

  // ---- parallel-control support ----
  /// Delivers a coordination event raised at a peer engine (or locally)
  /// for an instance owned here.
  void DeliverCoordinationEvent(const InstanceId& instance,
                                rules::EventToken event_token);
  /// Parallel control shares one tracker across engines (it models the
  /// front end's global view of instance start order); central control
  /// uses the engine's own. Non-owning.
  void set_shared_tracker(runtime::ConflictTracker* tracker) {
    shared_tracker_ = tracker;
  }
  /// Enables parallel-control behaviour: coordination-event broadcast,
  /// remote lock arbitration, cross-engine RD rollbacks. Non-owning.
  void set_topology(const ParallelTopology* topology) {
    topology_ = topology;
  }

  // ---- introspection for tests/benches ----
  int64_t committed_count() const { return committed_count_; }
  int64_t aborted_count() const { return aborted_count_; }
  /// Instances not yet retired (running, or compensating after an end).
  size_t live_instances() const { return instances_.size(); }

 private:
  struct CompItem {
    StepId step = kInvalidStep;           // step to compensate
    std::function<void()> barrier;        // or a continuation
  };

  struct Instance {
    /// Its mode picks the message and load categories of a dispatch.
    runtime::InstanceState state;
    runtime::WorkflowState status = runtime::WorkflowState::kExecuting;
    /// Serialized compensation queue.
    std::deque<CompItem> comp_queue;
    bool comp_running = false;
    /// Progress marker at the last rollback (guards RD-induced repeats).
    int64_t last_rollback_seq = -1;
    StepId last_rollback_origin = kInvalidStep;
  };

  Instance* Find(const InstanceId& instance);
  const Instance* Find(const InstanceId& instance) const;

  /// Evaluates all fireable rules and dispatches their actions.
  void Pump(Instance* inst);

  /// Begins execution of a step: ME acquisition, OCR decision,
  /// compensation chain, program dispatch.
  void StartStep(Instance* inst, StepId step);
  void DispatchProgram(Instance* inst, StepId step, double cost_fraction);
  void DispatchCompensation(Instance* inst, StepId step);
  void OnProgramReply(const runtime::RunProgramReplyMsg& reply);
  void OnStepDone(Instance* inst, StepId step, bool reused);
  void OnStepFailed(Instance* inst, StepId step);
  void OnCompensated(Instance* inst, StepId step);

  /// Partial rollback to `origin` (failure or input change), §5.2
  /// mechanics performed engine-locally: event invalidation + rule reset.
  /// `rd_induced` marks a rollback propagated through a rollback
  /// dependency: it neither cascades further (no RD rings) nor repeats
  /// while the instance has made no progress since its last rollback.
  void Rollback(Instance* inst, StepId origin, sim::MsgCategory mode,
                bool rd_induced = false);

  void HandleBranchSwitch(Instance* inst, StepId split_step);
  void Commit(Instance* inst);
  void DoAbort(Instance* inst);
  /// Moves an ended instance out of `instances_` into `retired_` and
  /// leaves its archive record in its place.
  void Retire(const InstanceId& instance);
  /// Releases what an ending instance holds: its ME locks, then the
  /// local RO watchers waiting on it.
  void ResolveCoordinationAtEnd(Instance* inst);

  /// Compensation queue machinery (strictly serialized per instance).
  void EnqueueCompensation(Instance* inst, StepId step);
  void EnqueueBarrier(Instance* inst, std::function<void()> continuation);
  /// Enqueues the compensation of executed `steps`, latest execution
  /// first.
  void EnqueueLatestFirst(Instance* inst, std::vector<StepId> steps);
  void RunCompQueue(Instance* inst);

  // ---- coordinated execution ----
  /// (lead instance, lead step) -> watchers (lagging instance, ordering
  /// token) to notify when the lead step completes.
  using RoWatches =
      std::map<std::pair<InstanceId, StepId>,
               std::vector<std::pair<InstanceId, rules::EventToken>>>;
  /// Delivers every watch on an ended instance and drops them.
  void ReleaseWatchesOn(RoWatches* watches, const InstanceId& ended);
  void ApplyRoBindings(Instance* inst);
  void NotifyRoWatchers(Instance* inst, StepId step);
  bool AcquireMutexes(Instance* inst, StepId step);
  void ReleaseMutexes(Instance* inst, StepId step);
  /// Parallel control: broadcast "coord.done:S<k>" / "coord.end" to the
  /// peer engines when the class has coordination requirements.
  void BroadcastCoordination(Instance* inst, const std::string& suffix);
  /// Handles a coordination broadcast, an ME grant or an RO event.
  void OnCoordinationMessage(const sim::Message& message);
  /// Handles an ME acquire or release from a peer engine (parallel).
  void OnMeRequest(const sim::Message& message);
  /// Engine arbitrating `resource`: this one unless parallel control
  /// places it at a peer.
  NodeId LockOwner(const std::string& resource) const;
  /// Frees a lock arbitrated here and hands it to the next live waiter:
  /// a local one starts its step, a remote one gets a grant message.
  void LockReleaseLocal(const std::string& resource,
                        const InstanceId& instance, StepId step);
  void SendEngineMessage(NodeId to, const std::string& type,
                         const std::string& payload);

  runtime::ConflictTracker& tracker() {
    return shared_tracker_ != nullptr ? *shared_tracker_ : own_tracker_;
  }

  void PersistInstanceStatus(const Instance& inst);
  sim::LoadCategory LoadFor(sim::MsgCategory mode) const;

  NodeId id_;
  sim::Context* ctx_;
  const runtime::ProgramRegistry* programs_;
  const model::Deployment* deployment_;
  const runtime::CoordinationSpec* coordination_;
  EngineOptions options_;

  std::map<std::string, model::CompiledSchemaPtr> schemas_;
  /// Instances that have not been retired yet.
  std::map<InstanceId, std::unique_ptr<Instance>> instances_;
  /// Retired instances. The call that retired one may still hold its
  /// pointer further up the stack, so they are freed at the next
  /// HandleMessage.
  std::vector<std::unique_ptr<Instance>> retired_;

  /// What stays of an ended instance: its status and its final data
  /// table, encoded by storage::WriteFields. Records restored from the
  /// WFDB carry the status only.
  struct ArchiveRecord {
    runtime::WorkflowState status = runtime::WorkflowState::kUnknown;
    std::string data;
  };
  std::map<InstanceId, ArchiveRecord> archive_;

  /// Watches on leading instances of this engine.
  RoWatches ro_watch_;
  /// Parallel control: watches on *remote* leading instances, resolved by
  /// coordination broadcasts.
  RoWatches remote_ro_watch_;
  /// Coordination-event log built from broadcasts: completed coordination
  /// -relevant steps of running instances, and ended instances, at peer
  /// engines. An instance's done entries go when it ends.
  std::set<std::pair<InstanceId, StepId>> coord_done_log_;
  std::set<InstanceId> coord_ended_log_;

  /// Locks of the resources this engine arbitrates.
  runtime::MutexTable locks_;

  /// Last-known load per agent, learned from RunProgramReply acks.
  std::map<NodeId, int64_t> agent_load_;

  runtime::ConflictTracker own_tracker_;
  runtime::ConflictTracker* shared_tracker_ = nullptr;
  const ParallelTopology* topology_ = nullptr;

  storage::Database wfdb_;
  int64_t committed_count_ = 0;
  int64_t aborted_count_ = 0;
};

}  // namespace crew::central

#endif  // CREW_CENTRAL_ENGINE_H_
