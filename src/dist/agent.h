#ifndef CREW_DIST_AGENT_H_
#define CREW_DIST_AGENT_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
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

namespace crew::dist {

struct AgentOptions {
  /// Navigation-and-other load per step (Table 3's l).
  int64_t navigation_load = 100;
  /// Directory for the durable AGDB; empty => in-memory only.
  std::string agdb_dir;
  /// Simulated ticks a program run occupies before completing.
  sim::Time exec_latency = 2;
  /// Pending-rule timeout before the predecessor-failure protocol kicks
  /// in (§5.2), in ticks.
  sim::Time pending_timeout = 40;
  /// Delay before an aborted instance is purged (lets in-flight
  /// compensations land first).
  sim::Time purge_delay = 50;
  /// When true, leader election among eligible successor agents also
  /// exchanges StateInformation probes (metered as kElection traffic).
  /// The election itself is decided deterministically either way.
  bool election_probes = false;
};

/// The full agent of distributed workflow control (§4). Each agent plays
/// every role of the paper's taxonomy as needed:
///  - *execution agent*: navigates via its rule engine, executes step
///    programs locally, and forwards workflow packets to successor
///    agents;
///  - *termination agent*: reports terminal-step completion to the
///    instance's coordination agent via StepCompleted();
///  - *coordination agent*: for instances whose start step it owns —
///    handles WorkflowStart/Abort/ChangeInputs/Status, the commit
///    decision over terminal groups, and the end-of-instance purge.
///
/// All sixteen workflow interfaces of Table 1 (plus CompensateThread)
/// arrive as messages and are dispatched in HandleMessage.
class Agent : public sim::MessageHandler {
 public:
  Agent(NodeId id, sim::Context* context,
        const runtime::ProgramRegistry* programs,
        const model::Deployment* deployment,
        const runtime::CoordinationSpec* coordination,
        std::vector<NodeId> all_agents, AgentOptions options = {});

  Agent(const Agent&) = delete;
  Agent& operator=(const Agent&) = delete;

  NodeId id() const { return id_; }

  void RegisterSchema(model::CompiledSchemaPtr schema);

  void HandleMessage(const sim::Message& message) override;

  /// Crash-restart recovery (§5.2): drops every piece of volatile state
  /// — exactly what dies with the process — then replays the durable
  /// AGDB through Database::RestartRecover and rebuilds the coordination
  /// summary, counters and in-flight coordination entries from it. The
  /// rt backend installs this as the node's recovery hook so the
  /// in-process crash path and a killed-and-restarted crew_node process
  /// run the same code. No-op for an in-memory (non-durable) AGDB.
  void RecoverFromLog();

  // ---- introspection ----
  runtime::WorkflowState CoordinationStatus(
      const InstanceId& instance) const;
  /// Final data archived by the coordination agent at commit.
  std::map<std::string, Value> ArchivedData(
      const InstanceId& instance) const;
  int64_t committed_count() const { return committed_count_; }
  int64_t aborted_count() const { return aborted_count_; }
  size_t live_instances() const { return instances_.size(); }
  /// Instances coordinated here that have not been purged yet.
  size_t coordinating_instances() const { return coordinating_.size(); }
  /// Failure-protocol and nesting entries held: outstanding StepStatus
  /// polls, poll times and launched children.
  size_t protocol_entries() const {
    return polls_.size() + last_poll_.size() + children_.size();
  }
  const storage::Database& agdb() const { return agdb_; }

 private:
  /// Per-instance execution-agent state.
  struct AgentInstance {
    runtime::InstanceState state;
    /// Steps whose comp-dep chain is out and awaiting the resume packet.
    std::set<StepId> awaiting_comp_resume;
    /// RO links for which the lagging-side registration was sent.
    std::set<rules::EventToken> ro_registered;
    /// Highest halt epoch processed (dedupes halt storms).
    int64_t last_halt_epoch = -1;
    /// Progress marker at the last RD-induced rollback (ring guard).
    int64_t last_rd_rollback_seq = -1;
  };

  /// Coordination-agent state for instances started here.
  struct CoordInstance {
    model::CompiledSchemaPtr schema;
    runtime::WorkflowState status = runtime::WorkflowState::kExecuting;
    NodeId reply_to = kInvalidNode;
    /// group index -> highest epoch a completion was reported for.
    std::map<int, int64_t> groups_done;
    std::map<std::string, Value> results;
    InstanceId parent;  ///< non-empty workflow => nested child
    StepId parent_step = kInvalidStep;
    sim::Time started_at = 0;  ///< arrival tick (commit sojourn metric)
  };

  AgentInstance* FindInstance(const InstanceId& instance);
  /// nullptr for an unknown schema or an instance purged here.
  AgentInstance* GetOrCreateInstance(const InstanceId& instance);
  model::CompiledSchemaPtr FindSchema(const std::string& workflow);

  void Send(NodeId to, const std::string& type, const std::string& payload,
            sim::MsgCategory category);

  // ---- WI handlers ----
  void OnWorkflowStart(const sim::Message& message);
  void OnStepExecute(const sim::Message& message);
  void OnStepCompleted(const sim::Message& message);
  void OnWorkflowRollback(const sim::Message& message);
  void OnHaltThread(const sim::Message& message);
  void OnCompensateSet(const sim::Message& message);
  void OnCompensateThread(const sim::Message& message);
  void OnStepCompensate(const sim::Message& message);
  void OnWorkflowAbort(const sim::Message& message);
  void OnWorkflowChangeInputs(const sim::Message& message);
  void OnInputsChanged(const sim::Message& message);
  void OnWorkflowStatus(const sim::Message& message);
  void OnStepStatus(const sim::Message& message);
  void OnStepStatusReply(const sim::Message& message);
  void OnStateInformation(const sim::Message& message);
  void OnAddRule(const sim::Message& message);
  void OnAddEvent(const sim::Message& message);
  void OnPurgeInstances(const sim::Message& message);
  /// WorkflowStatusReply to `to`, unless it is kInvalidNode.
  void ReplyStatus(NodeId to, const InstanceId& instance,
                   runtime::WorkflowState state);

  // ---- execution-agent machinery ----
  void Pump(AgentInstance* inst);
  /// True if this agent is the elected executor for (instance, step).
  bool ElectedExecutor(AgentInstance* inst, StepId step);
  /// The deterministic election every agent computes alike: among the
  /// step's eligible agents that are up, the one at (instance number +
  /// step) mod their count; kInvalidNode when all are down.
  NodeId ElectAmongLiving(const InstanceId& instance, StepId step) const;
  void StartStepLocal(AgentInstance* inst, StepId step);
  void RunProgramLocal(AgentInstance* inst, StepId step,
                       double cost_fraction);
  void CompensateLocal(AgentInstance* inst, StepId step,
                       std::function<void()> then);
  void OnStepDoneLocal(AgentInstance* inst, StepId step, bool reused);
  void OnStepFailedLocal(AgentInstance* inst, StepId step);
  void ForwardPackets(AgentInstance* inst, StepId completed_step);
  void SendPacketTo(AgentInstance* inst, StepId target,
                    const std::vector<NodeId>& eligible);
  void HandleBranchSwitch(AgentInstance* inst, StepId split_step);
  void LocalHalt(AgentInstance* inst, StepId origin, int64_t new_epoch,
                 bool propagate);
  void ApplyRoGating(AgentInstance* inst);
  void NotifyRoRegistrants(const InstanceId& instance, StepId step);
  /// Tells `registrant` that the leading step behind RO `token` is done.
  void SendRoNotice(NodeId registrant, const InstanceId& instance,
                    const std::string& token);
  bool AcquireMutexesDistributed(AgentInstance* inst, StepId step);
  void ReleaseMutexesDistributed(AgentInstance* inst, StepId step);
  void LaunchSubWorkflow(AgentInstance* inst, StepId step);
  void SchedulePendingCheck(const InstanceId& instance);
  void CheckPendingRules(const InstanceId& instance);
  void PersistStepRecord(const InstanceId& instance, StepId step);

  /// Rebuilds the archive records, counters and the coordinating_
  /// entries of still-executing instances from the recovered AGDB
  /// tables. Idempotent (skips instances already coordinated or
  /// archived), so it runs after every RegisterSchema — an executing
  /// instance can only be rebuilt once its schema is known — and again
  /// after RecoverFromLog.
  void RebuildFromAgdb();

  // ---- coordination-agent machinery ----
  void MaybeCommit(const InstanceId& instance);
  /// Sends PurgeInstances to PurgeTargets(instance) and purges locally.
  void Purge(const InstanceId& instance);
  /// Agents a purge of `instance` must reach: its eligibility footprint
  /// (union of eligible agents over every schema step — executors,
  /// coordinator, arbiters and RO registration sites all live there).
  std::vector<NodeId> PurgeTargets(const InstanceId& instance);
  /// Drops this agent's state for an ended instance: marks it ended,
  /// hands every mutual-exclusion grant it still holds back to the
  /// arbiter, erases the replica and its AGDB step rows, retires the
  /// coordination entry into its archive record (deleting its
  /// coord_groups rows), drops its StepStatus polls, poll times and
  /// launched children, and resolves RO registrations parked on it.
  void PurgeLocal(const InstanceId& instance);
  NodeId CoordinationAgentOf(const AgentInstance& inst) const;
  /// Where `step` of `instance` ran (so where its compensation or
  /// rollback must go): the recorded executor, else its first eligible
  /// agent; kInvalidNode when the step has no eligible agent.
  NodeId ExecutorOf(const InstanceId& instance, StepId step);

  /// Arbiter node for a mutual-exclusion resource: the lowest eligible
  /// agent of the requirement's first critical step.
  NodeId MutexArbiter(const runtime::MutexReq& req) const;

  NodeId id_;
  sim::Context* ctx_;
  const runtime::ProgramRegistry* programs_;
  const model::Deployment* deployment_;
  const runtime::CoordinationSpec* coordination_;
  std::vector<NodeId> all_agents_;
  AgentOptions options_;
  Rng rng_;

  std::map<std::string, model::CompiledSchemaPtr> schemas_;
  std::map<InstanceId, std::unique_ptr<AgentInstance>> instances_;
  /// Instances coordinated here, from WorkflowStart to their purge.
  std::map<InstanceId, CoordInstance> coordinating_;

  /// What stays of a purged coordinated instance: its final status, the
  /// address a late WorkflowAbort is answered at, and the results of a
  /// commit, encoded by storage::WriteFields. Records rebuilt from
  /// coord_summary carry the status only.
  struct ArchiveRecord {
    runtime::WorkflowState status = runtime::WorkflowState::kUnknown;
    NodeId reply_to = kInvalidNode;
    std::string results;
  };
  std::map<InstanceId, ArchiveRecord> archive_;

  /// RO registrations received via AddRule: (instance, step) -> list of
  /// (registrant agent, token to deliver).
  std::map<std::pair<InstanceId, StepId>,
           std::vector<std::pair<NodeId, std::string>>>
      ro_registrations_;
  /// Instances known ended (purges) — registrations on them resolve
  /// immediately, and mutex grants for them are handed straight back.
  std::set<InstanceId> ended_instances_;

  /// Locks of the resources arbitrated here.
  runtime::MutexTable locks_;

  /// Nested workflows launched from here: child -> (parent, step).
  std::map<InstanceId, std::pair<InstanceId, StepId>> children_;
  int64_t child_counter_ = 0;

  /// Predecessor-failure protocol: outstanding StepStatus polls.
  struct StatusPoll {
    InstanceId instance;
    StepId step = kInvalidStep;
    int outstanding = 0;
    int skipped_down = 0;  ///< eligible agents unreachable when polled
    bool any_done = false;
    bool any_executing = false;
  };

  /// Acts on a completed StepStatus poll round (§5.2): someone has the
  /// result -> wait for its packet; all reachable agents unknown and a
  /// query step (or nobody unreachable at all, so the work is simply
  /// lost) -> re-request execution at the elected living agent; an
  /// update step with an unreachable agent -> wait and re-poll after the
  /// recovery window.
  void ResolvePoll(const StatusPoll& poll);
  std::map<std::pair<InstanceId, StepId>, StatusPoll> polls_;
  /// Rate limiter: last poll time per (instance, step).
  std::map<std::pair<InstanceId, StepId>, sim::Time> last_poll_;

  storage::Database agdb_;
  int64_t committed_count_ = 0;
  int64_t aborted_count_ = 0;
  int64_t active_programs_ = 0;
};

}  // namespace crew::dist

#endif  // CREW_DIST_AGENT_H_
