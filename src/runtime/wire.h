#ifndef CREW_RUNTIME_WIRE_H_
#define CREW_RUNTIME_WIRE_H_

#include <map>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "common/value.h"
#include "runtime/packet.h"

namespace crew::runtime {

/// Wire type names for every workflow interface of Table 1, plus the
/// CompensateThread() interface of §5.2 and the reply types. Message
/// dispatch keys on these strings.
namespace wi {
inline constexpr char kWorkflowStart[] = "WorkflowStart";
inline constexpr char kWorkflowChangeInputs[] = "WorkflowChangeInputs";
inline constexpr char kWorkflowAbort[] = "WorkflowAbort";
inline constexpr char kWorkflowStatus[] = "WorkflowStatus";
inline constexpr char kWorkflowStatusReply[] = "WorkflowStatusReply";
inline constexpr char kInputsChanged[] = "InputsChanged";
inline constexpr char kStepExecute[] = "StepExecute";
inline constexpr char kStepCompensate[] = "StepCompensate";
inline constexpr char kStepCompleted[] = "StepCompleted";
inline constexpr char kStepStatus[] = "StepStatus";
inline constexpr char kStepStatusReply[] = "StepStatusReply";
inline constexpr char kWorkflowRollback[] = "WorkflowRollback";
inline constexpr char kHaltThread[] = "HaltThread";
inline constexpr char kCompensateSet[] = "CompensateSet";
inline constexpr char kCompensateThread[] = "CompensateThread";
inline constexpr char kStateInformation[] = "StateInformation";
inline constexpr char kStateInformationReply[] = "StateInformationReply";
inline constexpr char kAddRule[] = "AddRule";
inline constexpr char kAddEvent[] = "AddEvent";
inline constexpr char kAddPrecondition[] = "AddPrecondition";
/// Engine-internal (central/parallel): dispatch a step program to a thin
/// agent and return the outcome.
inline constexpr char kRunProgram[] = "RunProgram";
inline constexpr char kRunProgramReply[] = "RunProgramReply";
/// Sent by the coordination agent when an instance commits or aborts,
/// to the agents eligible for one of its steps, so each drops its state
/// for the instance (§4.2 end).
inline constexpr char kPurgeInstances[] = "PurgeInstances";
}  // namespace wi

/// Instance status values surfaced by WorkflowStatus (coordination
/// instance summary table).
enum class WorkflowState { kUnknown, kExecuting, kCommitted, kAborted };
const char* WorkflowStateName(WorkflowState state);
WorkflowState ParseWorkflowState(const std::string& name);

/// Step status values surfaced by StepStatus (§5.2 predecessor-failure
/// protocol).
enum class StepRunState {
  kUnknown,      // this agent has no record of the step
  kExecuting,
  kDone,
  kFailed,
  kCompensated,
};
const char* StepRunStateName(StepRunState state);
StepRunState ParseStepRunState(const std::string& name);

// ---- Typed payloads. Each lists its wire layout once, in Fields()
// (runtime/fields.h), and Serialize()/Parse() are generated from that
// list; agents construct the sim::Message around them. ----

struct WorkflowStartMsg {
  InstanceId instance;
  std::map<std::string, Value> inputs;
  NodeId reply_to = kInvalidNode;  ///< front end to notify on commit/abort
  /// Coordinated-execution bindings established by the front end at start
  /// time (this instance lags the `other` instances of lagging links).
  std::vector<RoLink> ro_links;
  std::vector<RdLink> rd_links;
  /// Nested workflows: the parent instance/step awaiting this child.
  InstanceId parent;            ///< empty workflow => top-level
  StepId parent_step = kInvalidStep;
  static constexpr BinMsgId kWireId = BinMsgId::kWorkflowStart;
  template <class M, class F>
  static void Fields(M& m, F& f) {
    f.Str(1, m.instance.workflow);
    f.Int(2, m.instance.number);
    f.Int(3, m.reply_to);
    f.Map(4, m.inputs);
    f.List(5, m.ro_links);
    f.List(6, m.rd_links);
    if (f.Has(!m.parent.workflow.empty())) {  // top-level: no parent
      f.Str(7, m.parent.workflow);
      f.Int(8, m.parent.number);
      f.Int(9, m.parent_step);
    }
  }
  std::string Serialize() const;
  static Result<WorkflowStartMsg> Parse(const std::string& payload);
};

struct WorkflowChangeInputsMsg {
  InstanceId instance;
  std::map<std::string, Value> new_inputs;
  /// Set by the coordination agent when relaying as InputsChanged: the
  /// step the rollback re-starts from.
  StepId origin_step = kInvalidStep;
  static constexpr BinMsgId kWireId = BinMsgId::kWorkflowChangeInputs;
  template <class M, class F>
  static void Fields(M& m, F& f) {
    f.Str(1, m.instance.workflow);
    f.Int(2, m.instance.number);
    f.Int(3, m.origin_step);
    f.Map(4, m.new_inputs);
  }
  std::string Serialize() const;
  static Result<WorkflowChangeInputsMsg> Parse(const std::string& payload);
};

struct WorkflowAbortMsg {
  InstanceId instance;
  static constexpr BinMsgId kWireId = BinMsgId::kWorkflowAbort;
  template <class M, class F>
  static void Fields(M& m, F& f) {
    f.Str(1, m.instance.workflow);
    f.Int(2, m.instance.number);
  }
  std::string Serialize() const;
  static Result<WorkflowAbortMsg> Parse(const std::string& payload);
};

struct WorkflowStatusMsg {
  InstanceId instance;
  NodeId reply_to = kInvalidNode;
  static constexpr BinMsgId kWireId = BinMsgId::kWorkflowStatus;
  template <class M, class F>
  static void Fields(M& m, F& f) {
    f.Str(1, m.instance.workflow);
    f.Int(2, m.instance.number);
    f.Int(3, m.reply_to);
  }
  std::string Serialize() const;
  static Result<WorkflowStatusMsg> Parse(const std::string& payload);
};

struct WorkflowStatusReplyMsg {
  InstanceId instance;
  WorkflowState state = WorkflowState::kUnknown;
  static constexpr BinMsgId kWireId = BinMsgId::kWorkflowStatusReply;
  template <class M, class F>
  static void Fields(M& m, F& f) {
    f.Str(1, m.instance.workflow);
    f.Int(2, m.instance.number);
    f.Enum(3, m.state, WorkflowState::kAborted);
  }
  std::string Serialize() const;
  static Result<WorkflowStatusReplyMsg> Parse(const std::string& payload);
};

/// StepExecute carries the whole workflow packet.
struct StepExecuteMsg {
  WorkflowPacket packet;
  static constexpr BinMsgId kWireId = WorkflowPacket::kWireId;
  template <class M, class F>
  static void Fields(M& m, F& f) {
    WorkflowPacket::Fields(m.packet, f);
  }
  std::string Serialize() const;
  static Result<StepExecuteMsg> Parse(const std::string& payload);
};

struct StepCompensateMsg {
  InstanceId instance;
  StepId step = kInvalidStep;
  int64_t epoch = 0;
  static constexpr BinMsgId kWireId = BinMsgId::kStepCompensate;
  template <class M, class F>
  static void Fields(M& m, F& f) {
    f.Str(1, m.instance.workflow);
    f.Int(2, m.instance.number);
    f.Int(3, m.step);
    f.Int(4, m.epoch);
  }
  std::string Serialize() const;
  static Result<StepCompensateMsg> Parse(const std::string& payload);
};

/// Termination agent -> coordination agent: a terminal step finished.
/// Carries only completion info, not the full packet (§4.2).
struct StepCompletedMsg {
  InstanceId instance;
  StepId step = kInvalidStep;
  int64_t epoch = 0;
  /// Terminal data the coordination agent archives with the instance.
  std::map<std::string, Value> results;
  static constexpr BinMsgId kWireId = BinMsgId::kStepCompleted;
  template <class M, class F>
  static void Fields(M& m, F& f) {
    f.Str(1, m.instance.workflow);
    f.Int(2, m.instance.number);
    f.Int(3, m.step);
    f.Int(4, m.epoch);
    f.Map(5, m.results);
  }
  std::string Serialize() const;
  static Result<StepCompletedMsg> Parse(const std::string& payload);
};

struct StepStatusMsg {
  InstanceId instance;
  StepId step = kInvalidStep;
  NodeId reply_to = kInvalidNode;
  static constexpr BinMsgId kWireId = BinMsgId::kStepStatus;
  template <class M, class F>
  static void Fields(M& m, F& f) {
    f.Str(1, m.instance.workflow);
    f.Int(2, m.instance.number);
    f.Int(3, m.step);
    f.Int(4, m.reply_to);
  }
  std::string Serialize() const;
  static Result<StepStatusMsg> Parse(const std::string& payload);
};

struct StepStatusReplyMsg {
  InstanceId instance;
  StepId step = kInvalidStep;
  StepRunState state = StepRunState::kUnknown;
  NodeId responder = kInvalidNode;
  static constexpr BinMsgId kWireId = BinMsgId::kStepStatusReply;
  template <class M, class F>
  static void Fields(M& m, F& f) {
    f.Str(1, m.instance.workflow);
    f.Int(2, m.instance.number);
    f.Int(3, m.step);
    f.Enum(4, m.state, StepRunState::kCompensated);
    f.Int(5, m.responder);
  }
  std::string Serialize() const;
  static Result<StepStatusReplyMsg> Parse(const std::string& payload);
};

/// Sent to the agent responsible for the rollback-target step (§5.2).
/// Carries the current packet state so the target agent can re-start
/// execution from the origin step after halting.
struct WorkflowRollbackMsg {
  InstanceId instance;
  StepId origin_step = kInvalidStep;
  int64_t new_epoch = 0;
  WorkflowPacket state;  ///< state as known at the failure site
  static constexpr BinMsgId kWireId = BinMsgId::kWorkflowRollback;
  template <class M, class F>
  static void Fields(M& m, F& f) {
    f.Str(1, m.instance.workflow);
    f.Int(2, m.instance.number);
    f.Int(3, m.origin_step);
    f.Int(4, m.new_epoch);
    f.Packet(5, m.state, kRequired);
  }
  std::string Serialize() const;
  static Result<WorkflowRollbackMsg> Parse(const std::string& payload);
};

/// Probe quiescing a thread of control (§5.2): invalidate step.done
/// events of steps downstream of origin_step, stop forwarding packets,
/// propagate to successors already contacted.
struct HaltThreadMsg {
  InstanceId instance;
  StepId origin_step = kInvalidStep;
  int64_t new_epoch = 0;
  static constexpr BinMsgId kWireId = BinMsgId::kHaltThread;
  template <class M, class F>
  static void Fields(M& m, F& f) {
    f.Str(1, m.instance.workflow);
    f.Int(2, m.instance.number);
    f.Int(3, m.origin_step);
    f.Int(4, m.new_epoch);
  }
  std::string Serialize() const;
  static Result<HaltThreadMsg> Parse(const std::string& payload);
};

/// Reverse-order compensation chain over a compensation dependent set.
/// `remaining` is the StepList (execution order); the receiving agent
/// compensates the last entry it executed and forwards the shortened
/// list (§5.2). When the list is exhausted, `resume` is sent back to
/// `resume_agent` as a StepExecute.
struct CompensateSetMsg {
  InstanceId instance;
  StepId origin_step = kInvalidStep;
  std::vector<StepId> remaining;
  int64_t epoch = 0;
  NodeId resume_agent = kInvalidNode;
  WorkflowPacket resume;  ///< packet to re-deliver once the set is done
  static constexpr BinMsgId kWireId = BinMsgId::kCompensateSet;
  template <class M, class F>
  static void Fields(M& m, F& f) {
    f.Str(1, m.instance.workflow);
    f.Int(2, m.instance.number);
    f.Int(3, m.origin_step);
    f.Int(4, m.epoch);
    f.Int(5, m.resume_agent);
    f.List(6, m.remaining);
    f.Packet(7, m.resume, kRequired);
  }
  std::string Serialize() const;
  static Result<CompensateSetMsg> Parse(const std::string& payload);
};

/// Compensates the abandoned branch after an if-then-else re-execution
/// switched branches (§5.2): walks agent-to-agent from the branch entry
/// until the confluence step.
struct CompensateThreadMsg {
  InstanceId instance;
  StepId step = kInvalidStep;        ///< step to compensate at receiver
  StepId until_join = kInvalidStep;  ///< stop before this confluence step
  int64_t epoch = 0;
  static constexpr BinMsgId kWireId = BinMsgId::kCompensateThread;
  template <class M, class F>
  static void Fields(M& m, F& f) {
    f.Str(1, m.instance.workflow);
    f.Int(2, m.instance.number);
    f.Int(3, m.step);
    f.Int(4, m.until_join);
    f.Int(5, m.epoch);
  }
  std::string Serialize() const;
  static Result<CompensateThreadMsg> Parse(const std::string& payload);
};

struct StateInformationMsg {
  NodeId reply_to = kInvalidNode;
  /// Election context: instance+step the query concerns (empty workflow
  /// name for plain load probes).
  InstanceId instance;
  StepId step = kInvalidStep;
  static constexpr BinMsgId kWireId = BinMsgId::kStateInformation;
  template <class M, class F>
  static void Fields(M& m, F& f) {
    f.Str(1, m.instance.workflow);
    f.Int(2, m.instance.number);
    f.Int(3, m.reply_to);
    f.Int(4, m.step);
  }
  std::string Serialize() const;
  static Result<StateInformationMsg> Parse(const std::string& payload);
};

struct StateInformationReplyMsg {
  NodeId responder = kInvalidNode;
  int64_t load = 0;  ///< queue length / active steps at the responder
  InstanceId instance;
  StepId step = kInvalidStep;
  static constexpr BinMsgId kWireId = BinMsgId::kStateInformationReply;
  template <class M, class F>
  static void Fields(M& m, F& f) {
    f.Str(1, m.instance.workflow);
    f.Int(2, m.instance.number);
    f.Int(3, m.responder);
    f.Int(4, m.load);
    f.Int(5, m.step);
  }
  std::string Serialize() const;
  static Result<StateInformationReplyMsg> Parse(const std::string& payload);
};

/// AddRule(): registers an interest/ordering rule at another agent. The
/// rule is transported in a compact form: trigger events + action step.
struct AddRuleMsg {
  InstanceId instance;
  std::string rule_id;
  std::vector<std::string> trigger_events;
  std::string condition_source;  ///< optional expression text
  StepId action_step = kInvalidStep;
  static constexpr BinMsgId kWireId = BinMsgId::kAddRule;
  template <class M, class F>
  static void Fields(M& m, F& f) {
    f.Str(1, m.instance.workflow);
    f.Int(2, m.instance.number);
    f.Str(3, m.rule_id, kNonEmpty);
    f.List(4, m.trigger_events);
    if (f.Has(!m.condition_source.empty())) f.Str(5, m.condition_source);
    f.Int(6, m.action_step);
  }
  std::string Serialize() const;
  static Result<AddRuleMsg> Parse(const std::string& payload);
};

struct AddEventMsg {
  InstanceId instance;
  std::string event_token;
  static constexpr BinMsgId kWireId = BinMsgId::kAddEvent;
  template <class M, class F>
  static void Fields(M& m, F& f) {
    f.Str(1, m.instance.workflow);
    f.Int(2, m.instance.number);
    f.Str(3, m.event_token, kRequired);
  }
  std::string Serialize() const;
  static Result<AddEventMsg> Parse(const std::string& payload);
};

/// The paper's remote AddPrecondition. No node sends or handles it: an
/// RO gate is added where the lagging instance lives
/// (InstanceState::GateStep).
struct AddPreconditionMsg {
  InstanceId instance;
  std::string rule_id;
  std::string event_token;
  static constexpr BinMsgId kWireId = BinMsgId::kAddPrecondition;
  template <class M, class F>
  static void Fields(M& m, F& f) {
    f.Str(1, m.instance.workflow);
    f.Int(2, m.instance.number);
    f.Str(3, m.rule_id);
    f.Str(4, m.event_token);
  }
  std::string Serialize() const;
  static Result<AddPreconditionMsg> Parse(const std::string& payload);
};

/// Engine -> agent program dispatch (central/parallel control). The
/// engine sends the step information to *every* eligible agent (so any
/// of them can take over on failure, and all return their load); only
/// `designated` runs the program, the rest acknowledge. This redundant
/// fan-out is the engine<->agent exchange the paper's 2·s·a message
/// expression models (see DESIGN.md §5).
struct RunProgramMsg {
  InstanceId instance;
  StepId step = kInvalidStep;
  std::string program;
  int attempt = 1;
  bool compensation = false;
  /// Fraction of the nominal cost to charge (OCR partial/incremental).
  double cost_fraction = 1.0;
  int64_t nominal_cost = 0;
  NodeId designated = kInvalidNode;
  std::map<std::string, Value> inputs;
  NodeId reply_to = kInvalidNode;
  int64_t epoch = 0;
  static constexpr BinMsgId kWireId = BinMsgId::kRunProgram;
  template <class M, class F>
  static void Fields(M& m, F& f) {
    f.Str(1, m.instance.workflow);
    f.Int(2, m.instance.number);
    f.Int(3, m.step);
    f.Str(4, m.program, kNonEmpty);
    f.Int(5, m.attempt);
    f.Flag(6, m.compensation);
    f.Ppm(7, m.cost_fraction);
    f.Int(8, m.nominal_cost);
    f.Int(9, m.designated);
    f.Int(10, m.reply_to);
    f.Int(11, m.epoch);
    f.Map(12, m.inputs);
  }
  std::string Serialize() const;
  static Result<RunProgramMsg> Parse(const std::string& payload);
};

struct RunProgramReplyMsg {
  InstanceId instance;
  StepId step = kInvalidStep;
  bool ack_only = false;  ///< non-designated agent's acknowledgement
  bool success = false;
  bool compensation = false;
  int64_t cost = 0;
  int64_t epoch = 0;
  int64_t agent_load = 0;  ///< responder's current load (for selection)
  NodeId responder = kInvalidNode;
  std::map<std::string, Value> outputs;
  static constexpr BinMsgId kWireId = BinMsgId::kRunProgramReply;
  template <class M, class F>
  static void Fields(M& m, F& f) {
    f.Str(1, m.instance.workflow);
    f.Int(2, m.instance.number);
    f.Int(3, m.step);
    f.Flag(4, m.ack_only);
    f.Flag(5, m.success);
    f.Flag(6, m.compensation);
    f.Int(7, m.cost);
    f.Int(8, m.epoch);
    f.Int(9, m.agent_load);
    f.Int(10, m.responder);
    f.Map(11, m.outputs);
  }
  std::string Serialize() const;
  static Result<RunProgramReplyMsg> Parse(const std::string& payload);
};

struct PurgeInstancesMsg {
  std::vector<InstanceId> committed;
  static constexpr BinMsgId kWireId = BinMsgId::kPurgeInstances;
  template <class M, class F>
  static void Fields(M& m, F& f) {
    f.List(1, m.committed);
  }
  std::string Serialize() const;
  static Result<PurgeInstancesMsg> Parse(const std::string& payload);
};

}  // namespace crew::runtime

#endif  // CREW_RUNTIME_WIRE_H_
