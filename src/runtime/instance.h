#ifndef CREW_RUNTIME_INSTANCE_H_
#define CREW_RUNTIME_INSTANCE_H_

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/value.h"
#include "expr/eval.h"
#include "model/compiled.h"
#include "obs/trace.h"
#include "rules/engine.h"
#include "runtime/coord.h"
#include "runtime/packet.h"
#include "runtime/wire.h"
#include "sim/metrics.h"

namespace crew::runtime {

/// Per-step execution record within an instance (the "step status table").
/// `state` records the last *completed* outcome; `in_flight` marks a
/// program run in progress (the two together yield the StepStatus wire
/// answer: in_flight => "executing").
struct StepRecord {
  StepRunState state = StepRunState::kUnknown;
  bool in_flight = false;
  int attempts = 0;          ///< program invocations so far
  int64_t exec_seq = 0;      ///< global order stamp of the last completion
  int64_t epoch = -1;        ///< epoch of the last completion
  NodeId executed_by = kInvalidNode;
  /// Inputs as seen at the last execution — drives changed() in OCR
  /// re-execution conditions.
  std::map<std::string, Value> prev_inputs;
  /// Outputs of the last execution — reused when OCR decides kReuse.
  std::map<std::string, Value> prev_outputs;
};

/// The state of one workflow instance as known at one node: the workflow
/// instance table (data + context), the step status table, its event
/// table and rule firing state over the schema's shared rule program,
/// starting steps, ME claims and traffic mode, and the bookkeeping the
/// distributed protocols need (epoch, forwarded-to sets, RO obligations).
/// In distributed control each agent holds a *partial* copy, merged from
/// arriving packets; in centralized control the engine's copy is
/// complete.
class InstanceState {
 public:
  InstanceState() = default;
  /// Fires from `schema`'s rule program; installs nothing.
  InstanceState(InstanceId id, model::CompiledSchemaPtr schema);

  const InstanceId& id() const { return id_; }
  const model::CompiledSchemaPtr& schema() const { return schema_; }
  /// The event table and the firing state of the schema's rules.
  const rules::FiringState& rules() const { return rules_; }
  /// ME locks its steps asked for and, of those, the ones granted.
  MutexClaims& me() { return me_; }

  /// Category of the traffic the instance generates right now: normal,
  /// or the recovery (failure, input change, abort) it is in.
  sim::MsgCategory mode() const { return mode_; }
  void set_mode(sim::MsgCategory mode) { mode_ = mode; }

  // ---- data table ----
  void SetData(const std::string& item, Value value);
  std::optional<Value> GetData(const std::string& item) const;
  const std::map<std::string, Value>& data() const { return data_; }
  /// Merges items from a packet (packet values win: they are newer).
  void MergeData(const std::map<std::string, Value>& data);
  void MergeData(const PacketDataMap& data);

  // ---- step status table ----
  StepRecord& step_record(StepId step) { return steps_[step]; }
  const StepRecord* FindStepRecord(StepId step) const;
  StepRunState StepState(StepId step) const;
  /// Next global execution sequence stamp.
  int64_t NextExecSeq() { return ++exec_seq_; }
  /// Current (last issued) execution sequence stamp.
  int64_t exec_seq() const { return exec_seq_; }

  // ---- epochs (distributed failure handling) ----
  int64_t epoch() const { return epoch_; }
  void set_epoch(int64_t epoch) { epoch_ = epoch; }

  /// Agents this node already forwarded packets to for this instance
  /// (per target step), so HaltThread can chase them (§5.2).
  void NoteForwarded(StepId step, NodeId agent);
  const std::map<StepId, std::vector<NodeId>>& forwarded() const {
    return forwarded_;
  }

  // ---- event occurrence table ----
  // One entry per interned EventToken (see rules/token.h), held by the
  // rule firing state: the packet's (occ, epoch) plus the post stamp.

  /// Merges an event occurrence from a packet and posts it into the
  /// rules iff it is *fresh* here (new token or higher occurrence
  /// number); returns whether it was.
  bool MergeEvent(const EventOcc& event);

  /// Posts a locally generated occurrence of `token` (occ+1 at the
  /// current epoch) and returns it.
  EventOcc PostEvent(rules::EventToken token);

  /// Invalidates step.done/step.fail events of steps downstream of
  /// `origin` (inclusive) that were produced under an epoch older than
  /// `new_epoch`, and returns them. WF-level events are untouched.
  std::vector<rules::EventToken> InvalidateDownstream(StepId origin,
                                                      int64_t new_epoch);

  /// Fires every rule that can fire now and returns the steps they
  /// start, each once, in firing order.
  std::vector<StepId> FireableSteps();

  /// True when one of the rules that start `step` has all its events
  /// valid and its condition true now, fired or not.
  bool Triggerable(StepId step) const {
    return rules_.Triggerable(step, DataEnv());
  }

  /// Rollback/halt reset of `origin` and everything downstream (§5.2):
  /// invalidates their events older than `new_epoch`, re-arms the rules
  /// that fire them, and clears their in-flight and starting marks.
  /// Returns how many had run or were running here.
  int64_t ResetDownstream(StepId origin, int64_t new_epoch);

  /// All currently valid event occurrences (packet payload), ordered by
  /// token name (the wire order of the original string-keyed table).
  std::vector<EventOcc> ValidEvents() const;

  bool EventValid(rules::EventToken token) const;
  bool EventValid(std::string_view token) const;

  // ---- relative ordering obligations ----
  /// `Links` is any range of RoLink (std::vector from wire messages,
  /// PacketRoList from packets).
  template <typename Links>
  void MergeRoLinks(const Links& links) {
    for (const RoLink& link : links) {
      if (std::find(ro_links_.begin(), ro_links_.end(), link) ==
          ro_links_.end()) {
        ro_links_.push_back(link);
      }
    }
  }
  const std::vector<RoLink>& ro_links() const { return ro_links_; }

  /// RO gating of a lagging step: adds `token` as a precondition of
  /// every rule that fires `step`, in this instance only. False when no
  /// rule was guarded.
  bool GateStep(StepId step, rules::EventToken token) {
    return rules_.Gate(step, token);
  }

  // ---- rollback dependency obligations ----
  template <typename Links>
  void MergeRdLinks(const Links& links) {
    for (const RdLink& link : links) {
      if (std::find(rd_links_.begin(), rd_links_.end(), link) ==
          rd_links_.end()) {
        rd_links_.push_back(link);
      }
    }
  }
  const std::vector<RdLink>& rd_links() const { return rd_links_; }

  // ---- step lifecycle ----
  /// The start guard: marks `step` starting and returns true, unless it
  /// is in flight or already starting.
  bool TryStart(StepId step);
  bool starting(StepId step) const { return starting_.count(step) > 0; }
  /// Clears the starting mark of a step that blocked, ran or gave up.
  void EndStart(StepId step) { starting_.erase(step); }

  /// A compensation finished: the record reads compensated and
  /// step.compensated is posted.
  void RecordCompensated(StepId step);

  // ---- per-step outcomes ----
  /// Records a successful run of `step` at `agent`: its outputs join the
  /// data table as "S<step>.<output>", `inputs` and the outputs become
  /// the OCR snapshot, and the record is done at the current epoch.
  void RecordSuccess(StepId step, NodeId agent,
                     const std::map<std::string, Value>& outputs,
                     std::map<std::string, Value> inputs);

  /// Posts step.fail of `step` here and into the rules; true when its
  /// failure policy gives up (attempts exhausted or no rollback target),
  /// false when the instance rolls back to the policy's target.
  bool RecordFailure(StepId step);

  /// Re-evaluates choice split `split_step` and remembers the successor
  /// it selects now (the first arc whose condition holds, else the else
  /// arc) in `*chosen`. Returns the entry of the branch it selected
  /// before when that differs (the abandoned branch, to compensate), else
  /// kInvalidStep.
  StepId SwitchBranch(StepId split_step, StepId* chosen);

  // ---- input snapshots for OCR ----
  /// Resolves the declared inputs of `step` from the data table.
  std::map<std::string, Value> ResolveInputs(StepId step) const;

  /// Environment for evaluating a rule/arc condition: looks up the data
  /// table only.
  expr::FunctionEnvironment DataEnv() const;
  /// Environment for a step's OCR re-execution condition: current data
  /// table + the step's previous-execution snapshot.
  expr::FunctionEnvironment OcrEnv(StepId step) const;

  /// Applies an arriving packet: merges data, RO and RD links,
  /// executed_by, epoch and coordinator, and posts every event
  /// occurrence that is fresh here into the rules.
  void MergePacket(const WorkflowPacket& packet);

  /// Builds the outgoing packet state: full data table, executed_by map
  /// and RO links (events are supplied by the caller).
  WorkflowPacket MakePacket(StepId target_step) const;

  const std::map<StepId, NodeId>& executed_by() const {
    return executed_by_;
  }
  void SetExecutedBy(StepId step, NodeId agent);

  // ---- coordination agent (placement) ----
  /// The coordination agent the front end placed this instance at;
  /// kInvalidNode until a packet (or the coordinating agent itself)
  /// establishes it. Sticky: first valid value wins.
  NodeId coordinator() const { return coordinator_; }
  void set_coordinator(NodeId node) {
    if (coordinator_ == kInvalidNode) coordinator_ = node;
  }

 private:
  InstanceId id_;
  model::CompiledSchemaPtr schema_;
  rules::FiringState rules_;
  /// Steps whose start is underway (blocks duplicate fires).
  std::set<StepId> starting_;
  MutexClaims me_;
  sim::MsgCategory mode_ = sim::MsgCategory::kNormal;
  std::map<std::string, Value> data_;
  std::map<StepId, StepRecord> steps_;
  std::map<StepId, NodeId> executed_by_;
  std::map<StepId, std::vector<NodeId>> forwarded_;
  /// Branch entry last taken at each choice split.
  std::map<StepId, StepId> taken_branch_;
  std::vector<RoLink> ro_links_;
  std::vector<RdLink> rd_links_;
  int64_t exec_seq_ = 0;
  int64_t epoch_ = 0;
  NodeId coordinator_ = kInvalidNode;
};

// ---- step lifecycle ----
// What the central engine and a dist agent at `node` both do as a step
// starts and ends, with its trace records.

/// TryStart, then the step span opens in the instance's traffic mode
/// (the first Begin wins, so a lock-blocked re-entry keeps the original
/// start). False, with nothing traced, when the guard refuses.
bool BeginStep(obs::Tracer& tr, NodeId node, InstanceState* state,
               StepId step);
/// After the step's ME acquire: when it blocked, opens mutex.wait and
/// clears the starting mark so the grant can re-enter, and returns false;
/// else closes the wait of a grant resume (a step that never blocked has
/// no open span, and the End is dropped).
bool PassMutexGate(obs::Tracer& tr, NodeId node, InstanceState* state,
                   StepId step, bool acquired);
/// The completion prologue: closes the step span as "reused" or "done"
/// and posts step.done. A first-attempt run that was not a reuse sets the
/// mode back to normal: recovery has passed the re-executed region.
void StepDone(obs::Tracer& tr, NodeId node, InstanceState* state,
              StepId step, bool reused);
/// Closes the step span as "failed", marks step.failed (valued at the
/// attempts so far) and returns RecordFailure.
bool StepFailed(obs::Tracer& tr, NodeId node, InstanceState* state,
                StepId step);
/// One-shot delivery of an RO ordering token: closes its ro.wait span
/// and posts it, unless it is valid already (a duplicate must not re-fire
/// the gated rule). True when it was posted.
bool DeliverOrderToken(obs::Tracer& tr, NodeId node, InstanceState* state,
                       rules::EventToken token);

}  // namespace crew::runtime

#endif  // CREW_RUNTIME_INSTANCE_H_
