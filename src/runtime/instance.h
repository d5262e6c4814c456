#ifndef CREW_RUNTIME_INSTANCE_H_
#define CREW_RUNTIME_INSTANCE_H_

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/value.h"
#include "expr/eval.h"
#include "model/compiled.h"
#include "runtime/packet.h"
#include "runtime/wire.h"

namespace crew::rules {
class RuleEngine;
}  // namespace crew::rules

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
/// instance table (data + context), the step status table, and the
/// bookkeeping the distributed protocols need (epoch, halt flags,
/// forwarded-to sets, RO obligations). In distributed control each agent
/// holds a *partial* copy, merged from arriving packets; in centralized
/// control the engine's copy is complete.
class InstanceState {
 public:
  InstanceState() = default;
  InstanceState(InstanceId id, model::CompiledSchemaPtr schema)
      : id_(std::move(id)), schema_(std::move(schema)) {}

  const InstanceId& id() const { return id_; }
  const model::CompiledSchemaPtr& schema() const { return schema_; }

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

  // ---- epochs & halting (distributed failure handling) ----
  int64_t epoch() const { return epoch_; }
  void set_epoch(int64_t epoch) { epoch_ = epoch; }
  /// True while a HaltThread for `>= epoch` quiesced this node's thread:
  /// completions must not forward packets.
  bool halted() const { return halted_; }
  void set_halted(bool halted) { halted_ = halted; }

  /// Agents this node already forwarded packets to for this instance
  /// (per target step), so HaltThread can chase them (§5.2).
  void NoteForwarded(StepId step, NodeId agent);
  const std::map<StepId, std::vector<NodeId>>& forwarded() const {
    return forwarded_;
  }

  // ---- event occurrence table ----
  /// Per-token occurrence tracking mirroring the packet's event entries.
  /// Keyed by interned EventToken (see rules/token.h).
  struct EventEntry {
    int64_t occ = 0;
    int64_t epoch = 0;
    bool valid = false;
  };

  /// Merges an event occurrence from a packet. Returns true iff the
  /// occurrence is *fresh* here (new token or higher occurrence number) —
  /// only then should the caller Post() it into the rule engine.
  bool MergeEvent(const EventOcc& event);

  /// Posts a locally generated occurrence (occ+1 at the current epoch).
  EventOcc PostLocalEvent(rules::EventToken token);
  EventOcc PostLocalEvent(std::string_view token);  ///< interns

  /// Invalidates step.done/step.fail events of steps downstream of
  /// `origin` (inclusive) that were produced under an epoch older than
  /// `new_epoch`. Returns the invalidated tokens so the caller can
  /// Invalidate() them in the rule engine. WF-level events are untouched.
  std::vector<rules::EventToken> InvalidateDownstream(StepId origin,
                                                      int64_t new_epoch);

  /// Fires every rule of `rules` that can fire now and returns the steps
  /// they start, each once, in firing order.
  std::vector<StepId> FireableSteps(rules::RuleEngine* rules) const;

  /// Posts a local occurrence of `token` here and into `rules`.
  void PostEvent(rules::EventToken token, rules::RuleEngine* rules);

  /// Rollback/halt reset of `origin` and everything downstream (§5.2):
  /// invalidates their events older than `new_epoch` here and in `rules`,
  /// re-arms the rules that fire them, and clears their in-flight and
  /// `starting` marks. Returns how many had run or were running here.
  int64_t ResetDownstream(StepId origin, int64_t new_epoch,
                          rules::RuleEngine* rules,
                          std::set<StepId>* starting);

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

  // ---- per-step outcomes ----
  /// Records a successful run of `step` at `agent`: its outputs join the
  /// data table as "S<step>.<output>", `inputs` and the outputs become
  /// the OCR snapshot, and the record is done at the current epoch.
  void RecordSuccess(StepId step, NodeId agent,
                     const std::map<std::string, Value>& outputs,
                     std::map<std::string, Value> inputs);

  /// Posts step.fail of `step` here and into `rules`; true when its
  /// failure policy gives up (attempts exhausted or no rollback target),
  /// false when the instance rolls back to the policy's target.
  bool RecordFailure(StepId step, rules::RuleEngine* rules);

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

  /// Applies an arriving packet: merge data, RO links, executed_by.
  /// (Events go to the rule engine, owned by the caller.)
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
  std::map<std::string, Value> data_;
  std::map<StepId, StepRecord> steps_;
  std::map<StepId, NodeId> executed_by_;
  std::map<StepId, std::vector<NodeId>> forwarded_;
  /// Branch entry last taken at each choice split.
  std::map<StepId, StepId> taken_branch_;
  std::vector<RoLink> ro_links_;
  std::vector<RdLink> rd_links_;
  std::unordered_map<rules::EventToken, EventEntry> events_;
  int64_t exec_seq_ = 0;
  int64_t epoch_ = 0;
  bool halted_ = false;
  NodeId coordinator_ = kInvalidNode;
};

}  // namespace crew::runtime

#endif  // CREW_RUNTIME_INSTANCE_H_
