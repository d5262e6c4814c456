#ifndef CREW_RUNTIME_PACKET_H_
#define CREW_RUNTIME_PACKET_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/flat_map.h"
#include "common/ids.h"
#include "common/small_vector.h"
#include "common/status.h"
#include "common/value.h"
#include "rules/token.h"
#include "runtime/codec.h"

namespace crew::runtime {

/// One relative-ordering obligation carried with a workflow instance
/// (the "R.O. Leading / R.O. Lagging" lines of the sample packet in
/// Figure 7). `leading == true` means *this* instance leads: after
/// executing `my_step` the agent must notify the lagging instance's
/// agent with an AddEvent. `leading == false` means this instance lags:
/// the rule firing `my_step` gets an AddPrecondition on the leading
/// instance's corresponding step.done.
struct RoLink {
  InstanceId other;          ///< the other instance of the ordered pair
  StepId my_step = kInvalidStep;
  StepId other_step = kInvalidStep;
  bool leading = false;

  bool operator==(const RoLink& o) const {
    return other == o.other && my_step == o.my_step &&
           other_step == o.other_step && leading == o.leading;
  }
};

/// A rollback-dependency binding carried with the *leading* instance:
/// if this instance rolls back to or above `my_step`, the dependent
/// instance must be rolled back to `other_step` (§3 rollback dependency).
struct RdLink {
  InstanceId other;  ///< the dependent (lagging) instance
  StepId my_step = kInvalidStep;
  StepId other_step = kInvalidStep;

  bool operator==(const RdLink& o) const {
    return other == o.other && my_step == o.my_step &&
           other_step == o.other_step;
  }
};

/// One event occurrence carried in a packet: the token, its occurrence
/// number at the producing instance (so loop iterations re-post and
/// duplicate fan-out packets do not), and the epoch it was produced in
/// (so halt-thread invalidation never kills newer-epoch events).
///
/// In memory the token is interned (rules::EventToken); the spelled-out
/// name only exists on the wire — WorkflowPacket::Parse() interns it and
/// WorkflowPacket::Serialize() writes the name.
struct EventOcc {
  rules::EventToken token = rules::kInvalidEventToken;
  int64_t occ = 1;
  int64_t epoch = 0;

  EventOcc() = default;
  EventOcc(rules::EventToken t, int64_t o, int64_t e)
      : token(t), occ(o), epoch(e) {}
  /// Convenience: interns `name` (tests and cold call sites).
  EventOcc(std::string_view name, int64_t o, int64_t e)
      : token(rules::InternToken(name)), occ(o), epoch(e) {}

  /// Spelled-out token name.
  std::string_view name() const { return rules::TokenName(token); }
};

/// Packet container aliases: sorted flat tables backed by inline
/// (SmallVector) storage for the small fixed-shape entries (step->agent
/// pairs, event occurrences, links), so ordinary packets build, merge
/// and parse those tables with no heap allocation; oversized packets
/// spill transparently. The data table stays std::vector-backed:
/// measured on BM_PacketParseBinary, inlining its string+Value pairs
/// made packets slower at every size (the fat inline block bloats the
/// struct past what the saved allocation buys back).
using PacketDataMap =
    FlatMap<std::string, Value,
            std::vector<std::pair<std::string, Value>>>;
using PacketExecMap =
    FlatMap<StepId, NodeId, SmallVector<std::pair<StepId, NodeId>, 8>>;
using PacketEventList = SmallVector<EventOcc, 8>;
using PacketRoList = SmallVector<RoLink, 4>;
using PacketRdList = SmallVector<RdLink, 4>;

/// The workflow packet exchanged between distributed agents (§4.1,
/// Figure 7). It accumulates the instance's state as control flows from
/// agent to agent: data items, (valid) events, which agent executed which
/// step, relative-ordering obligations, and the re-execution epoch.
struct WorkflowPacket {
  InstanceId instance;
  StepId target_step = kInvalidStep;  ///< Action: Execute S<target_step>
  int64_t epoch = 0;                  ///< re-execution generation
  /// Coordination agent chosen at start time by the front end's
  /// placement policy; kInvalidNode on packets predating placement
  /// (receivers fall back to the static eligible-first rule).
  NodeId coordinator = kInvalidNode;

  // The two tables are flat sorted vectors, not std::map: packets are
  // filled once (from the instance snapshot or from sorted wire input,
  // both O(1) appends) and then scanned in order by the codecs, so the
  // node-per-entry allocation and pointer chasing of a tree map was pure
  // overhead on the serialize/parse hot path.
  PacketDataMap data;                         ///< data table snapshot
  PacketEventList events;                     ///< valid event occurrences
  PacketExecMap executed_by;                  ///< step -> executing agent
  PacketRoList ro_links;                      ///< ordering obligations
  PacketRdList rd_links;                      ///< rollback dependencies

  /// Binary wire form (runtime/fields.h); its size is the wire size
  /// used for byte metrics.
  static constexpr BinMsgId kWireId = BinMsgId::kPacket;
  template <class M, class F>
  static void Fields(M& m, F& f) {
    f.Str(1, m.instance.workflow, kRequired);
    f.Int(2, m.instance.number, kRequired);
    f.Int(3, m.target_step, kRequired);
    f.Int(4, m.epoch);
    if (f.Has(m.coordinator != kInvalidNode)) f.Int(10, m.coordinator);
    f.Map(5, m.data);
    f.List(6, m.events);
    f.Map(7, m.executed_by);
    f.List(8, m.ro_links);
    f.List(9, m.rd_links);
  }
  std::string Serialize() const;
  static Result<WorkflowPacket> Parse(const std::string& payload);
};

}  // namespace crew::runtime

#endif  // CREW_RUNTIME_PACKET_H_
