#include "runtime/wire.h"

#include "runtime/codec.h"

namespace crew::runtime {
namespace {

// ---- binary payload helpers (runtime/codec.h) ----
//
// Every message is [kBinaryMagic][BinMsgId][TLV fields]. A field tag is
// one byte, (field_number << 2) | wire_type, wire type 0 = varint (also
// used for counted sections — the count follows the tag), wire type 1 =
// length-prefixed bytes. Signed ints are zigzag varints. Fields with
// empty/default composite values are simply omitted. See DESIGN.md §5i.

constexpr uint8_t TagI(int field) {
  return static_cast<uint8_t>(field << 2);
}
constexpr uint8_t TagS(int field) {
  return static_cast<uint8_t>((field << 2) | 1);
}

constexpr size_t kIntFieldBound = 1 + kMaxVarintBytes;

size_t StrFieldBound(std::string_view s) { return 1 + BytesBound(s); }

size_t MapSectionBound(const std::map<std::string, Value>& m) {
  if (m.empty()) return 0;
  size_t bound = 1 + 5;  // tag + count
  for (const auto& [name, value] : m) {
    bound += BytesBound(name) + ValueBound(value);
  }
  return bound;
}

size_t RoSectionBound(const std::vector<RoLink>& links) {
  if (links.empty()) return 0;
  size_t bound = 1 + 5;
  for (const RoLink& link : links) {
    bound += BytesBound(link.other.workflow) + 3 * kMaxVarintBytes + 1;
  }
  return bound;
}

size_t RdSectionBound(const std::vector<RdLink>& links) {
  if (links.empty()) return 0;
  size_t bound = 1 + 5;
  for (const RdLink& link : links) {
    bound += BytesBound(link.other.workflow) + 3 * kMaxVarintBytes;
  }
  return bound;
}

void WriteRoSection(BinWriter& w, int field,
                    const std::vector<RoLink>& links) {
  if (links.empty()) return;
  w.U8(TagI(field));
  w.Varint(links.size());
  for (const RoLink& link : links) {
    w.Bytes(link.other.workflow);
    w.Zig(link.other.number);
    w.Zig(link.my_step);
    w.Zig(link.other_step);
    w.U8(link.leading ? 1 : 0);
  }
}

void WriteRdSection(BinWriter& w, int field,
                    const std::vector<RdLink>& links) {
  if (links.empty()) return;
  w.U8(TagI(field));
  w.Varint(links.size());
  for (const RdLink& link : links) {
    w.Bytes(link.other.workflow);
    w.Zig(link.other.number);
    w.Zig(link.my_step);
    w.Zig(link.other_step);
  }
}

bool ReadLinkBin(BinReader& r, InstanceId* other, StepId* my_step,
                 StepId* other_step) {
  std::string_view wf;
  int64_t number, mine, theirs;
  if (!r.Bytes(&wf) || !r.Zig(&number) || !r.Zig(&mine) || !r.Zig(&theirs)) {
    return false;
  }
  other->workflow.assign(wf);
  other->number = number;
  *my_step = static_cast<StepId>(mine);
  *other_step = static_cast<StepId>(theirs);
  return true;
}

bool ReadRoSection(BinReader& r, std::vector<RoLink>* out) {
  uint64_t count;
  if (!r.Varint(&count) || count > r.remaining()) return false;
  for (uint64_t i = 0; i < count; ++i) {
    RoLink link;
    uint8_t leading;
    if (!ReadLinkBin(r, &link.other, &link.my_step, &link.other_step) ||
        !r.U8(&leading)) {
      return false;
    }
    link.leading = leading != 0;
    out->push_back(std::move(link));
  }
  return true;
}

bool ReadRdSection(BinReader& r, std::vector<RdLink>* out) {
  uint64_t count;
  if (!r.Varint(&count) || count > r.remaining()) return false;
  for (uint64_t i = 0; i < count; ++i) {
    RdLink link;
    if (!ReadLinkBin(r, &link.other, &link.my_step, &link.other_step)) {
      return false;
    }
    out->push_back(std::move(link));
  }
  return true;
}

bool ReadMapSection(BinReader& r, std::map<std::string, Value>* out) {
  uint64_t count;
  if (!r.Varint(&count) || count > r.remaining()) return false;
  // The writer emits keys in map order, so appending at end() is the
  // common case and keeps insertion O(1) per entry.
  auto hint = out->end();
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view name;
    Value value;
    if (!r.Bytes(&name) || !ReadValue(r, &value)) return false;
    hint = out->emplace_hint(hint, std::string(name), std::move(value));
    ++hint;
  }
  return true;
}

/// Writer facade for one binary message: magic + id, then tagged fields.
class MsgWriter {
 public:
  MsgWriter(std::string* out, size_t bound, BinMsgId id)
      : w_(out, bound + 2) {
    w_.U8(kBinaryMagic);
    w_.U8(static_cast<uint8_t>(id));
  }
  void Int(int field, int64_t v) {
    w_.U8(TagI(field));
    w_.Zig(v);
  }
  void Str(int field, std::string_view s) {
    w_.U8(TagS(field));
    w_.Bytes(s);
  }
  void Map(int field, const std::map<std::string, Value>& m) {
    if (m.empty()) return;
    w_.U8(TagI(field));
    w_.Varint(m.size());
    for (const auto& [name, value] : m) {
      w_.Bytes(name);
      WriteValue(w_, value);
    }
  }
  void Finish() { w_.Finish(); }
  BinWriter& w() { return w_; }

 private:
  BinWriter w_;
};

/// Reader facade: drives the TLV loop, delegating each tag to a
/// per-message lambda that returns false on malformed/unknown fields.
class MsgReader {
 public:
  explicit MsgReader(const std::string& payload)
      : r_(std::string_view(payload).substr(2)) {}

  template <typename F>
  Status Drive(const char* what, F&& field) {
    while (!r_.done()) {
      uint8_t tag = 0;
      r_.U8(&tag);
      if (!field(tag)) {
        return Status::Corruption(std::string("malformed binary ") + what +
                                  " payload");
      }
    }
    return Status::OK();
  }

  bool Str(std::string* out) {
    std::string_view s;
    if (!r_.Bytes(&s)) return false;
    out->assign(s);
    return true;
  }
  bool View(std::string_view* out) { return r_.Bytes(out); }
  bool Int(int64_t* v) { return r_.Zig(v); }
  template <typename T>
  bool IntAs(T* v) {
    int64_t x;
    if (!r_.Zig(&x)) return false;
    *v = static_cast<T>(x);
    return true;
  }
  bool Flag(bool* v) {
    int64_t x;
    if (!r_.Zig(&x)) return false;
    *v = x != 0;
    return true;
  }
  bool Map(std::map<std::string, Value>* m) { return ReadMapSection(r_, m); }
  BinReader& r() { return r_; }

 private:
  BinReader r_;
};

Status CheckBinId(const std::string& payload, BinMsgId id,
                  const char* what) {
  if (payload.size() < 2 ||
      static_cast<unsigned char>(payload[0]) != kBinaryMagic ||
      static_cast<uint8_t>(payload[1]) != static_cast<uint8_t>(id)) {
    return Status::Corruption(std::string("binary payload is not ") + what);
  }
  return Status::OK();
}

size_t InstanceBound(const InstanceId& instance) {
  return StrFieldBound(instance.workflow) + kIntFieldBound;
}

}  // namespace

const char* WorkflowStateName(WorkflowState state) {
  switch (state) {
    case WorkflowState::kUnknown: return "unknown";
    case WorkflowState::kExecuting: return "executing";
    case WorkflowState::kCommitted: return "committed";
    case WorkflowState::kAborted: return "aborted";
  }
  return "?";
}

WorkflowState ParseWorkflowState(const std::string& name) {
  if (name == "executing") return WorkflowState::kExecuting;
  if (name == "committed") return WorkflowState::kCommitted;
  if (name == "aborted") return WorkflowState::kAborted;
  return WorkflowState::kUnknown;
}

const char* StepRunStateName(StepRunState state) {
  switch (state) {
    case StepRunState::kUnknown: return "unknown";
    case StepRunState::kExecuting: return "executing";
    case StepRunState::kDone: return "done";
    case StepRunState::kFailed: return "failed";
    case StepRunState::kCompensated: return "compensated";
  }
  return "?";
}

StepRunState ParseStepRunState(const std::string& name) {
  if (name == "executing") return StepRunState::kExecuting;
  if (name == "done") return StepRunState::kDone;
  if (name == "failed") return StepRunState::kFailed;
  if (name == "compensated") return StepRunState::kCompensated;
  return StepRunState::kUnknown;
}

// ---- WorkflowStartMsg ----

std::string WorkflowStartMsg::Serialize() const {
  std::string out;
  MsgWriter w(&out,
              InstanceBound(instance) + kIntFieldBound +
                  MapSectionBound(inputs) + RoSectionBound(ro_links) +
                  RdSectionBound(rd_links) +
                  StrFieldBound(parent.workflow) + 2 * kIntFieldBound,
              BinMsgId::kWorkflowStart);
  w.Str(1, instance.workflow);
  w.Int(2, instance.number);
  w.Int(3, reply_to);
  w.Map(4, inputs);
  WriteRoSection(w.w(), 5, ro_links);
  WriteRdSection(w.w(), 6, rd_links);
  if (!parent.workflow.empty()) {
    w.Str(7, parent.workflow);
    w.Int(8, parent.number);
    w.Int(9, parent_step);
  }
  w.Finish();
  return out;
}

Result<WorkflowStartMsg> WorkflowStartMsg::Parse(
    const std::string& payload) {
  CREW_RETURN_IF_ERROR(
      CheckBinId(payload, BinMsgId::kWorkflowStart, "WorkflowStart"));
  WorkflowStartMsg m;
  MsgReader r(payload);
  CREW_RETURN_IF_ERROR(r.Drive("WorkflowStart", [&](uint8_t tag) {
    switch (tag) {
      case TagS(1): return r.Str(&m.instance.workflow);
      case TagI(2): return r.Int(&m.instance.number);
      case TagI(3): return r.IntAs(&m.reply_to);
      case TagI(4): return r.Map(&m.inputs);
      case TagI(5): return ReadRoSection(r.r(), &m.ro_links);
      case TagI(6): return ReadRdSection(r.r(), &m.rd_links);
      case TagS(7): return r.Str(&m.parent.workflow);
      case TagI(8): return r.Int(&m.parent.number);
      case TagI(9): return r.IntAs(&m.parent_step);
      default: return false;
    }
  }));
  return m;
}

// ---- WorkflowChangeInputsMsg ----

std::string WorkflowChangeInputsMsg::Serialize() const {
  std::string out;
  MsgWriter w(&out,
              InstanceBound(instance) + kIntFieldBound +
                  MapSectionBound(new_inputs),
              BinMsgId::kWorkflowChangeInputs);
  w.Str(1, instance.workflow);
  w.Int(2, instance.number);
  w.Int(3, origin_step);
  w.Map(4, new_inputs);
  w.Finish();
  return out;
}

Result<WorkflowChangeInputsMsg> WorkflowChangeInputsMsg::Parse(
    const std::string& payload) {
  CREW_RETURN_IF_ERROR(CheckBinId(payload, BinMsgId::kWorkflowChangeInputs,
                                  "WorkflowChangeInputs"));
  WorkflowChangeInputsMsg m;
  MsgReader r(payload);
  CREW_RETURN_IF_ERROR(r.Drive("WorkflowChangeInputs", [&](uint8_t tag) {
    switch (tag) {
      case TagS(1): return r.Str(&m.instance.workflow);
      case TagI(2): return r.Int(&m.instance.number);
      case TagI(3): return r.IntAs(&m.origin_step);
      case TagI(4): return r.Map(&m.new_inputs);
      default: return false;
    }
  }));
  return m;
}

// ---- WorkflowAbortMsg ----

std::string WorkflowAbortMsg::Serialize() const {
  std::string out;
  MsgWriter w(&out, InstanceBound(instance), BinMsgId::kWorkflowAbort);
  w.Str(1, instance.workflow);
  w.Int(2, instance.number);
  w.Finish();
  return out;
}

Result<WorkflowAbortMsg> WorkflowAbortMsg::Parse(
    const std::string& payload) {
  CREW_RETURN_IF_ERROR(
      CheckBinId(payload, BinMsgId::kWorkflowAbort, "WorkflowAbort"));
  WorkflowAbortMsg m;
  MsgReader r(payload);
  CREW_RETURN_IF_ERROR(r.Drive("WorkflowAbort", [&](uint8_t tag) {
    switch (tag) {
      case TagS(1): return r.Str(&m.instance.workflow);
      case TagI(2): return r.Int(&m.instance.number);
      default: return false;
    }
  }));
  return m;
}

// ---- WorkflowStatusMsg ----

std::string WorkflowStatusMsg::Serialize() const {
  std::string out;
  MsgWriter w(&out, InstanceBound(instance) + kIntFieldBound,
              BinMsgId::kWorkflowStatus);
  w.Str(1, instance.workflow);
  w.Int(2, instance.number);
  w.Int(3, reply_to);
  w.Finish();
  return out;
}

Result<WorkflowStatusMsg> WorkflowStatusMsg::Parse(
    const std::string& payload) {
  CREW_RETURN_IF_ERROR(
      CheckBinId(payload, BinMsgId::kWorkflowStatus, "WorkflowStatus"));
  WorkflowStatusMsg m;
  MsgReader r(payload);
  CREW_RETURN_IF_ERROR(r.Drive("WorkflowStatus", [&](uint8_t tag) {
    switch (tag) {
      case TagS(1): return r.Str(&m.instance.workflow);
      case TagI(2): return r.Int(&m.instance.number);
      case TagI(3): return r.IntAs(&m.reply_to);
      default: return false;
    }
  }));
  return m;
}

// ---- WorkflowStatusReplyMsg ----

std::string WorkflowStatusReplyMsg::Serialize() const {
  std::string out;
  MsgWriter w(&out, InstanceBound(instance) + kIntFieldBound,
              BinMsgId::kWorkflowStatusReply);
  w.Str(1, instance.workflow);
  w.Int(2, instance.number);
  w.Int(3, static_cast<int64_t>(state));
  w.Finish();
  return out;
}

Result<WorkflowStatusReplyMsg> WorkflowStatusReplyMsg::Parse(
    const std::string& payload) {
  CREW_RETURN_IF_ERROR(CheckBinId(payload, BinMsgId::kWorkflowStatusReply,
                                  "WorkflowStatusReply"));
  WorkflowStatusReplyMsg m;
  MsgReader r(payload);
  CREW_RETURN_IF_ERROR(r.Drive("WorkflowStatusReply", [&](uint8_t tag) {
    switch (tag) {
      case TagS(1): return r.Str(&m.instance.workflow);
      case TagI(2): return r.Int(&m.instance.number);
      case TagI(3): {
        int64_t v;
        if (!r.Int(&v)) return false;
        m.state = (v >= 0 && v <= 3) ? static_cast<WorkflowState>(v)
                                     : WorkflowState::kUnknown;
        return true;
      }
      default: return false;
    }
  }));
  return m;
}

// ---- StepExecuteMsg ----

Result<StepExecuteMsg> StepExecuteMsg::Parse(const std::string& payload) {
  Result<WorkflowPacket> packet = WorkflowPacket::Parse(payload);
  if (!packet.ok()) return packet.status();
  return StepExecuteMsg{std::move(packet).value()};
}

// ---- StepCompensateMsg ----

std::string StepCompensateMsg::Serialize() const {
  std::string out;
  MsgWriter w(&out, InstanceBound(instance) + 2 * kIntFieldBound,
              BinMsgId::kStepCompensate);
  w.Str(1, instance.workflow);
  w.Int(2, instance.number);
  w.Int(3, step);
  w.Int(4, epoch);
  w.Finish();
  return out;
}

Result<StepCompensateMsg> StepCompensateMsg::Parse(
    const std::string& payload) {
  CREW_RETURN_IF_ERROR(
      CheckBinId(payload, BinMsgId::kStepCompensate, "StepCompensate"));
  StepCompensateMsg m;
  MsgReader r(payload);
  CREW_RETURN_IF_ERROR(r.Drive("StepCompensate", [&](uint8_t tag) {
    switch (tag) {
      case TagS(1): return r.Str(&m.instance.workflow);
      case TagI(2): return r.Int(&m.instance.number);
      case TagI(3): return r.IntAs(&m.step);
      case TagI(4): return r.Int(&m.epoch);
      default: return false;
    }
  }));
  return m;
}

// ---- StepCompletedMsg ----

std::string StepCompletedMsg::Serialize() const {
  std::string out;
  MsgWriter w(&out,
              InstanceBound(instance) + 2 * kIntFieldBound +
                  MapSectionBound(results),
              BinMsgId::kStepCompleted);
  w.Str(1, instance.workflow);
  w.Int(2, instance.number);
  w.Int(3, step);
  w.Int(4, epoch);
  w.Map(5, results);
  w.Finish();
  return out;
}

Result<StepCompletedMsg> StepCompletedMsg::Parse(
    const std::string& payload) {
  CREW_RETURN_IF_ERROR(
      CheckBinId(payload, BinMsgId::kStepCompleted, "StepCompleted"));
  StepCompletedMsg m;
  MsgReader r(payload);
  CREW_RETURN_IF_ERROR(r.Drive("StepCompleted", [&](uint8_t tag) {
    switch (tag) {
      case TagS(1): return r.Str(&m.instance.workflow);
      case TagI(2): return r.Int(&m.instance.number);
      case TagI(3): return r.IntAs(&m.step);
      case TagI(4): return r.Int(&m.epoch);
      case TagI(5): return r.Map(&m.results);
      default: return false;
    }
  }));
  return m;
}

// ---- StepStatusMsg ----

std::string StepStatusMsg::Serialize() const {
  std::string out;
  MsgWriter w(&out, InstanceBound(instance) + 2 * kIntFieldBound,
              BinMsgId::kStepStatus);
  w.Str(1, instance.workflow);
  w.Int(2, instance.number);
  w.Int(3, step);
  w.Int(4, reply_to);
  w.Finish();
  return out;
}

Result<StepStatusMsg> StepStatusMsg::Parse(const std::string& payload) {
  CREW_RETURN_IF_ERROR(
      CheckBinId(payload, BinMsgId::kStepStatus, "StepStatus"));
  StepStatusMsg m;
  MsgReader r(payload);
  CREW_RETURN_IF_ERROR(r.Drive("StepStatus", [&](uint8_t tag) {
    switch (tag) {
      case TagS(1): return r.Str(&m.instance.workflow);
      case TagI(2): return r.Int(&m.instance.number);
      case TagI(3): return r.IntAs(&m.step);
      case TagI(4): return r.IntAs(&m.reply_to);
      default: return false;
    }
  }));
  return m;
}

// ---- StepStatusReplyMsg ----

std::string StepStatusReplyMsg::Serialize() const {
  std::string out;
  MsgWriter w(&out, InstanceBound(instance) + 3 * kIntFieldBound,
              BinMsgId::kStepStatusReply);
  w.Str(1, instance.workflow);
  w.Int(2, instance.number);
  w.Int(3, step);
  w.Int(4, static_cast<int64_t>(state));
  w.Int(5, responder);
  w.Finish();
  return out;
}

Result<StepStatusReplyMsg> StepStatusReplyMsg::Parse(
    const std::string& payload) {
  CREW_RETURN_IF_ERROR(
      CheckBinId(payload, BinMsgId::kStepStatusReply, "StepStatusReply"));
  StepStatusReplyMsg m;
  MsgReader r(payload);
  CREW_RETURN_IF_ERROR(r.Drive("StepStatusReply", [&](uint8_t tag) {
    switch (tag) {
      case TagS(1): return r.Str(&m.instance.workflow);
      case TagI(2): return r.Int(&m.instance.number);
      case TagI(3): return r.IntAs(&m.step);
      case TagI(4): {
        int64_t v;
        if (!r.Int(&v)) return false;
        m.state = (v >= 0 && v <= 4) ? static_cast<StepRunState>(v)
                                     : StepRunState::kUnknown;
        return true;
      }
      case TagI(5): return r.IntAs(&m.responder);
      default: return false;
    }
  }));
  return m;
}

// ---- WorkflowRollbackMsg ----

std::string WorkflowRollbackMsg::Serialize() const {
  // The embedded packet rides as one length-prefixed field.
  std::string inner = state.Serialize();
  std::string out;
  MsgWriter w(&out,
              InstanceBound(instance) + 2 * kIntFieldBound +
                  StrFieldBound(inner),
              BinMsgId::kWorkflowRollback);
  w.Str(1, instance.workflow);
  w.Int(2, instance.number);
  w.Int(3, origin_step);
  w.Int(4, new_epoch);
  w.Str(5, inner);
  w.Finish();
  return out;
}

Result<WorkflowRollbackMsg> WorkflowRollbackMsg::Parse(
    const std::string& payload) {
  CREW_RETURN_IF_ERROR(
      CheckBinId(payload, BinMsgId::kWorkflowRollback, "WorkflowRollback"));
  WorkflowRollbackMsg m;
  std::string_view inner;
  bool saw_state = false;
  MsgReader r(payload);
  CREW_RETURN_IF_ERROR(r.Drive("WorkflowRollback", [&](uint8_t tag) {
    switch (tag) {
      case TagS(1): return r.Str(&m.instance.workflow);
      case TagI(2): return r.Int(&m.instance.number);
      case TagI(3): return r.IntAs(&m.origin_step);
      case TagI(4): return r.Int(&m.new_epoch);
      case TagS(5): saw_state = true; return r.View(&inner);
      default: return false;
    }
  }));
  if (!saw_state) {
    return Status::Corruption("WorkflowRollback missing embedded packet");
  }
  Result<WorkflowPacket> packet = WorkflowPacket::Parse(std::string(inner));
  if (!packet.ok()) return packet.status();
  m.state = std::move(packet).value();
  return m;
}

// ---- HaltThreadMsg ----

std::string HaltThreadMsg::Serialize() const {
  std::string out;
  MsgWriter w(&out, InstanceBound(instance) + 2 * kIntFieldBound,
              BinMsgId::kHaltThread);
  w.Str(1, instance.workflow);
  w.Int(2, instance.number);
  w.Int(3, origin_step);
  w.Int(4, new_epoch);
  w.Finish();
  return out;
}

Result<HaltThreadMsg> HaltThreadMsg::Parse(const std::string& payload) {
  CREW_RETURN_IF_ERROR(
      CheckBinId(payload, BinMsgId::kHaltThread, "HaltThread"));
  HaltThreadMsg m;
  MsgReader r(payload);
  CREW_RETURN_IF_ERROR(r.Drive("HaltThread", [&](uint8_t tag) {
    switch (tag) {
      case TagS(1): return r.Str(&m.instance.workflow);
      case TagI(2): return r.Int(&m.instance.number);
      case TagI(3): return r.IntAs(&m.origin_step);
      case TagI(4): return r.Int(&m.new_epoch);
      default: return false;
    }
  }));
  return m;
}

// ---- CompensateSetMsg ----

std::string CompensateSetMsg::Serialize() const {
  std::string inner = resume.Serialize();
  std::string out;
  size_t remaining_bound =
      remaining.empty() ? 0 : 1 + 5 + remaining.size() * kMaxVarintBytes;
  MsgWriter w(&out,
              InstanceBound(instance) + 3 * kIntFieldBound +
                  remaining_bound + StrFieldBound(inner),
              BinMsgId::kCompensateSet);
  w.Str(1, instance.workflow);
  w.Int(2, instance.number);
  w.Int(3, origin_step);
  w.Int(4, epoch);
  w.Int(5, resume_agent);
  if (!remaining.empty()) {
    w.w().U8(TagI(6));
    w.w().Varint(remaining.size());
    for (StepId s : remaining) w.w().Zig(s);
  }
  w.Str(7, inner);
  w.Finish();
  return out;
}

Result<CompensateSetMsg> CompensateSetMsg::Parse(
    const std::string& payload) {
  CREW_RETURN_IF_ERROR(
      CheckBinId(payload, BinMsgId::kCompensateSet, "CompensateSet"));
  CompensateSetMsg m;
  std::string_view inner;
  bool saw_resume = false;
  MsgReader r(payload);
  CREW_RETURN_IF_ERROR(r.Drive("CompensateSet", [&](uint8_t tag) {
    switch (tag) {
      case TagS(1): return r.Str(&m.instance.workflow);
      case TagI(2): return r.Int(&m.instance.number);
      case TagI(3): return r.IntAs(&m.origin_step);
      case TagI(4): return r.Int(&m.epoch);
      case TagI(5): return r.IntAs(&m.resume_agent);
      case TagI(6): {
        uint64_t count;
        if (!r.r().Varint(&count) || count > r.r().remaining()) {
          return false;
        }
        for (uint64_t i = 0; i < count; ++i) {
          int64_t s;
          if (!r.r().Zig(&s)) return false;
          m.remaining.push_back(static_cast<StepId>(s));
        }
        return true;
      }
      case TagS(7): saw_resume = true; return r.View(&inner);
      default: return false;
    }
  }));
  if (!saw_resume) {
    return Status::Corruption("CompensateSet missing embedded packet");
  }
  Result<WorkflowPacket> packet = WorkflowPacket::Parse(std::string(inner));
  if (!packet.ok()) return packet.status();
  m.resume = std::move(packet).value();
  return m;
}

// ---- CompensateThreadMsg ----

std::string CompensateThreadMsg::Serialize() const {
  std::string out;
  MsgWriter w(&out, InstanceBound(instance) + 3 * kIntFieldBound,
              BinMsgId::kCompensateThread);
  w.Str(1, instance.workflow);
  w.Int(2, instance.number);
  w.Int(3, step);
  w.Int(4, until_join);
  w.Int(5, epoch);
  w.Finish();
  return out;
}

Result<CompensateThreadMsg> CompensateThreadMsg::Parse(
    const std::string& payload) {
  CREW_RETURN_IF_ERROR(
      CheckBinId(payload, BinMsgId::kCompensateThread, "CompensateThread"));
  CompensateThreadMsg m;
  MsgReader r(payload);
  CREW_RETURN_IF_ERROR(r.Drive("CompensateThread", [&](uint8_t tag) {
    switch (tag) {
      case TagS(1): return r.Str(&m.instance.workflow);
      case TagI(2): return r.Int(&m.instance.number);
      case TagI(3): return r.IntAs(&m.step);
      case TagI(4): return r.IntAs(&m.until_join);
      case TagI(5): return r.Int(&m.epoch);
      default: return false;
    }
  }));
  return m;
}

// ---- StateInformationMsg ----

std::string StateInformationMsg::Serialize() const {
  std::string out;
  MsgWriter w(&out, InstanceBound(instance) + 2 * kIntFieldBound,
              BinMsgId::kStateInformation);
  w.Str(1, instance.workflow);
  w.Int(2, instance.number);
  w.Int(3, reply_to);
  w.Int(4, step);
  w.Finish();
  return out;
}

Result<StateInformationMsg> StateInformationMsg::Parse(
    const std::string& payload) {
  CREW_RETURN_IF_ERROR(
      CheckBinId(payload, BinMsgId::kStateInformation, "StateInformation"));
  StateInformationMsg m;
  MsgReader r(payload);
  CREW_RETURN_IF_ERROR(r.Drive("StateInformation", [&](uint8_t tag) {
    switch (tag) {
      case TagS(1): return r.Str(&m.instance.workflow);
      case TagI(2): return r.Int(&m.instance.number);
      case TagI(3): return r.IntAs(&m.reply_to);
      case TagI(4): return r.IntAs(&m.step);
      default: return false;
    }
  }));
  return m;
}

// ---- StateInformationReplyMsg ----

std::string StateInformationReplyMsg::Serialize() const {
  std::string out;
  MsgWriter w(&out, InstanceBound(instance) + 3 * kIntFieldBound,
              BinMsgId::kStateInformationReply);
  w.Str(1, instance.workflow);
  w.Int(2, instance.number);
  w.Int(3, responder);
  w.Int(4, load);
  w.Int(5, step);
  w.Finish();
  return out;
}

Result<StateInformationReplyMsg> StateInformationReplyMsg::Parse(
    const std::string& payload) {
  CREW_RETURN_IF_ERROR(CheckBinId(payload, BinMsgId::kStateInformationReply,
                                  "StateInformationReply"));
  StateInformationReplyMsg m;
  MsgReader r(payload);
  CREW_RETURN_IF_ERROR(r.Drive("StateInformationReply", [&](uint8_t tag) {
    switch (tag) {
      case TagS(1): return r.Str(&m.instance.workflow);
      case TagI(2): return r.Int(&m.instance.number);
      case TagI(3): return r.IntAs(&m.responder);
      case TagI(4): return r.Int(&m.load);
      case TagI(5): return r.IntAs(&m.step);
      default: return false;
    }
  }));
  return m;
}

// ---- AddRuleMsg ----

std::string AddRuleMsg::Serialize() const {
  std::string out;
  size_t triggers_bound = trigger_events.empty() ? 0 : 1 + 5;
  for (const std::string& token : trigger_events) {
    triggers_bound += BytesBound(token);
  }
  MsgWriter w(&out,
              InstanceBound(instance) + StrFieldBound(rule_id) +
                  triggers_bound + StrFieldBound(condition_source) +
                  kIntFieldBound,
              BinMsgId::kAddRule);
  w.Str(1, instance.workflow);
  w.Int(2, instance.number);
  w.Str(3, rule_id);
  if (!trigger_events.empty()) {
    w.w().U8(TagI(4));
    w.w().Varint(trigger_events.size());
    for (const std::string& token : trigger_events) w.w().Bytes(token);
  }
  if (!condition_source.empty()) w.Str(5, condition_source);
  w.Int(6, action_step);
  w.Finish();
  return out;
}

Result<AddRuleMsg> AddRuleMsg::Parse(const std::string& payload) {
  CREW_RETURN_IF_ERROR(CheckBinId(payload, BinMsgId::kAddRule, "AddRule"));
  AddRuleMsg m;
  MsgReader r(payload);
  CREW_RETURN_IF_ERROR(r.Drive("AddRule", [&](uint8_t tag) {
    switch (tag) {
      case TagS(1): return r.Str(&m.instance.workflow);
      case TagI(2): return r.Int(&m.instance.number);
      case TagS(3): return r.Str(&m.rule_id);
      case TagI(4): {
        uint64_t count;
        if (!r.r().Varint(&count) || count > r.r().remaining()) {
          return false;
        }
        m.trigger_events.reserve(m.trigger_events.size() + count);
        for (uint64_t i = 0; i < count; ++i) {
          std::string_view token;
          if (!r.r().Bytes(&token)) return false;
          m.trigger_events.emplace_back(token);
        }
        return true;
      }
      case TagS(5): return r.Str(&m.condition_source);
      case TagI(6): return r.IntAs(&m.action_step);
      default: return false;
    }
  }));
  if (m.rule_id.empty()) {
    return Status::Corruption("AddRule missing rule id");
  }
  return m;
}

// ---- AddEventMsg ----

std::string AddEventMsg::Serialize() const {
  std::string out;
  MsgWriter w(&out, InstanceBound(instance) + StrFieldBound(event_token),
              BinMsgId::kAddEvent);
  w.Str(1, instance.workflow);
  w.Int(2, instance.number);
  w.Str(3, event_token);
  w.Finish();
  return out;
}

Result<AddEventMsg> AddEventMsg::Parse(const std::string& payload) {
  CREW_RETURN_IF_ERROR(
      CheckBinId(payload, BinMsgId::kAddEvent, "AddEvent"));
  AddEventMsg m;
  bool saw_event = false;
  MsgReader r(payload);
  CREW_RETURN_IF_ERROR(r.Drive("AddEvent", [&](uint8_t tag) {
    switch (tag) {
      case TagS(1): return r.Str(&m.instance.workflow);
      case TagI(2): return r.Int(&m.instance.number);
      case TagS(3): saw_event = true; return r.Str(&m.event_token);
      default: return false;
    }
  }));
  if (!saw_event) return Status::Corruption("AddEvent missing event");
  return m;
}

// ---- AddPreconditionMsg ----

std::string AddPreconditionMsg::Serialize() const {
  std::string out;
  MsgWriter w(&out,
              InstanceBound(instance) + StrFieldBound(rule_id) +
                  StrFieldBound(event_token),
              BinMsgId::kAddPrecondition);
  w.Str(1, instance.workflow);
  w.Int(2, instance.number);
  w.Str(3, rule_id);
  w.Str(4, event_token);
  w.Finish();
  return out;
}

Result<AddPreconditionMsg> AddPreconditionMsg::Parse(
    const std::string& payload) {
  CREW_RETURN_IF_ERROR(
      CheckBinId(payload, BinMsgId::kAddPrecondition, "AddPrecondition"));
  AddPreconditionMsg m;
  MsgReader r(payload);
  CREW_RETURN_IF_ERROR(r.Drive("AddPrecondition", [&](uint8_t tag) {
    switch (tag) {
      case TagS(1): return r.Str(&m.instance.workflow);
      case TagI(2): return r.Int(&m.instance.number);
      case TagS(3): return r.Str(&m.rule_id);
      case TagS(4): return r.Str(&m.event_token);
      default: return false;
    }
  }));
  return m;
}

// ---- RunProgramMsg ----

std::string RunProgramMsg::Serialize() const {
  std::string out;
  MsgWriter w(&out,
              InstanceBound(instance) + StrFieldBound(program) +
                  8 * kIntFieldBound + MapSectionBound(inputs),
              BinMsgId::kRunProgram);
  w.Str(1, instance.workflow);
  w.Int(2, instance.number);
  w.Int(3, step);
  w.Str(4, program);
  w.Int(5, attempt);
  w.Int(6, compensation ? 1 : 0);
  // Quantized to parts per million, so a parsed message re-encodes to
  // the same bytes.
  w.Int(7, static_cast<int64_t>(cost_fraction * 1'000'000));
  w.Int(8, nominal_cost);
  w.Int(9, designated);
  w.Int(10, reply_to);
  w.Int(11, epoch);
  w.Map(12, inputs);
  w.Finish();
  return out;
}

Result<RunProgramMsg> RunProgramMsg::Parse(const std::string& payload) {
  CREW_RETURN_IF_ERROR(
      CheckBinId(payload, BinMsgId::kRunProgram, "RunProgram"));
  RunProgramMsg m;
  MsgReader r(payload);
  CREW_RETURN_IF_ERROR(r.Drive("RunProgram", [&](uint8_t tag) {
    switch (tag) {
      case TagS(1): return r.Str(&m.instance.workflow);
      case TagI(2): return r.Int(&m.instance.number);
      case TagI(3): return r.IntAs(&m.step);
      case TagS(4): return r.Str(&m.program);
      case TagI(5): return r.IntAs(&m.attempt);
      case TagI(6): return r.Flag(&m.compensation);
      case TagI(7): {
        int64_t ppm;
        if (!r.Int(&ppm)) return false;
        m.cost_fraction = static_cast<double>(ppm) / 1'000'000.0;
        return true;
      }
      case TagI(8): return r.Int(&m.nominal_cost);
      case TagI(9): return r.IntAs(&m.designated);
      case TagI(10): return r.IntAs(&m.reply_to);
      case TagI(11): return r.Int(&m.epoch);
      case TagI(12): return r.Map(&m.inputs);
      default: return false;
    }
  }));
  if (m.program.empty()) {
    return Status::Corruption("RunProgram missing program");
  }
  return m;
}

// ---- RunProgramReplyMsg ----

std::string RunProgramReplyMsg::Serialize() const {
  std::string out;
  MsgWriter w(&out,
              InstanceBound(instance) + 8 * kIntFieldBound +
                  MapSectionBound(outputs),
              BinMsgId::kRunProgramReply);
  w.Str(1, instance.workflow);
  w.Int(2, instance.number);
  w.Int(3, step);
  w.Int(4, ack_only ? 1 : 0);
  w.Int(5, success ? 1 : 0);
  w.Int(6, compensation ? 1 : 0);
  w.Int(7, cost);
  w.Int(8, epoch);
  w.Int(9, agent_load);
  w.Int(10, responder);
  w.Map(11, outputs);
  w.Finish();
  return out;
}

Result<RunProgramReplyMsg> RunProgramReplyMsg::Parse(
    const std::string& payload) {
  CREW_RETURN_IF_ERROR(
      CheckBinId(payload, BinMsgId::kRunProgramReply, "RunProgramReply"));
  RunProgramReplyMsg m;
  MsgReader r(payload);
  CREW_RETURN_IF_ERROR(r.Drive("RunProgramReply", [&](uint8_t tag) {
    switch (tag) {
      case TagS(1): return r.Str(&m.instance.workflow);
      case TagI(2): return r.Int(&m.instance.number);
      case TagI(3): return r.IntAs(&m.step);
      case TagI(4): return r.Flag(&m.ack_only);
      case TagI(5): return r.Flag(&m.success);
      case TagI(6): return r.Flag(&m.compensation);
      case TagI(7): return r.Int(&m.cost);
      case TagI(8): return r.Int(&m.epoch);
      case TagI(9): return r.Int(&m.agent_load);
      case TagI(10): return r.IntAs(&m.responder);
      case TagI(11): return r.Map(&m.outputs);
      default: return false;
    }
  }));
  return m;
}

// ---- PurgeInstancesMsg ----

std::string PurgeInstancesMsg::Serialize() const {
  std::string out;
  size_t bound = committed.empty() ? 0 : 1 + 5;
  for (const InstanceId& id : committed) {
    bound += BytesBound(id.workflow) + kMaxVarintBytes;
  }
  MsgWriter w(&out, bound, BinMsgId::kPurgeInstances);
  if (!committed.empty()) {
    w.w().U8(TagI(1));
    w.w().Varint(committed.size());
    for (const InstanceId& id : committed) {
      w.w().Bytes(id.workflow);
      w.w().Zig(id.number);
    }
  }
  w.Finish();
  return out;
}

Result<PurgeInstancesMsg> PurgeInstancesMsg::Parse(
    const std::string& payload) {
  CREW_RETURN_IF_ERROR(
      CheckBinId(payload, BinMsgId::kPurgeInstances, "PurgeInstances"));
  PurgeInstancesMsg m;
  MsgReader r(payload);
  CREW_RETURN_IF_ERROR(r.Drive("PurgeInstances", [&](uint8_t tag) {
    switch (tag) {
      case TagI(1): {
        uint64_t count;
        if (!r.r().Varint(&count) || count > r.r().remaining()) {
          return false;
        }
        m.committed.reserve(m.committed.size() + count);
        for (uint64_t i = 0; i < count; ++i) {
          std::string_view wf;
          int64_t number;
          if (!r.r().Bytes(&wf) || !r.r().Zig(&number)) return false;
          InstanceId id;
          id.workflow.assign(wf);
          id.number = number;
          m.committed.push_back(std::move(id));
        }
        return true;
      }
      default: return false;
    }
  }));
  return m;
}

}  // namespace crew::runtime
