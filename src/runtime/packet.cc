#include "runtime/packet.h"

#include "runtime/codec.h"

namespace crew::runtime {

namespace {

// Binary packet field tags: (field << 2) | wire_type, wire types
// 0 = varint, 1 = length-prefixed bytes. Counted sections (tag, entry
// count, then that many fixed-layout entries) replace per-entry tags —
// the entry layouts are fixed by this codec version and the count gives
// parsers an exact reserve.
constexpr uint8_t kPkWf = (1 << 2) | 1;
constexpr uint8_t kPkInst = (2 << 2) | 0;
constexpr uint8_t kPkStep = (3 << 2) | 0;
constexpr uint8_t kPkEpoch = (4 << 2) | 0;
constexpr uint8_t kPkData = (5 << 2) | 0;
constexpr uint8_t kPkEvents = (6 << 2) | 0;
constexpr uint8_t kPkBy = (7 << 2) | 0;
constexpr uint8_t kPkRo = (8 << 2) | 0;
constexpr uint8_t kPkRd = (9 << 2) | 0;
constexpr uint8_t kPkCoord = (10 << 2) | 0;

bool ReadLink(BinReader& r, InstanceId* other, StepId* my_step,
              StepId* other_step) {
  std::string_view wf;
  int64_t number, mine, theirs;
  if (!r.Bytes(&wf) || !r.Zig(&number) || !r.Zig(&mine) ||
      !r.Zig(&theirs)) {
    return false;
  }
  other->workflow.assign(wf);
  other->number = number;
  *my_step = static_cast<StepId>(mine);
  *other_step = static_cast<StepId>(theirs);
  return true;
}

Result<WorkflowPacket> ParseBinaryPacket(std::string_view payload) {
  BinReader r(payload.substr(2));  // past magic + message id
  WorkflowPacket p;
  bool saw_wf = false, saw_inst = false, saw_step = false;
  while (!r.done()) {
    uint8_t tag;
    if (!r.U8(&tag)) break;
    switch (tag) {
      case kPkWf: {
        std::string_view wf;
        if (!r.Bytes(&wf)) return Status::Corruption("bad packet wf");
        p.instance.workflow.assign(wf);
        saw_wf = true;
        break;
      }
      case kPkInst:
        if (!r.Zig(&p.instance.number)) {
          return Status::Corruption("bad packet inst");
        }
        saw_inst = true;
        break;
      case kPkStep: {
        int64_t step;
        if (!r.Zig(&step)) return Status::Corruption("bad packet step");
        p.target_step = static_cast<StepId>(step);
        saw_step = true;
        break;
      }
      case kPkEpoch:
        if (!r.Zig(&p.epoch)) return Status::Corruption("bad packet epoch");
        break;
      case kPkCoord: {
        int64_t coord;
        if (!r.Zig(&coord)) return Status::Corruption("bad packet coord");
        p.coordinator = static_cast<NodeId>(coord);
        break;
      }
      case kPkData: {
        uint64_t count;
        if (!r.Varint(&count) || count > r.remaining()) {
          return Status::Corruption("bad packet data section");
        }
        // Honest encoders write entries in sorted order, so operator[]
        // hits the append fast path; out-of-order input still lands in
        // the right slot via the binary-search fallback.
        p.data.reserve(p.data.size() + count);
        for (uint64_t i = 0; i < count; ++i) {
          std::string_view key;
          Value value;
          if (!r.Bytes(&key) || !ReadValue(r, &value)) {
            return Status::Corruption("bad packet data entry");
          }
          p.data[key] = std::move(value);
        }
        break;
      }
      case kPkEvents: {
        uint64_t count;
        if (!r.Varint(&count) || count > r.remaining()) {
          return Status::Corruption("bad packet event section");
        }
        p.events.reserve(p.events.size() + count);
        for (uint64_t i = 0; i < count; ++i) {
          std::string_view name;
          int64_t occ, epoch;
          if (!r.Bytes(&name) || !r.Zig(&occ) || !r.Zig(&epoch)) {
            return Status::Corruption("bad packet event entry");
          }
          p.events.emplace_back(rules::InternToken(name), occ, epoch);
        }
        break;
      }
      case kPkBy: {
        uint64_t count;
        if (!r.Varint(&count) || count > r.remaining()) {
          return Status::Corruption("bad packet by section");
        }
        p.executed_by.reserve(p.executed_by.size() + count);
        for (uint64_t i = 0; i < count; ++i) {
          int64_t step, agent;
          if (!r.Zig(&step) || !r.Zig(&agent)) {
            return Status::Corruption("bad packet by entry");
          }
          p.executed_by[static_cast<StepId>(step)] =
              static_cast<NodeId>(agent);
        }
        break;
      }
      case kPkRo: {
        uint64_t count;
        if (!r.Varint(&count) || count > r.remaining()) {
          return Status::Corruption("bad packet ro section");
        }
        p.ro_links.reserve(p.ro_links.size() + count);
        for (uint64_t i = 0; i < count; ++i) {
          RoLink link;
          uint8_t leading;
          if (!ReadLink(r, &link.other, &link.my_step, &link.other_step) ||
              !r.U8(&leading)) {
            return Status::Corruption("bad packet ro entry");
          }
          link.leading = leading != 0;
          p.ro_links.push_back(std::move(link));
        }
        break;
      }
      case kPkRd: {
        uint64_t count;
        if (!r.Varint(&count) || count > r.remaining()) {
          return Status::Corruption("bad packet rd section");
        }
        p.rd_links.reserve(p.rd_links.size() + count);
        for (uint64_t i = 0; i < count; ++i) {
          RdLink link;
          if (!ReadLink(r, &link.other, &link.my_step, &link.other_step)) {
            return Status::Corruption("bad packet rd entry");
          }
          p.rd_links.push_back(std::move(link));
        }
        break;
      }
      default:
        return Status::Corruption("unknown packet field tag " +
                                  std::to_string(tag));
    }
  }
  if (!saw_wf || !saw_inst || !saw_step) {
    return Status::Corruption("binary packet missing required fields");
  }
  return p;
}

}  // namespace

std::string WorkflowPacket::Serialize() const {
  // Upper bound: magic + id, tagged scalars, then the counted sections.
  size_t bound = 2 + 1 + BytesBound(instance.workflow) +
                 4 * (1 + kMaxVarintBytes);
  if (!data.empty()) {
    bound += 1 + 5;
    for (const auto& [name, value] : data) {
      bound += BytesBound(name) + ValueBound(value);
    }
  }
  if (!events.empty()) {
    bound += 1 + 5;
    for (const EventOcc& e : events) {
      bound += BytesBound(e.name()) + 2 * kMaxVarintBytes;
    }
  }
  if (!executed_by.empty()) {
    bound += 1 + 5 + executed_by.size() * 2 * kMaxVarintBytes;
  }
  for (const RoLink& link : ro_links) {
    bound += BytesBound(link.other.workflow) + 3 * kMaxVarintBytes + 1;
  }
  for (const RdLink& link : rd_links) {
    bound += BytesBound(link.other.workflow) + 3 * kMaxVarintBytes;
  }
  bound += 2 * (1 + 5);  // ro/rd section tags + counts

  std::string out;
  BinWriter w(&out, bound);
  w.U8(kBinaryMagic);
  w.U8(static_cast<uint8_t>(BinMsgId::kPacket));
  w.U8(kPkWf);
  w.Bytes(instance.workflow);
  w.U8(kPkInst);
  w.Zig(instance.number);
  w.U8(kPkStep);
  w.Zig(target_step);
  w.U8(kPkEpoch);
  w.Zig(epoch);
  if (coordinator != kInvalidNode) {
    w.U8(kPkCoord);
    w.Zig(coordinator);
  }
  if (!data.empty()) {
    w.U8(kPkData);
    w.Varint(data.size());
    for (const auto& [name, value] : data) {
      w.Bytes(name);
      WriteValue(w, value);
    }
  }
  if (!events.empty()) {
    w.U8(kPkEvents);
    w.Varint(events.size());
    for (const EventOcc& e : events) {
      w.Bytes(e.name());
      w.Zig(e.occ);
      w.Zig(e.epoch);
    }
  }
  if (!executed_by.empty()) {
    w.U8(kPkBy);
    w.Varint(executed_by.size());
    for (const auto& [step, agent] : executed_by) {
      w.Zig(step);
      w.Zig(agent);
    }
  }
  if (!ro_links.empty()) {
    w.U8(kPkRo);
    w.Varint(ro_links.size());
    for (const RoLink& link : ro_links) {
      w.Bytes(link.other.workflow);
      w.Zig(link.other.number);
      w.Zig(link.my_step);
      w.Zig(link.other_step);
      w.U8(link.leading ? 1 : 0);
    }
  }
  if (!rd_links.empty()) {
    w.U8(kPkRd);
    w.Varint(rd_links.size());
    for (const RdLink& link : rd_links) {
      w.Bytes(link.other.workflow);
      w.Zig(link.other.number);
      w.Zig(link.my_step);
      w.Zig(link.other_step);
    }
  }
  w.Finish();
  return out;
}

Result<WorkflowPacket> WorkflowPacket::Parse(const std::string& payload) {
  if (payload.size() < 2 ||
      static_cast<unsigned char>(payload[0]) != kBinaryMagic ||
      payload[1] != static_cast<char>(BinMsgId::kPacket)) {
    return Status::Corruption("payload is not a binary packet");
  }
  return ParseBinaryPacket(payload);
}

}  // namespace crew::runtime
