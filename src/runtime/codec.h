#ifndef CREW_RUNTIME_CODEC_H_
#define CREW_RUNTIME_CODEC_H_

#include <string_view>

#include "common/value.h"
#include "rules/token.h"
#include "runtime/binio.h"

namespace crew::runtime {

/// The binary wire codec: every typed payload (runtime/packet.h,
/// runtime/wire.h) is [kBinaryMagic][BinMsgId][fields]. Parse() rejects
/// any payload that does not open with the magic, or whose id names
/// another type. See DESIGN.md §5i for the field layouts.
inline constexpr unsigned char kBinaryMagic = 0xC2;

/// Message ids: the byte after the magic. A Parse for type X rejects a
/// binary payload whose id is not X — cross-type payloads fail loudly
/// instead of field-misreading.
enum class BinMsgId : uint8_t {
  kPacket = 1,
  kWorkflowStart = 2,
  kWorkflowChangeInputs = 3,
  kWorkflowAbort = 4,
  kWorkflowStatus = 5,
  kWorkflowStatusReply = 6,
  kStepCompensate = 7,
  kStepCompleted = 8,
  kStepStatus = 9,
  kStepStatusReply = 10,
  kWorkflowRollback = 11,
  kHaltThread = 12,
  kCompensateSet = 13,
  kCompensateThread = 14,
  kStateInformation = 15,
  kStateInformationReply = 16,
  kAddRule = 17,
  kAddEvent = 18,
  kAddPrecondition = 19,
  kRunProgram = 20,
  kRunProgramReply = 21,
  kPurgeInstances = 22,
};

/// What Parse() demands of one field in a message's field list
/// (runtime/fields.h).
enum FieldRule : uint8_t {
  kOptional,  ///< may be absent
  kRequired,  ///< Parse rejects a payload without it
  kNonEmpty,  ///< Parse rejects it absent or empty
};

// ---- Value as a binary composite: [kind byte][payload] ----
// Kinds: 0 null, 1 false, 2 true, 3 int (zigzag varint), 4 double
// (fixed64), 5 string (length-prefixed bytes).

inline size_t ValueBound(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
    case Value::Kind::kBool:
      return 1;
    case Value::Kind::kInt:
      return 1 + kMaxVarintBytes;
    case Value::Kind::kDouble:
      return 1 + 8;
    case Value::Kind::kString:
      return 1 + BytesBound(v.AsString());
  }
  return 1;
}

inline void WriteValue(BinWriter& w, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      w.U8(0);
      break;
    case Value::Kind::kBool:
      w.U8(v.AsBool() ? 2 : 1);
      break;
    case Value::Kind::kInt:
      w.U8(3);
      w.Zig(v.AsInt());
      break;
    case Value::Kind::kDouble:
      w.U8(4);
      w.F64(v.AsDouble());
      break;
    case Value::Kind::kString:
      w.U8(5);
      w.Bytes(v.AsString());
      break;
  }
}

inline bool ReadValue(BinReader& r, Value* out) {
  uint8_t kind;
  if (!r.U8(&kind)) return false;
  switch (kind) {
    case 0:
      *out = Value();
      return true;
    case 1:
      *out = Value(false);
      return true;
    case 2:
      *out = Value(true);
      return true;
    case 3: {
      int64_t i;
      if (!r.Zig(&i)) return false;
      *out = Value(i);
      return true;
    }
    case 4: {
      double d;
      if (!r.F64(&d)) return false;
      *out = Value(d);
      return true;
    }
    case 5: {
      std::string_view s;
      if (!r.Bytes(&s)) return false;
      *out = Value(std::string(s));
      return true;
    }
    default:
      return false;
  }
}

// ---- Wire-type dictionary ----
// The fixed wi:: message-type names (runtime/wire.h), interned into a
// dedicated rules::TokenTable at process start so token == dictionary
// id. Binary HELLO frames carry this table name-by-name and binary DATA
// frames encode the message type as a dictionary id; the receiver
// resolves ids through the dictionary the sender declared (per
// connection), with an inline-string fallback for types outside the
// table. Only the ids covered by the preloaded snapshot are ever used
// on the wire — later dynamic interns stay inline-encoded, so the
// dictionary a HELLO advertised stays valid for the connection's life.

/// The dedicated interner. Preloaded with every wi:: name in id order.
rules::TokenTable& WireTypeTokens();

/// Number of preloaded (dictionary-encodable) type names.
size_t WireTypeCount();

/// Dictionary id for `type`, or -1 when it must ride inline.
int WireTypeId(std::string_view type);

/// Name for a preloaded id; empty view when out of range.
std::string_view WireTypeName(size_t id);

}  // namespace crew::runtime

#endif  // CREW_RUNTIME_CODEC_H_
