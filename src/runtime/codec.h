#ifndef CREW_RUNTIME_CODEC_H_
#define CREW_RUNTIME_CODEC_H_

#include <string_view>

#include "common/binio.h"
#include "rules/token.h"

namespace crew::runtime {

/// The binary wire codec: every typed payload (runtime/packet.h,
/// runtime/wire.h), and every trace-shard file (net/trace_merge.h), is
/// [kBinaryMagic][BinMsgId][fields]. Parse() rejects
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
  kTraceShard = 23,  ///< a trace-shard file (net/trace_merge.h)
};

/// What Parse() demands of one field in a message's field list
/// (runtime/fields.h).
enum FieldRule : uint8_t {
  kOptional,  ///< may be absent
  kRequired,  ///< Parse rejects a payload without it
  kNonEmpty,  ///< Parse rejects it absent or empty
};

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
