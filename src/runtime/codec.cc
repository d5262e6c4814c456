#include "runtime/codec.h"

#include "runtime/wire.h"

namespace crew::runtime {

namespace {

struct WireTypeDict {
  rules::TokenTable table;
  size_t preloaded = 0;

  WireTypeDict() {
    // Intern order defines dictionary ids; append-only across releases
    // (the HELLO carries the sender's table, so a peer built from a
    // different order still resolves correctly — this order only has to
    // be stable within one process lifetime).
    for (const char* name : {
             wi::kWorkflowStart,
             wi::kWorkflowChangeInputs,
             wi::kWorkflowAbort,
             wi::kWorkflowStatus,
             wi::kWorkflowStatusReply,
             wi::kInputsChanged,
             wi::kStepExecute,
             wi::kStepCompensate,
             wi::kStepCompleted,
             wi::kStepStatus,
             wi::kStepStatusReply,
             wi::kWorkflowRollback,
             wi::kHaltThread,
             wi::kCompensateSet,
             wi::kCompensateThread,
             wi::kStateInformation,
             wi::kStateInformationReply,
             wi::kAddRule,
             wi::kAddEvent,
             wi::kAddPrecondition,
             wi::kRunProgram,
             wi::kRunProgramReply,
             wi::kPurgeInstances,
         }) {
      table.Intern(name);
    }
    preloaded = table.size();
  }
};

WireTypeDict& Dict() {
  static WireTypeDict* dict = new WireTypeDict();
  return *dict;
}

}  // namespace

rules::TokenTable& WireTypeTokens() { return Dict().table; }

size_t WireTypeCount() { return Dict().preloaded; }

int WireTypeId(std::string_view type) {
  const WireTypeDict& dict = Dict();
  rules::EventToken token = dict.table.Find(type);
  if (token == rules::kInvalidEventToken || token >= dict.preloaded) {
    return -1;
  }
  return static_cast<int>(token);
}

std::string_view WireTypeName(size_t id) {
  const WireTypeDict& dict = Dict();
  if (id >= dict.preloaded) return {};
  return dict.table.Name(static_cast<rules::EventToken>(id));
}

}  // namespace crew::runtime
