#include "layers.h"

#include <cstdio>
#include <limits>
#include <map>

#include "runtime/wire.h"
#include "storage/wal.h"

namespace perfbench {
namespace {

namespace rt = crew::runtime;

struct CodecTotals {
  int64_t parse_ns = 0;
  int64_t serialize_ns = 0;
  int64_t unreplayed = 0;
  int64_t mismatched = 0;
};

template <typename Msg>
void ReplayType(const std::vector<const std::string*>& payloads,
                CodecTotals* totals) {
  std::vector<Msg> parsed;
  parsed.reserve(payloads.size());
  std::vector<const std::string*> sources;
  sources.reserve(payloads.size());
  int64_t t0 = NowNs();
  for (const std::string* payload : payloads) {
    crew::Result<Msg> result = Msg::Parse(*payload);
    if (result.ok()) {
      parsed.push_back(std::move(result).value());
      sources.push_back(payload);
    } else {
      ++totals->unreplayed;
    }
  }
  int64_t t1 = NowNs();
  std::vector<std::string> encoded;
  encoded.reserve(parsed.size());
  for (const Msg& msg : parsed) encoded.push_back(msg.Serialize());
  int64_t t2 = NowNs();
  totals->parse_ns += t1 - t0;
  totals->serialize_ns += t2 - t1;
  for (size_t i = 0; i < encoded.size(); ++i) {
    if (encoded[i] != *sources[i]) ++totals->mismatched;
  }
}

using ReplayFn = void (*)(const std::vector<const std::string*>&,
                          CodecTotals*);

const std::map<std::string, ReplayFn>& CodecTable() {
  static const std::map<std::string, ReplayFn> table = {
      {rt::wi::kWorkflowStart, &ReplayType<rt::WorkflowStartMsg>},
      {rt::wi::kWorkflowChangeInputs,
       &ReplayType<rt::WorkflowChangeInputsMsg>},
      {rt::wi::kInputsChanged, &ReplayType<rt::WorkflowChangeInputsMsg>},
      {rt::wi::kWorkflowAbort, &ReplayType<rt::WorkflowAbortMsg>},
      {rt::wi::kWorkflowStatus, &ReplayType<rt::WorkflowStatusMsg>},
      {rt::wi::kWorkflowStatusReply,
       &ReplayType<rt::WorkflowStatusReplyMsg>},
      {rt::wi::kStepExecute, &ReplayType<rt::StepExecuteMsg>},
      {rt::wi::kStepCompensate, &ReplayType<rt::StepCompensateMsg>},
      {rt::wi::kStepCompleted, &ReplayType<rt::StepCompletedMsg>},
      {rt::wi::kStepStatus, &ReplayType<rt::StepStatusMsg>},
      {rt::wi::kStepStatusReply, &ReplayType<rt::StepStatusReplyMsg>},
      {rt::wi::kWorkflowRollback, &ReplayType<rt::WorkflowRollbackMsg>},
      {rt::wi::kHaltThread, &ReplayType<rt::HaltThreadMsg>},
      {rt::wi::kCompensateSet, &ReplayType<rt::CompensateSetMsg>},
      {rt::wi::kCompensateThread, &ReplayType<rt::CompensateThreadMsg>},
      {rt::wi::kStateInformation, &ReplayType<rt::StateInformationMsg>},
      {rt::wi::kStateInformationReply,
       &ReplayType<rt::StateInformationReplyMsg>},
      {rt::wi::kAddRule, &ReplayType<rt::AddRuleMsg>},
      {rt::wi::kAddEvent, &ReplayType<rt::AddEventMsg>},
      {rt::wi::kAddPrecondition, &ReplayType<rt::AddPreconditionMsg>},
      {rt::wi::kRunProgram, &ReplayType<rt::RunProgramMsg>},
      {rt::wi::kRunProgramReply, &ReplayType<rt::RunProgramReplyMsg>},
      {rt::wi::kPurgeInstances, &ReplayType<rt::PurgeInstancesMsg>},
  };
  return table;
}

}  // namespace

const std::vector<std::string>& WireTypes() {
  static const std::vector<std::string> types = [] {
    std::vector<std::string> names;
    for (const auto& [type, replay] : CodecTable()) names.push_back(type);
    return names;
  }();
  return types;
}

CodecStats ReplayCodec(const std::vector<Captured>& captured, int passes) {
  CodecStats stats;
  std::map<std::string, std::vector<const std::string*>> by_type;
  for (const Captured& message : captured) {
    by_type[message.type].push_back(&message.payload);
    stats.bytes += static_cast<int64_t>(message.payload.size());
  }
  stats.messages = static_cast<int64_t>(captured.size());
  if (stats.messages == 0) return stats;
  int64_t best_parse = std::numeric_limits<int64_t>::max();
  int64_t best_serialize = std::numeric_limits<int64_t>::max();
  for (int pass = 0; pass < passes; ++pass) {
    CodecTotals totals;
    for (const auto& [type, payloads] : by_type) {
      auto it = CodecTable().find(type);
      if (it == CodecTable().end()) {
        totals.unreplayed += static_cast<int64_t>(payloads.size());
        continue;
      }
      it->second(payloads, &totals);
    }
    best_parse = std::min(best_parse, totals.parse_ns);
    best_serialize = std::min(best_serialize, totals.serialize_ns);
    stats.unreplayed = totals.unreplayed;
    stats.mismatched = totals.mismatched;
  }
  int64_t replayed = stats.messages - stats.unreplayed;
  if (replayed > 0) {
    stats.parse_ns_per_msg = static_cast<double>(best_parse) / replayed;
    stats.serialize_ns_per_msg =
        static_cast<double>(best_serialize) / replayed;
  }
  return stats;
}

WalStats ReplayWals(const std::vector<std::string>& paths,
                    const std::string& scratch_path) {
  WalStats stats;
  std::vector<std::string> records;
  for (const std::string& path : paths) {
    crew::storage::Wal reader;
    crew::Status status =
        reader.Replay(path, [&](const std::string& record) {
          records.push_back(record);
          stats.bytes += static_cast<int64_t>(record.size());
        });
    if (!status.ok()) stats.ok = false;
  }
  stats.records = static_cast<int64_t>(records.size());
  if (records.empty()) return stats;
  std::remove(scratch_path.c_str());
  crew::storage::Wal scratch;
  if (!scratch.Open(scratch_path).ok()) {
    stats.ok = false;
    return stats;
  }
  int64_t t0 = NowNs();
  for (const std::string& record : records) {
    if (!scratch.Append(record).ok()) stats.ok = false;
  }
  int64_t t1 = NowNs();
  scratch.Close();
  std::remove(scratch_path.c_str());
  stats.append_us = static_cast<double>(t1 - t0) / 1e3 / stats.records;
  return stats;
}

}  // namespace perfbench
