// One fixed instance of every wire payload and frame kind. The golden
// hex literals in wire_codec_test.cc are these samples' encodings; the
// round-trip, golden and hostile-bytes tests all start from them.
#ifndef CREW_TESTS_WIRE_SAMPLES_H_
#define CREW_TESTS_WIRE_SAMPLES_H_

#include <string>

#include "net/frame.h"
#include "runtime/packet.h"
#include "runtime/wire.h"

namespace crew::runtime {

/// A Value of every kind, with strings full of separators.
inline Value HostileValue(int i) {
  switch (i % 5) {
    case 0: return Value();
    case 1: return Value(i % 2 == 1);
    case 2: return Value(static_cast<int64_t>(-1'000'000 + 31 * i));
    case 3: return Value(0.5 * i - 7.25);
    default: return Value("v=\"x\"\n\\esc;,@" + std::to_string(i));
  }
}

inline WorkflowStartMsg SampleWorkflowStart() {
  WorkflowStartMsg m;
  m.instance = {"WF_start", 41};
  m.reply_to = 7;
  for (int i = 0; i < 6; ++i) {
    m.inputs["I" + std::to_string(i)] = HostileValue(i);
  }
  m.ro_links.push_back({{"WFX", 3}, 2, 5, true});
  m.ro_links.push_back({{"WFY", 8}, 1, 1, false});
  m.rd_links.push_back({{"WFZ", 2}, 4, 6});
  m.parent = {"WF_parent", 9};
  m.parent_step = 12;
  return m;
}

inline WorkflowChangeInputsMsg SampleWorkflowChangeInputs() {
  WorkflowChangeInputsMsg m;
  m.instance = {"WF", 5};
  m.new_inputs["A"] = Value(std::string("x\ny"));
  m.new_inputs["B"] = Value(int64_t{-3});
  m.origin_step = 4;
  return m;
}

inline WorkflowAbortMsg SampleWorkflowAbort() {
  WorkflowAbortMsg m;
  m.instance = {"WF_abort", 77};
  return m;
}

inline WorkflowStatusMsg SampleWorkflowStatus() {
  WorkflowStatusMsg m;
  m.instance = {"WF_q", 3};
  m.reply_to = 11;
  return m;
}

inline WorkflowStatusReplyMsg SampleWorkflowStatusReply() {
  WorkflowStatusReplyMsg m;
  m.instance = {"WF_q", 3};
  m.state = WorkflowState::kCommitted;
  return m;
}

inline StepExecuteMsg SampleStepExecute() {
  StepExecuteMsg m;
  m.packet.instance = {"WF_pkt", 13};
  m.packet.target_step = 6;
  m.packet.epoch = 2;
  for (int i = 0; i < 8; ++i) {
    m.packet.data["S" + std::to_string(i) + ".O1"] = HostileValue(i);
  }
  m.packet.events.push_back({"S1.done", 2, 1});
  m.packet.events.push_back({"S2.done", 1, 0});
  m.packet.executed_by[1] = 10;
  m.packet.executed_by[2] = 20;
  m.packet.ro_links.push_back({{"WFo", 4}, 1, 2, false});
  m.packet.rd_links.push_back({{"WFr", 6}, 3, 5});
  m.packet.coordinator = 7;
  return m;
}

inline StepCompensateMsg SampleStepCompensate() {
  StepCompensateMsg m;
  m.instance = {"WF", 2};
  m.step = 9;
  m.epoch = 3;
  return m;
}

inline StepCompletedMsg SampleStepCompleted() {
  StepCompletedMsg m;
  m.instance = {"WF", 2};
  m.step = 5;
  m.epoch = 1;
  m.results["final"] = Value(std::string("ok\nline2"));
  m.results["count"] = Value(int64_t{42});
  return m;
}

inline StepStatusMsg SampleStepStatus() {
  StepStatusMsg m;
  m.instance = {"WF", 2};
  m.step = 7;
  m.reply_to = 4;
  return m;
}

inline StepStatusReplyMsg SampleStepStatusReply() {
  StepStatusReplyMsg m;
  m.instance = {"WF", 2};
  m.step = 7;
  m.state = StepRunState::kDone;
  m.responder = 6;
  return m;
}

inline WorkflowRollbackMsg SampleWorkflowRollback() {
  WorkflowRollbackMsg m;
  m.instance = {"WF_rb", 21};
  m.origin_step = 3;
  m.new_epoch = 8;
  m.state.instance = m.instance;
  m.state.target_step = 3;
  m.state.epoch = 7;
  m.state.data["S1.O1"] = Value("nested\nnewline\\and\\backslash");
  m.state.events.push_back({"S1.done", 1, 7});
  return m;
}

inline HaltThreadMsg SampleHaltThread() {
  HaltThreadMsg m;
  m.instance = {"WF", 2};
  m.origin_step = 4;
  m.new_epoch = 6;
  return m;
}

inline CompensateSetMsg SampleCompensateSet() {
  CompensateSetMsg m;
  m.instance = {"WF", 2};
  m.origin_step = 2;
  m.remaining = {5, 3, 1};
  m.epoch = 4;
  m.resume_agent = 9;
  m.resume.instance = m.instance;
  m.resume.target_step = 2;
  m.resume.data["S0.O1"] = Value(int64_t{17});
  return m;
}

inline CompensateThreadMsg SampleCompensateThread() {
  CompensateThreadMsg m;
  m.instance = {"WF", 2};
  m.step = 6;
  m.until_join = 8;
  m.epoch = 2;
  return m;
}

inline StateInformationMsg SampleStateInformation() {
  StateInformationMsg m;
  m.reply_to = 3;
  m.instance = {"WF_elect", 4};
  m.step = 2;
  return m;
}

inline StateInformationReplyMsg SampleStateInformationReply() {
  StateInformationReplyMsg m;
  m.responder = 5;
  m.load = 12;
  m.instance = {"WF_elect", 4};
  m.step = 2;
  return m;
}

inline AddRuleMsg SampleAddRule() {
  AddRuleMsg m;
  m.instance = {"WF", 3};
  m.rule_id = "exec.S4.via.S3";
  m.trigger_events = {"S3.done", "S2.done"};
  m.condition_source = "S3.O1 >= 10 and changed(WF.I1)";
  m.action_step = 4;
  return m;
}

inline AddEventMsg SampleAddEvent() {
  AddEventMsg m;
  m.instance = {"WF", 3};
  m.event_token = "S3.done";
  return m;
}

inline AddPreconditionMsg SampleAddPrecondition() {
  AddPreconditionMsg m;
  m.instance = {"WF", 3};
  m.rule_id = "exec.S4.via.S3";
  m.event_token = "S2.done";
  return m;
}

inline RunProgramMsg SampleRunProgram() {
  RunProgramMsg m;
  m.instance = {"WF", 6};
  m.step = 3;
  m.program = "P3";
  m.attempt = 2;
  m.compensation = true;
  m.cost_fraction = 0.333333;  // on the ppm grid
  m.nominal_cost = 900;
  m.designated = 12;
  m.inputs["I1"] = Value(int64_t{5});
  m.inputs["I2"] = Value("text with spaces");
  m.reply_to = 2;
  m.epoch = 4;
  return m;
}

inline RunProgramReplyMsg SampleRunProgramReply() {
  RunProgramReplyMsg m;
  m.instance = {"WF", 6};
  m.step = 3;
  m.ack_only = false;
  m.success = true;
  m.compensation = true;
  m.cost = 450;
  m.epoch = 4;
  m.agent_load = 7;
  m.responder = 12;
  m.outputs["O1"] = Value(3.5);
  m.outputs["O2"] = Value();
  return m;
}

inline PurgeInstancesMsg SamplePurgeInstances() {
  PurgeInstancesMsg m;
  m.committed.push_back({"WF1", 3});
  m.committed.push_back({"WF2", 9});
  m.committed.push_back({"WF with spaces", 1});
  return m;
}

/// A bare packet with both RO directions, RD, and no coordinator.
inline WorkflowPacket SamplePacket() {
  WorkflowPacket p;
  p.instance = {"WF2", 4};
  p.target_step = 3;
  p.epoch = 2;
  p.data["WF.I1"] = Value(int64_t{90});
  p.data["WF.I2"] = Value("Blower");
  p.data["S1.O2"] = Value("Gasket");
  p.events.push_back({"WF.start", 1, 0});
  p.events.push_back({"S1.done", 2, 1});
  p.executed_by[1] = 12;
  p.executed_by[2] = 14;
  p.ro_links.push_back({{"WF3", 15}, 2, 4, true});
  p.ro_links.push_back({{"WF5", 12}, 5, 1, false});
  p.rd_links.push_back({{"WF9", 3}, 2, 1});
  return p;
}

// ---- Sparse forms: every optional part left out ----

/// A top-level start: no parent, links or inputs.
inline WorkflowStartMsg SampleSparseWorkflowStart() {
  WorkflowStartMsg m;
  m.instance = {"WF_top", 1};
  return m;
}

/// A placed packet whose sections are all empty.
inline WorkflowPacket SampleSparsePlacedPacket() {
  WorkflowPacket p;
  p.instance = {"WF_p", 2};
  p.target_step = 3;
  p.coordinator = 4;
  return p;
}

/// An unplaced packet with every section empty.
inline WorkflowPacket SampleSparseEmptyPacket() {
  WorkflowPacket p;
  p.instance = {"WF_e", 5};
  p.target_step = 1;
  return p;
}

/// No condition text and no triggers.
inline AddRuleMsg SampleSparseAddRule() {
  AddRuleMsg m;
  m.instance = {"WF", 3};
  m.rule_id = "r1";
  m.action_step = 1;
  return m;
}

/// An exhausted compensation set: nothing left but the resume packet.
inline CompensateSetMsg SampleSparseCompensateSet() {
  CompensateSetMsg m;
  m.instance = {"WF", 2};
  m.origin_step = 2;
  m.epoch = 1;
  m.resume_agent = 3;
  m.resume.instance = m.instance;
  m.resume.target_step = 2;
  return m;
}

inline PurgeInstancesMsg SampleSparsePurgeInstances() {
  return PurgeInstancesMsg{};
}

inline net::Frame SampleHello() {
  net::Frame f;
  f.kind = net::Frame::Kind::kHello;
  f.endpoint = "unix:/tmp/golden.sock";
  f.incarnation = 3;
  f.sent_ticks = 12345;
  return f;
}

inline net::Frame SampleAck() {
  net::Frame f;
  f.kind = net::Frame::Kind::kAck;
  f.watermark = 77;
  f.incarnation = 3;
  return f;
}

/// Untraced DATA whose type is in the HELLO dictionary (one varint id).
inline net::Frame SampleDataDictType() {
  net::Frame f;
  f.kind = net::Frame::Kind::kData;
  f.seq = 9;
  f.message.from = 1;
  f.message.to = 2;
  f.message.type = wi::kStepExecute;
  f.message.category = sim::MsgCategory::kCoordination;
  f.message.payload = std::string("pay\0load\xff", 9);
  return f;
}

/// Traced DATA whose type is outside the dictionary (rides inline).
inline net::Frame SampleDataTracedInline() {
  net::Frame f;
  f.kind = net::Frame::Kind::kData;
  f.seq = 300;
  f.message.from = 4;
  f.message.to = 0;
  f.message.type = "CustomType";
  f.message.category = sim::MsgCategory::kAdmin;
  f.message.trace_id = (uint64_t{0xBEEF} << 48) | 0x1234;
  f.message.trace_sent_ticks = 987654;
  f.message.payload = "tail";
  return f;
}

}  // namespace crew::runtime

#endif  // CREW_TESTS_WIRE_SAMPLES_H_
