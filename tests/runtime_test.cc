#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "expr/parser.h"
#include "model/builder.h"
#include "model/rulegen.h"
#include "runtime/coord.h"
#include "runtime/instance.h"
#include "runtime/ocr.h"
#include "runtime/packet.h"
#include "runtime/programs.h"
#include "runtime/wire.h"
#include "rules/event.h"
#include "sim/metrics.h"

namespace crew::runtime {
namespace {

using model::MakeAllRules;
using model::MakeStepRules;

model::CompiledSchemaPtr CompileSeq3() {
  model::SchemaBuilder b("Seq3");
  StepId s1 = b.AddTask("A", "noop");
  StepId s2 = b.AddTask("B", "noop");
  StepId s3 = b.AddTask("C", "noop");
  b.Sequence({s1, s2, s3});
  auto schema = b.Build();
  EXPECT_TRUE(schema.ok());
  auto compiled = model::CompiledSchema::Compile(std::move(schema).value());
  EXPECT_TRUE(compiled.ok());
  return compiled.value();
}

TEST(PacketTest, SerializeParseRoundTrip) {
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

  Result<WorkflowPacket> parsed = WorkflowPacket::Parse(p.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const WorkflowPacket& q = parsed.value();
  EXPECT_EQ(q.instance, p.instance);
  EXPECT_EQ(q.target_step, 3);
  EXPECT_EQ(q.epoch, 2);
  EXPECT_EQ(q.data, p.data);
  ASSERT_EQ(q.events.size(), 2u);
  EXPECT_EQ(q.events[1].name(), "S1.done");
  EXPECT_EQ(q.events[1].occ, 2);
  EXPECT_EQ(q.events[1].epoch, 1);
  EXPECT_EQ(q.executed_by, p.executed_by);
  ASSERT_EQ(q.ro_links.size(), 2u);
  EXPECT_EQ(q.ro_links[0], p.ro_links[0]);
  EXPECT_EQ(q.ro_links[1], p.ro_links[1]);
  ASSERT_EQ(q.rd_links.size(), 1u);
  EXPECT_EQ(q.rd_links[0], p.rd_links[0]);
}

TEST(PacketTest, RejectsCorruptPayload) {
  EXPECT_FALSE(WorkflowPacket::Parse("inst=1\nstep=2\n").ok());  // no wf
  EXPECT_FALSE(WorkflowPacket::Parse("wf=W\ninst=x\nstep=2\n").ok());
}

TEST(WireTest, WorkflowStartRoundTrip) {
  WorkflowStartMsg m;
  m.instance = {"Order", 7};
  m.reply_to = 0;
  m.inputs["WF.I1"] = Value(int64_t{5});
  Result<WorkflowStartMsg> parsed = WorkflowStartMsg::Parse(m.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().instance, m.instance);
  EXPECT_EQ(parsed.value().inputs, m.inputs);
}

TEST(WireTest, RollbackCarriesNestedPacket) {
  WorkflowRollbackMsg m;
  m.instance = {"WF1", 1};
  m.origin_step = 2;
  m.new_epoch = 3;
  m.state.instance = m.instance;
  m.state.target_step = 2;
  m.state.data["S1.O1"] = Value("nested\nnewline");
  m.state.events.push_back({"S1.done", 1, 0});
  Result<WorkflowRollbackMsg> parsed =
      WorkflowRollbackMsg::Parse(m.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().origin_step, 2);
  EXPECT_EQ(parsed.value().new_epoch, 3);
  EXPECT_EQ(parsed.value().state.data.at("S1.O1"),
            Value("nested\nnewline"));
  ASSERT_EQ(parsed.value().state.events.size(), 1u);
}

TEST(WireTest, CompensateSetRoundTrip) {
  CompensateSetMsg m;
  m.instance = {"WF1", 2};
  m.origin_step = 3;
  m.remaining = {5, 4};
  m.epoch = 1;
  m.resume_agent = 9;
  m.resume.instance = m.instance;
  m.resume.target_step = 3;
  Result<CompensateSetMsg> parsed =
      CompensateSetMsg::Parse(m.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().remaining, (std::vector<StepId>{5, 4}));
  EXPECT_EQ(parsed.value().resume_agent, 9);
  EXPECT_EQ(parsed.value().resume.target_step, 3);
}

TEST(WireTest, RunProgramRoundTrip) {
  RunProgramMsg m;
  m.instance = {"WF1", 2};
  m.step = 4;
  m.program = "synthetic";
  m.attempt = 2;
  m.compensation = true;
  m.cost_fraction = 0.25;
  m.nominal_cost = 800;
  m.designated = 6;
  m.reply_to = 1;
  m.epoch = 5;
  m.inputs["WF.I1"] = Value(true);
  Result<RunProgramMsg> parsed = RunProgramMsg::Parse(m.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().attempt, 2);
  EXPECT_TRUE(parsed.value().compensation);
  EXPECT_NEAR(parsed.value().cost_fraction, 0.25, 1e-9);
  EXPECT_EQ(parsed.value().designated, 6);
  EXPECT_EQ(parsed.value().inputs.at("WF.I1"), Value(true));
}

TEST(WireTest, StateNames) {
  EXPECT_EQ(ParseWorkflowState(WorkflowStateName(WorkflowState::kAborted)),
            WorkflowState::kAborted);
  EXPECT_EQ(ParseStepRunState(StepRunStateName(StepRunState::kExecuting)),
            StepRunState::kExecuting);
  EXPECT_EQ(ParseWorkflowState("gibberish"), WorkflowState::kUnknown);
}

TEST(ProgramsTest, BuiltinsBehave) {
  ProgramRegistry registry;
  registry.RegisterBuiltins();
  ProgramContext ctx;
  ctx.attempt = 3;
  ctx.inputs["a"] = Value(int64_t{2});
  ctx.inputs["b"] = Value(int64_t{5});

  Result<ProgramOutcome> noop = registry.Run("noop", ctx);
  ASSERT_TRUE(noop.ok());
  EXPECT_EQ(noop.value().outputs.at("O1"), Value(int64_t{3}));

  Result<ProgramOutcome> sum = registry.Run("sum", ctx);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum.value().outputs.at("O1"), Value(int64_t{7}));

  Result<ProgramOutcome> fail = registry.Run("fail_always", ctx);
  ASSERT_TRUE(fail.ok());
  EXPECT_FALSE(fail.value().success);

  EXPECT_FALSE(registry.Run("missing", ctx).ok());
}

TEST(ProgramsTest, FailFirstN) {
  ProgramRegistry registry;
  registry.RegisterFailFirstN("flaky2", 2);
  ProgramContext ctx;
  ctx.attempt = 1;
  EXPECT_FALSE(registry.Run("flaky2", ctx).value().success);
  ctx.attempt = 2;
  EXPECT_FALSE(registry.Run("flaky2", ctx).value().success);
  ctx.attempt = 3;
  EXPECT_TRUE(registry.Run("flaky2", ctx).value().success);
}

TEST(InstanceTest, EventOccurrenceMergeSemantics) {
  InstanceState state({"WF1", 1}, CompileSeq3());
  EXPECT_TRUE(state.MergeEvent({"S1.done", 1, 0}));
  EXPECT_FALSE(state.MergeEvent({"S1.done", 1, 0}));  // duplicate
  EXPECT_TRUE(state.MergeEvent({"S1.done", 2, 0}));   // loop re-post
  EXPECT_FALSE(state.MergeEvent({"S1.done", 1, 0}));  // stale
  EXPECT_TRUE(state.EventValid("S1.done"));
}

TEST(InstanceTest, PostLocalEventIncrementsOccurrence) {
  InstanceState state({"WF1", 1}, CompileSeq3());
  EventOcc first = state.PostEvent(rules::event::StepDoneToken(1));
  EventOcc second = state.PostEvent(rules::event::StepDoneToken(1));
  EXPECT_EQ(first.occ, 1);
  EXPECT_EQ(second.occ, 2);
}

TEST(InstanceTest, InvalidateDownstreamRespectsEpoch) {
  InstanceState state({"WF1", 1}, CompileSeq3());
  state.PostEvent(rules::event::StepDoneToken(1));
  state.PostEvent(rules::event::StepDoneToken(2));
  state.PostEvent(rules::event::StepDoneToken(3));
  // Roll back to step 2 under epoch 1: S2/S3 events (epoch 0) die, S1
  // survives (not downstream of 2).
  state.set_epoch(1);
  std::vector<rules::EventToken> killed = state.InvalidateDownstream(2, 1);
  EXPECT_EQ(killed,
            (std::vector<rules::EventToken>{rules::event::StepDoneToken(2),
                                            rules::event::StepDoneToken(3)}));
  EXPECT_TRUE(state.EventValid("S1.done"));
  EXPECT_FALSE(state.EventValid("S2.done"));

  // New-epoch events are not re-invalidated by a replayed halt.
  state.PostEvent(rules::event::StepDoneToken(2));  // now at epoch 1
  EXPECT_TRUE(state.InvalidateDownstream(2, 1).empty());
  EXPECT_TRUE(state.EventValid("S2.done"));
}

TEST(InstanceTest, MakePacketCarriesOnlyValidEvents) {
  InstanceState state({"WF1", 1}, CompileSeq3());
  state.PostEvent(rules::event::StepDoneToken(1));
  state.PostEvent(rules::event::StepDoneToken(2));
  state.set_epoch(1);
  state.InvalidateDownstream(2, 1);
  WorkflowPacket packet = state.MakePacket(3);
  ASSERT_EQ(packet.events.size(), 1u);
  EXPECT_EQ(packet.events[0].name(), "S1.done");
  EXPECT_EQ(packet.epoch, 1);
}

TEST(InstanceTest, MergePacketUpdatesStateAndEpoch) {
  InstanceState state({"WF1", 1}, CompileSeq3());
  WorkflowPacket packet;
  packet.instance = {"WF1", 1};
  packet.epoch = 4;
  packet.data["S1.O1"] = Value(int64_t{10});
  packet.executed_by[1] = 33;
  packet.ro_links.push_back({{"WF2", 9}, 2, 2, false});
  state.MergePacket(packet);
  EXPECT_EQ(state.epoch(), 4);
  EXPECT_EQ(state.GetData("S1.O1"), Value(int64_t{10}));
  EXPECT_EQ(state.executed_by().at(1), 33);
  ASSERT_EQ(state.ro_links().size(), 1u);
  // Merging again does not duplicate links.
  state.MergePacket(packet);
  EXPECT_EQ(state.ro_links().size(), 1u);
}

TEST(InstanceTest, OwnsItsRulesAndMergePacketPostsFreshEvents) {
  model::CompiledSchemaPtr schema = CompileSeq3();
  InstanceState state({"WF1", 1}, schema);
  EXPECT_EQ(&state.rules().program(), &schema->rules());
  EXPECT_EQ(state.rules().program().num_rules(), 3u);
  WorkflowPacket packet;
  packet.instance = {"WF1", 1};
  packet.events.push_back({"WF.start", 1, 0});
  state.MergePacket(packet);
  EXPECT_EQ(state.FireableSteps(), std::vector<StepId>{1});
  // The same occurrence again is not fresh and fires nothing.
  packet.events.push_back({"S1.done", 1, 0});
  state.MergePacket(packet);
  EXPECT_EQ(state.FireableSteps(), std::vector<StepId>{2});
  state.MergePacket(packet);
  EXPECT_TRUE(state.FireableSteps().empty());
}

TEST(InstanceTest, InstancesShareOneProgramAndGateOnlyThemselves) {
  model::CompiledSchemaPtr schema = CompileSeq3();
  InstanceState gated({"WF1", 1}, schema);
  InstanceState free({"WF1", 2}, schema);
  EXPECT_EQ(&gated.rules().program(), &free.rules().program());
  EXPECT_EQ(&free.rules().program(), &schema->rules());

  // A gate on S2 in one instance does not delay S2 in the other.
  const rules::EventToken token =
      rules::event::RelativeOrderToken({"WF2", 7}, 3);
  EXPECT_TRUE(gated.GateStep(2, token));
  for (InstanceState* state : {&gated, &free}) {
    state->PostEvent(rules::event::WorkflowStartToken());
    EXPECT_EQ(state->FireableSteps(), std::vector<StepId>{1});
    state->PostEvent(rules::event::StepDoneToken(1));
  }
  EXPECT_TRUE(gated.FireableSteps().empty());
  EXPECT_FALSE(gated.Triggerable(2));
  EXPECT_EQ(free.FireableSteps(), std::vector<StepId>{2});
  EXPECT_TRUE(free.Triggerable(2));
}

TEST(InstanceTest, ValidGateNewerThanLastFiringRefiresAtOnce) {
  InstanceState state({"WF1", 1}, CompileSeq3());
  state.PostEvent(rules::event::WorkflowStartToken());
  state.PostEvent(rules::event::StepDoneToken(1));
  EXPECT_EQ(state.FireableSteps(), (std::vector<StepId>{1, 2}));
  // The token is valid and posted after S2's rule fired: gating on it
  // raises the rule's newest stamp, so it fires with no further post.
  const rules::EventToken token =
      rules::event::RelativeOrderToken({"WF2", 7}, 3);
  state.PostEvent(token);
  EXPECT_TRUE(state.FireableSteps().empty());
  EXPECT_TRUE(state.GateStep(2, token));
  EXPECT_EQ(state.FireableSteps(), std::vector<StepId>{2});
  // The same gate again changes nothing.
  EXPECT_TRUE(state.GateStep(2, token));
  EXPECT_TRUE(state.FireableSteps().empty());
}

TEST(InstanceTest, StartGuardRefusesStartingAndInFlightSteps) {
  InstanceState state({"WF1", 1}, CompileSeq3());
  EXPECT_TRUE(state.TryStart(2));
  EXPECT_TRUE(state.starting(2));
  EXPECT_FALSE(state.TryStart(2));
  state.EndStart(2);
  state.step_record(2).in_flight = true;
  EXPECT_FALSE(state.TryStart(2));
  // A rollback to S1 clears both marks.
  EXPECT_TRUE(state.TryStart(3));
  state.ResetDownstream(1, 1);
  EXPECT_FALSE(state.starting(3));
  EXPECT_TRUE(state.TryStart(2));
  EXPECT_TRUE(state.TryStart(3));
}

TEST(InstanceTest, GatedStepWaitsForItsOrderTokenDeliveredOnce) {
  InstanceState state({"WF1", 1}, CompileSeq3());
  const rules::EventToken token =
      rules::event::RelativeOrderToken({"WF2", 7}, 3);
  EXPECT_TRUE(state.GateStep(2, token));
  state.PostEvent(rules::event::WorkflowStartToken());
  state.PostEvent(rules::event::StepDoneToken(1));
  EXPECT_EQ(state.FireableSteps(), std::vector<StepId>{1});
  obs::Tracer& tr = *obs::Tracer::Null();
  EXPECT_TRUE(DeliverOrderToken(tr, 5, &state, token));
  EXPECT_EQ(state.FireableSteps(), std::vector<StepId>{2});
  // A duplicate is refused and re-fires nothing.
  EXPECT_FALSE(DeliverOrderToken(tr, 5, &state, token));
  EXPECT_TRUE(state.FireableSteps().empty());
}

TEST(InstanceTest, FirstAttemptCompletionEndsTheRecoveryMode) {
  InstanceState state({"WF1", 1}, CompileSeq3());
  obs::Tracer& tr = *obs::Tracer::Null();
  state.set_mode(sim::MsgCategory::kFailureHandling);
  state.step_record(1).attempts = 1;
  StepDone(tr, 5, &state, 1, /*reused=*/true);
  EXPECT_EQ(state.mode(), sim::MsgCategory::kFailureHandling);
  state.step_record(2).attempts = 2;
  StepDone(tr, 5, &state, 2, /*reused=*/false);
  EXPECT_EQ(state.mode(), sim::MsgCategory::kFailureHandling);
  state.step_record(3).attempts = 1;
  StepDone(tr, 5, &state, 3, /*reused=*/false);
  EXPECT_EQ(state.mode(), sim::MsgCategory::kNormal);
  EXPECT_TRUE(state.EventValid(rules::event::StepDoneToken(3)));
}

TEST(OcrTest, FirstExecutionWhenNeverRun) {
  model::Step step;
  step.id = 2;
  InstanceState state({"WF1", 1}, CompileSeq3());
  EXPECT_EQ(DecideOcr(step, state), OcrDecision::kFirstExecution);
}

TEST(OcrTest, ReuseWhenConditionFalse) {
  InstanceState state({"WF1", 1}, CompileSeq3());
  model::Step step;
  step.id = 2;
  step.inputs = {"S1.O1"};
  step.ocr.reexec_condition =
      expr::ParseExpression("changed(S1.O1)").value();

  state.SetData("S1.O1", Value(int64_t{5}));
  StepRecord& record = state.step_record(2);
  record.state = StepRunState::kDone;
  record.prev_inputs["S1.O1"] = Value(int64_t{5});

  EXPECT_EQ(DecideOcr(step, state), OcrDecision::kReuse);

  state.SetData("S1.O1", Value(int64_t{6}));
  EXPECT_EQ(DecideOcr(step, state), OcrDecision::kFullCompReexec);
}

TEST(OcrTest, PartialPathWhenConfigured) {
  InstanceState state({"WF1", 1}, CompileSeq3());
  model::Step step;
  step.id = 2;
  step.cost = 1000;
  step.ocr.partial_compensation_fraction = 0.2;
  step.ocr.incremental_reexec_fraction = 0.3;
  StepRecord& record = state.step_record(2);
  record.state = StepRunState::kDone;

  EXPECT_EQ(DecideOcr(step, state),
            OcrDecision::kPartialCompIncrReexec);
  OcrPlan plan = PlanOcr(step, state);
  EXPECT_EQ(plan.decision, OcrDecision::kPartialCompIncrReexec);
  EXPECT_TRUE(plan.compensate_first);
  EXPECT_DOUBLE_EQ(plan.exec_fraction, 0.3);
  // A loop-body step re-executes in full without compensating.
  step.ocr.compensate_before_reexec = false;
  plan = PlanOcr(step, state);
  EXPECT_FALSE(plan.compensate_first);
  EXPECT_DOUBLE_EQ(plan.exec_fraction, 1.0);
}

TEST(OcrTest, PartialApplicabilityCondition) {
  InstanceState state({"WF1", 1}, CompileSeq3());
  state.SetData("delta", Value(int64_t{100}));
  model::Step step;
  step.id = 2;
  step.ocr.partial_compensation_fraction = 0.1;
  step.ocr.partial_applicable_condition =
      expr::ParseExpression("delta < 10").value();
  state.step_record(2).state = StepRunState::kDone;
  EXPECT_EQ(DecideOcr(step, state), OcrDecision::kFullCompReexec);
  state.SetData("delta", Value(int64_t{5}));
  EXPECT_EQ(DecideOcr(step, state),
            OcrDecision::kPartialCompIncrReexec);
}

TEST(RulegenTest, SequentialRules) {
  model::CompiledSchemaPtr schema = CompileSeq3();
  std::vector<rules::Rule> all = MakeAllRules(*schema);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].id, "exec.S1.start");
  EXPECT_EQ(all[0].events, (std::vector<rules::EventToken>{
                               rules::event::WorkflowStartToken()}));
  EXPECT_EQ(all[1].id, "exec.S2.via.S1");
  EXPECT_EQ(all[2].events, (std::vector<rules::EventToken>{
                               rules::event::StepDoneToken(2)}));
}

TEST(RulegenTest, ChoiceRulesGetConditions) {
  model::SchemaBuilder b("Choice");
  StepId s1 = b.AddTask("A", "noop");
  StepId s2 = b.AddTask("B", "noop");
  StepId s3 = b.AddTask("C", "noop");
  b.CondArc(s1, s2, "S1.O1 > 0");
  b.ElseArc(s1, s3);
  auto compiled =
      model::CompiledSchema::Compile(std::move(b.Build()).value());
  ASSERT_TRUE(compiled.ok());
  std::vector<rules::Rule> rules_s2 = MakeStepRules(*compiled.value(), s2);
  std::vector<rules::Rule> rules_s3 = MakeStepRules(*compiled.value(), s3);
  ASSERT_EQ(rules_s2.size(), 1u);
  ASSERT_NE(rules_s2[0].condition, nullptr);
  ASSERT_EQ(rules_s3.size(), 1u);
  ASSERT_NE(rules_s3[0].condition, nullptr);
  EXPECT_NE(rules_s3[0].condition->ToString().find("not"),
            std::string::npos);
}

TEST(RulegenTest, AndJoinWaitsForAllBranches) {
  model::SchemaBuilder b("Par");
  StepId s1 = b.AddTask("A", "noop");
  StepId s2 = b.AddTask("B", "noop");
  StepId s3 = b.AddTask("C", "noop");
  StepId s4 = b.AddTask("D", "noop");
  b.Parallel(s1, {{s2, s2}, {s3, s3}}, s4);
  auto compiled =
      model::CompiledSchema::Compile(std::move(b.Build()).value());
  ASSERT_TRUE(compiled.ok());
  std::vector<rules::Rule> join = MakeStepRules(*compiled.value(), s4);
  ASSERT_EQ(join.size(), 1u);
  EXPECT_EQ(join[0].events,
            (std::vector<rules::EventToken>{rules::event::StepDoneToken(2),
                                            rules::event::StepDoneToken(3)}));
}

TEST(RulegenTest, DataArcAddsTrigger) {
  model::SchemaBuilder b("Data");
  StepId s1 = b.AddTask("A", "noop");
  StepId s2 = b.AddTask("B", "noop");
  StepId s3 = b.AddTask("C", "noop");
  StepId s4 = b.AddTask("D", "noop");
  b.Parallel(s1, {{s2, s2}, {s3, s3}}, s4);
  b.DataFlow(s2, s3, "S2.O1");
  auto compiled =
      model::CompiledSchema::Compile(std::move(b.Build()).value());
  ASSERT_TRUE(compiled.ok());
  std::vector<rules::Rule> r3 = MakeStepRules(*compiled.value(), s3);
  ASSERT_EQ(r3.size(), 1u);
  EXPECT_EQ(r3[0].events,
            (std::vector<rules::EventToken>{rules::event::StepDoneToken(1),
                                            rules::event::StepDoneToken(2)}));
}

TEST(RulegenTest, LoopBackEdgeRule) {
  model::SchemaBuilder b("Loop");
  StepId s1 = b.AddTask("A", "noop");
  StepId s2 = b.AddTask("B", "noop");
  StepId s3 = b.AddTask("C", "noop");
  b.Arc(s1, s2);
  b.BackArc(s2, s1, "S2.O1 < 3");
  b.CondArc(s2, s3, "S2.O1 >= 3");
  b.SetJoin(s1, model::JoinKind::kOr);
  auto compiled =
      model::CompiledSchema::Compile(std::move(b.Build()).value());
  ASSERT_TRUE(compiled.ok());
  std::vector<rules::Rule> head = MakeStepRules(*compiled.value(), s1);
  ASSERT_EQ(head.size(), 2u);  // start rule + loop rule
  EXPECT_EQ(head[1].id, "exec.S1.loop.S2");
  ASSERT_NE(head[1].condition, nullptr);
}

TEST(CoordTest, TrackerBindsConsecutiveInstances) {
  CoordinationSpec spec;
  RelativeOrderReq ro;
  ro.id = "orders";
  ro.workflow_a = "Order";
  ro.workflow_b = "Order";
  ro.step_pairs = {{2, 2}, {4, 4}};
  spec.relative_orders.push_back(ro);

  ConflictTracker tracker(&spec);
  EXPECT_TRUE(tracker.OnInstanceStart({"Order", 1}).empty());
  std::vector<RoBinding> bindings = tracker.OnInstanceStart({"Order", 2});
  ASSERT_EQ(bindings.size(), 1u);
  EXPECT_EQ(bindings[0].leading, (InstanceId{"Order", 1}));
  EXPECT_EQ(bindings[0].lagging, (InstanceId{"Order", 2}));
  EXPECT_EQ(bindings[0].step_pairs.size(), 2u);
}

TEST(CoordTest, TrackerSkipsEndedInstances) {
  CoordinationSpec spec;
  RelativeOrderReq ro;
  ro.id = "orders";
  ro.workflow_a = "Order";
  ro.workflow_b = "Order";
  ro.step_pairs = {{1, 1}};
  spec.relative_orders.push_back(ro);
  ConflictTracker tracker(&spec);
  tracker.OnInstanceStart({"Order", 1});
  tracker.OnInstanceEnd({"Order", 1});
  EXPECT_TRUE(tracker.OnInstanceStart({"Order", 2}).empty());
}

TEST(CoordTest, RollbackDependents) {
  CoordinationSpec spec;
  RollbackDepReq rd;
  rd.id = "dep";
  rd.workflow_a = "Parent";
  rd.step_a = 3;
  rd.workflow_b = "Child";
  rd.step_b = 1;
  spec.rollback_deps.push_back(rd);

  ConflictTracker tracker(&spec);
  tracker.OnInstanceStart({"Parent", 1});
  tracker.OnInstanceStart({"Child", 5});
  // Rollback to step 4 (> step_a): no dependency triggered.
  EXPECT_TRUE(tracker.RollbackDependents({"Parent", 1}, 4).empty());
  // Rollback to step 2 (<= step_a): child must roll back.
  auto deps = tracker.RollbackDependents({"Parent", 1}, 2);
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0].first, (InstanceId{"Child", 5}));
  EXPECT_EQ(deps[0].second, 1);
}

// Satellite: the sharded tracker must let engines that touch disjoint
// workflow classes run without blocking each other. Two threads churn
// instances of two classes chosen to live on different shards; the
// shard-level contention counter must stay at zero (any cross-thread
// blocking would be a try_lock miss).
TEST(CoordTest, ShardedTrackerDisjointClassesNeverContend) {
  // Pick two class names that land on different shards. The hash is a
  // deterministic FNV-1a, so this search settles once and for all.
  CoordinationSpec probe_spec;
  ConflictTracker probe(&probe_spec);
  const std::string class_a = "OrderA";
  std::string class_b;
  for (int i = 0; i < 64 && class_b.empty(); ++i) {
    std::string candidate = "StockB" + std::to_string(i);
    if (probe.ShardOf(candidate) != probe.ShardOf(class_a)) {
      class_b = candidate;
    }
  }
  ASSERT_FALSE(class_b.empty());

  CoordinationSpec spec;
  for (const std::string& cls : {class_a, class_b}) {
    RelativeOrderReq ro;
    ro.id = "ro-" + cls;
    ro.workflow_a = cls;
    ro.workflow_b = cls;
    ro.step_pairs = {{1, 1}};
    spec.relative_orders.push_back(ro);
  }
  ConflictTracker tracker(&spec);
  ASSERT_NE(tracker.ShardOf(class_a), tracker.ShardOf(class_b));

  constexpr int kIterations = 20000;
  auto churn = [&tracker](const std::string& cls) {
    for (int i = 0; i < kIterations; ++i) {
      tracker.OnInstanceStart({cls, i});
      if (i > 0) tracker.OnInstanceEnd({cls, i - 1});
    }
  };
  std::thread thread_a(churn, class_a);
  std::thread thread_b(churn, class_b);
  thread_a.join();
  thread_b.join();

  // Disjoint classes -> disjoint shard sets -> no acquisition ever found
  // its shard mutex held by the other thread.
  EXPECT_EQ(tracker.total_contended(), 0);
  // Each thread: kIterations starts + (kIterations - 1) ends, one shard
  // lock apiece (the self-RO requirement dedupes to one shard).
  EXPECT_EQ(tracker.total_acquires(), 2 * (2 * kIterations - 1));

  sim::Metrics metrics;
  tracker.ExportStats(&metrics);
  EXPECT_EQ(metrics.Counter("conflict_tracker.shards"),
            tracker.shard_count());
  EXPECT_EQ(metrics.Counter("conflict_tracker.contended"), 0);
  EXPECT_EQ(metrics.Counter("conflict_tracker.acquires"),
            tracker.total_acquires());
}

TEST(CoordTest, MeMessagesRoundTrip) {
  InstanceId id{"WF1", 7};
  Result<AddRuleMsg> request = AddRuleMsg::Parse(
      EncodeMeRequest(MeRequestKind::kAcquire, id, "press", 3, 12));
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(MeRequestKindOf(request.value()), MeRequestKind::kAcquire);
  EXPECT_EQ(request.value().instance, id);
  EXPECT_EQ(request.value().condition_source, "press");
  EXPECT_EQ(request.value().action_step, 3);
  EXPECT_EQ(CheckedRequester(request.value(), 12), 12);
  // The named requester must be the sender, in whole decimal.
  EXPECT_EQ(CheckedRequester(request.value(), 13), kInvalidNode);
  for (const char* bad : {"x", "12x", "", " 12"}) {
    AddRuleMsg forged = request.value();
    forged.trigger_events = {bad};
    EXPECT_EQ(CheckedRequester(forged, 12), kInvalidNode) << bad;
  }
  request.value().trigger_events.clear();
  EXPECT_EQ(CheckedRequester(request.value(), 12), kInvalidNode);

  Result<AddEventMsg> grant =
      AddEventMsg::Parse(EncodeMeGrant(id, "a:S1", 4));
  ASSERT_TRUE(grant.ok());
  ASSERT_TRUE(IsMeGrant(grant.value().event_token));
  std::optional<MeGrant> decoded = DecodeMeGrant(grant.value().event_token);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->resource, "a:S1");
  EXPECT_EQ(decoded->step, 4);
  EXPECT_FALSE(DecodeMeGrant("me.grant:press").has_value());
  EXPECT_FALSE(DecodeMeGrant("me.grant:press:S4x").has_value());
  EXPECT_FALSE(IsMeGrant("ro:WF1#7:S3"));
}

TEST(CoordTest, MutexTableHandsOffToAcceptedWaiter) {
  MutexTable table;
  InstanceId a{"A", 1}, b{"B", 2}, c{"C", 3};
  EXPECT_EQ(table.Acquire("r", {a, 1, 10}), MutexTable::Acquired::kGranted);
  EXPECT_EQ(table.Acquire("r", {a, 1, 10}),
            MutexTable::Acquired::kAlreadyHeld);
  EXPECT_EQ(table.Acquire("r", {b, 2, 11}), MutexTable::Acquired::kQueued);
  EXPECT_EQ(table.Acquire("r", {c, 3, 12}), MutexTable::Acquired::kQueued);

  MutexTable::Holder next;
  EXPECT_FALSE(table.Release("r", b, 2, &next));  // not the holder
  // The first waiter is refused (say it ended meanwhile); the second
  // gets the lock.
  ASSERT_TRUE(table.Release("r", a, 1, &next,
                            [&b](const MutexTable::Holder& waiter) {
                              return waiter.instance != b;
                            }));
  EXPECT_EQ(next.instance, c);
  EXPECT_EQ(next.node, 12);
  ASSERT_TRUE(table.Release("r", c, 3, &next));
  EXPECT_EQ(next.node, kInvalidNode);
  EXPECT_EQ(table.Acquire("r", {a, 1, 10}), MutexTable::Acquired::kGranted);
}

TEST(CoordTest, MutexClaimsTrackPendingAndGranted) {
  MutexClaims claims;
  EXPECT_TRUE(claims.Request(2, "r"));
  EXPECT_FALSE(claims.Request(2, "r"));  // already pending: not re-sent
  EXPECT_FALSE(claims.Granted(2, "r"));
  claims.Grant(2, "r");
  claims.Grant(5, "s");
  EXPECT_TRUE(claims.Granted(2, "r"));
  EXPECT_TRUE(claims.Request(5, "t"));
  EXPECT_EQ(claims.GrantedSteps(), (std::vector<StepId>{2, 5}));
  EXPECT_TRUE(claims.Release(2, "r"));
  EXPECT_FALSE(claims.Release(2, "r"));
  EXPECT_FALSE(claims.Release(5, "t"));  // pending: nothing to hand back
  EXPECT_EQ(claims.GrantedSteps(), (std::vector<StepId>{5}));
}

TEST(CoordTest, RequirementCountSumsAllKinds) {
  CoordinationSpec spec;
  RelativeOrderReq ro;
  ro.workflow_a = "A";
  ro.workflow_b = "B";
  ro.step_pairs = {{1, 1}, {2, 2}};
  spec.relative_orders.push_back(ro);
  MutexReq me;
  me.resource = "r";
  me.critical_steps = {{"A", 3}, {"B", 1}};
  spec.mutexes.push_back(me);
  RollbackDepReq rd;
  rd.workflow_a = "A";
  rd.workflow_b = "B";
  spec.rollback_deps.push_back(rd);
  EXPECT_EQ(spec.RequirementCount("A"), 2 + 1 + 1);
  EXPECT_EQ(spec.RequirementCount("C"), 0);
}

}  // namespace
}  // namespace crew::runtime
