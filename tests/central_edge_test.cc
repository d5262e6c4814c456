// Edge cases of the centralized engine's administrative surface and of
// designer-error handling.
#include <gtest/gtest.h>

#include <set>

#include "central/system.h"
#include "model/builder.h"
#include "rules/event.h"
#include "runtime/coord.h"
#include "runtime/wire.h"

namespace crew::central {
namespace {

using model::SchemaBuilder;
using runtime::WorkflowState;

class EdgeFixture {
 public:
  EdgeFixture() : simulator_(42) {
    programs_.RegisterBuiltins();
    system_ = std::make_unique<CentralSystem>(
        &simulator_, &programs_, &deployment_, &coordination_, 4);
  }

  void Register(model::Schema schema) {
    auto compiled = model::CompiledSchema::Compile(std::move(schema));
    ASSERT_TRUE(compiled.ok());
    for (StepId s = 1; s <= compiled.value()->schema().num_steps(); ++s) {
      deployment_.SetEligible(compiled.value()->schema().name(), s,
                              {system_->agent_ids()[0],
                               system_->agent_ids()[1]});
    }
    system_->engine().RegisterSchema(compiled.value());
  }

  sim::Simulator simulator_;
  runtime::ProgramRegistry programs_;
  model::Deployment deployment_;
  runtime::CoordinationSpec coordination_;
  std::unique_ptr<CentralSystem> system_;
};

model::Schema Seq2(const std::string& name,
                   const std::string& second_program = "noop") {
  SchemaBuilder b(name);
  StepId s1 = b.AddTask("A", "noop");
  StepId s2 = b.AddTask("B", second_program);
  b.Sequence({s1, s2});
  auto schema = b.Build();
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

TEST(CentralEdgeTest, UnknownInstanceQueriesAndRequests) {
  EdgeFixture fix;
  fix.Register(Seq2("Wf"));
  EXPECT_EQ(fix.system_->engine().QueryStatus({"Wf", 404}),
            WorkflowState::kUnknown);
  EXPECT_TRUE(fix.system_->engine().AbortWorkflow({"Wf", 404}).IsNotFound());
  EXPECT_TRUE(fix.system_->engine()
                  .ChangeInputs({"Wf", 404}, {{"WF.I1", Value(int64_t{1})}})
                  .IsNotFound());
  EXPECT_TRUE(fix.system_->engine().FinalData({"Wf", 404}).empty());
}

TEST(CentralEdgeTest, ChangeInputsWithIdenticalValuesIsNoOp) {
  EdgeFixture fix;
  SchemaBuilder b("Wf");
  StepId s1 = b.AddTask("A", "copy");
  b.step(s1).inputs = {"WF.I1"};
  StepId s2 = b.AddTask("B", "noop");
  b.Sequence({s1, s2});
  fix.Register(std::move(b.Build()).value());

  ASSERT_TRUE(fix.system_->engine()
                  .StartWorkflow("Wf", 1, {{"WF.I1", Value(int64_t{5})}})
                  .ok());
  fix.simulator_.queue().RunUntil(2);
  int64_t messages_before = fix.simulator_.metrics().TotalMessages();
  // Same value: no rollback, no extra traffic beyond what's in flight.
  ASSERT_TRUE(fix.system_->engine()
                  .ChangeInputs({"Wf", 1}, {{"WF.I1", Value(int64_t{5})}})
                  .ok());
  EXPECT_EQ(fix.simulator_.metrics().MessagesIn(
                sim::MsgCategory::kInputChange),
            0);
  fix.simulator_.Run();
  EXPECT_EQ(fix.system_->engine().QueryStatus({"Wf", 1}),
            WorkflowState::kCommitted);
  (void)messages_before;
}

TEST(CentralEdgeTest, ChangeInputsBeforeConsumerRanMergesSilently) {
  EdgeFixture fix;
  SchemaBuilder b("Wf");
  StepId s1 = b.AddTask("A", "noop");
  StepId s2 = b.AddTask("B", "copy");
  b.step(s2).inputs = {"WF.I1"};
  b.Sequence({s1, s2});
  fix.Register(std::move(b.Build()).value());

  ASSERT_TRUE(fix.system_->engine()
                  .StartWorkflow("Wf", 1, {{"WF.I1", Value(int64_t{5})}})
                  .ok());
  // Change before B (the consumer) has run: just a data merge.
  ASSERT_TRUE(fix.system_->engine()
                  .ChangeInputs({"Wf", 1}, {{"WF.I1", Value(int64_t{9})}})
                  .ok());
  fix.simulator_.Run();
  EXPECT_EQ(fix.system_->engine().QueryStatus({"Wf", 1}),
            WorkflowState::kCommitted);
  EXPECT_EQ(fix.system_->engine().FinalData({"Wf", 1}).at("S2.O1"),
            Value(int64_t{9}));
}

TEST(CentralEdgeTest, MissingProgramFailsStepAndAborts) {
  EdgeFixture fix;
  fix.Register(Seq2("Wf", "never_registered"));
  ASSERT_TRUE(fix.system_->engine().StartWorkflow("Wf", 1, {}).ok());
  fix.simulator_.Run();
  // The unknown program behaves as a failing step; with no rollback
  // target the workflow aborts rather than hanging.
  EXPECT_EQ(fix.system_->engine().QueryStatus({"Wf", 1}),
            WorkflowState::kAborted);
}

TEST(CentralEdgeTest, ChoiceWithNoMatchingBranchHangsNotCrashes) {
  EdgeFixture fix;
  // Designer error: conditions cover nothing and there is no else.
  SchemaBuilder b("Stuck");
  StepId s1 = b.AddTask("A", "noop");
  StepId s2 = b.AddTask("L", "noop");
  StepId s3 = b.AddTask("R", "noop");
  b.CondArc(s1, s2, "S1.O1 > 100");
  b.CondArc(s1, s3, "S1.O1 > 200");
  b.TerminalGroup({s2, s3});
  fix.Register(std::move(b.Build()).value());
  ASSERT_TRUE(fix.system_->engine().StartWorkflow("Stuck", 1, {}).ok());
  fix.simulator_.Run();
  EXPECT_EQ(fix.system_->engine().QueryStatus({"Stuck", 1}),
            WorkflowState::kExecuting);  // hangs, by design
}

TEST(CentralEdgeTest, AbortedLeaderReleasesOrderedFollowers) {
  EdgeFixture fix;
  runtime::RelativeOrderReq ro;
  ro.id = "fifo";
  ro.workflow_a = "Wf";
  ro.workflow_b = "Wf";
  ro.step_pairs = {{2, 2}};
  fix.coordination_.relative_orders.push_back(ro);
  fix.Register(Seq2("Wf"));

  ASSERT_TRUE(fix.system_->engine().StartWorkflow("Wf", 1, {}).ok());
  ASSERT_TRUE(fix.system_->engine().StartWorkflow("Wf", 2, {}).ok());
  // Abort the leader before its ordered step completes.
  ASSERT_TRUE(fix.system_->engine().AbortWorkflow({"Wf", 1}).ok());
  fix.simulator_.Run();
  EXPECT_EQ(fix.system_->engine().QueryStatus({"Wf", 1}),
            WorkflowState::kAborted);
  // The follower must not hang on the dead leader's ordering token.
  EXPECT_EQ(fix.system_->engine().QueryStatus({"Wf", 2}),
            WorkflowState::kCommitted);
}

TEST(CentralEdgeTest, ManyInstancesInterleaveDeterministically) {
  EdgeFixture fix;
  fix.Register(Seq2("Wf"));
  for (int64_t n = 1; n <= 40; ++n) {
    ASSERT_TRUE(fix.system_->engine().StartWorkflow("Wf", n, {}).ok());
  }
  fix.simulator_.Run();
  EXPECT_EQ(fix.system_->engine().committed_count(), 40);
  // Every instance is retired at its commit; only the archive remains.
  EXPECT_EQ(fix.system_->engine().live_instances(), 0u);
}

TEST(CentralEdgeTest, CommitWaitsForQueuedCompensationBeforeRetiring) {
  EdgeFixture fix;
  int undone = 0;
  fix.programs_.Register("undo", [&undone](const runtime::ProgramContext&) {
    ++undone;
    return runtime::ProgramOutcome{};
  });
  fix.programs_.RegisterFailFirstN("flaky", 1);
  // The first pass takes the long top branch; the final step fails once,
  // decide re-runs and switches to the one-step bottom branch. The four
  // top steps are compensated one at a time while bottom and final run,
  // so the instance commits with compensation still queued.
  SchemaBuilder b("Switch");
  StepId decide = b.AddTask("decide", "noop");  // O1 = attempt number
  std::vector<StepId> top;
  for (int i = 0; i < 4; ++i) {
    top.push_back(b.AddTask("top" + std::to_string(i), "noop"));
    b.step(top.back()).compensation_program = "undo";
  }
  StepId bottom = b.AddTask("bottom", "noop");
  StepId final_step = b.AddTask("final", "flaky");
  b.CondArc(decide, top[0], "S1.O1 == 1");
  b.ElseArc(decide, bottom);
  for (int i = 0; i + 1 < 4; ++i) b.Arc(top[i], top[i + 1]);
  b.Arc(top.back(), final_step);
  b.Arc(bottom, final_step);
  b.SetJoin(final_step, model::JoinKind::kOr);
  b.OnFail(final_step, decide, 3);
  fix.Register(std::move(b.Build()).value());

  WorkflowEngine& engine = fix.system_->engine();
  const InstanceId id{"Switch", 1};
  ASSERT_TRUE(engine.StartWorkflow("Switch", 1, {}).ok());
  bool live_after_commit = false;
  while (fix.simulator_.queue().RunOne()) {
    if (engine.QueryStatus(id) == WorkflowState::kCommitted &&
        engine.live_instances() == 1) {
      live_after_commit = true;
    }
  }
  EXPECT_TRUE(live_after_commit);
  EXPECT_EQ(undone, 4);
  EXPECT_EQ(engine.live_instances(), 0u);
  EXPECT_EQ(engine.QueryStatus(id), WorkflowState::kCommitted);
  EXPECT_TRUE(engine.FinalData(id).count("S6.O1"));
}

/// Keeps every message sent to a node id no real node uses.
class Recorder : public sim::MessageHandler {
 public:
  void HandleMessage(const sim::Message& message) override {
    received.push_back(message);
  }
  std::vector<sim::Message> received;
};

TEST(CentralEdgeTest, LateTrafficToRetiredInstancesIsDropped) {
  EdgeFixture fix;
  fix.Register(Seq2("Wf"));
  fix.Register(Seq2("Bad", "never_registered"));
  WorkflowEngine& engine = fix.system_->engine();
  const InstanceId committed{"Wf", 1};
  const InstanceId aborted{"Bad", 1};
  ASSERT_TRUE(
      engine.StartWorkflow("Wf", 1, {{"WF.I1", Value(int64_t{5})}}).ok());
  ASSERT_TRUE(
      engine.StartWorkflow("Bad", 1, {{"WF.I1", Value(int64_t{6})}}).ok());
  fix.simulator_.Run();
  ASSERT_EQ(engine.QueryStatus(committed), WorkflowState::kCommitted);
  ASSERT_EQ(engine.QueryStatus(aborted), WorkflowState::kAborted);
  ASSERT_EQ(engine.live_instances(), 0u);
  const std::map<std::string, Value> committed_data =
      engine.FinalData(committed);
  const std::map<std::string, Value> aborted_data = engine.FinalData(aborted);
  EXPECT_EQ(committed_data.at("WF.I1"), Value(int64_t{5}));
  EXPECT_EQ(aborted_data.at("WF.I1"), Value(int64_t{6}));

  const NodeId arbiter = 900;
  Recorder recorder;
  fix.simulator_.network().Register(arbiter, &recorder);
  const NodeId agent = fix.system_->agent_ids()[0];
  const int64_t engine_load = fix.simulator_.metrics().LoadAt(engine.id());
  const int64_t messages = fix.simulator_.metrics().TotalMessages();
  auto send = [&](NodeId from, const std::string& type,
                  const std::string& payload) {
    ASSERT_TRUE(fix.simulator_.network()
                    .Send({from, engine.id(), type, payload})
                    .ok());
  };
  for (const InstanceId& id : {committed, aborted}) {
    // A step result and a compensation result that arrive too late.
    for (bool compensation : {false, true}) {
      runtime::RunProgramReplyMsg reply;
      reply.instance = id;
      reply.step = 2;
      reply.success = true;
      reply.compensation = compensation;
      reply.epoch = 99;
      reply.responder = agent;
      send(agent, runtime::wi::kRunProgramReply, reply.Serialize());
    }
    // An ME grant: the waiter is gone, so the lock goes back.
    send(arbiter, runtime::wi::kAddEvent,
         runtime::EncodeMeGrant(id, "R", 2));
    // An RO token from a leader that just finished.
    runtime::AddEventMsg ro;
    ro.instance = id;
    ro.event_token = rules::TokenNameStr(
        rules::event::RelativeOrderToken({"Wf", 7}, 1));
    send(arbiter, runtime::wi::kAddEvent, ro.Serialize());
    // A rollback propagated through a rollback dependency.
    runtime::WorkflowRollbackMsg rollback;
    rollback.instance = id;
    rollback.origin_step = 1;
    rollback.state.instance = id;
    send(arbiter, runtime::wi::kWorkflowRollback, rollback.Serialize());

    EXPECT_EQ(engine.AbortWorkflow(id).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(engine.ChangeInputs(id, {{"WF.I1", Value(int64_t{9})}}).code(),
              StatusCode::kFailedPrecondition);
  }
  fix.simulator_.Run();

  // Only the two grants are answered, each by a release to the arbiter.
  ASSERT_EQ(recorder.received.size(), 2u);
  std::set<InstanceId> released;
  for (const sim::Message& message : recorder.received) {
    ASSERT_EQ(message.type, runtime::wi::kAddRule);
    Result<runtime::AddRuleMsg> release =
        runtime::AddRuleMsg::Parse(message.payload);
    ASSERT_TRUE(release.ok());
    EXPECT_EQ(runtime::MeRequestKindOf(release.value()),
              runtime::MeRequestKind::kRelease);
    EXPECT_EQ(release.value().condition_source, "R");
    EXPECT_EQ(release.value().action_step, 2);
    released.insert(release.value().instance);
  }
  EXPECT_EQ(released, (std::set<InstanceId>{committed, aborted}));
  EXPECT_EQ(fix.simulator_.metrics().TotalMessages(), messages + 10 + 2);
  EXPECT_EQ(fix.simulator_.metrics().LoadAt(engine.id()), engine_load);
  EXPECT_EQ(engine.live_instances(), 0u);
  EXPECT_EQ(engine.QueryStatus(committed), WorkflowState::kCommitted);
  EXPECT_EQ(engine.QueryStatus(aborted), WorkflowState::kAborted);
  EXPECT_EQ(engine.FinalData(committed), committed_data);
  EXPECT_EQ(engine.FinalData(aborted), aborted_data);
  EXPECT_EQ(engine.committed_count(), 1);
  EXPECT_EQ(engine.aborted_count(), 1);
}

}  // namespace
}  // namespace crew::central
