#include <gtest/gtest.h>
#include <filesystem>

#include "dist/system.h"
#include "expr/parser.h"
#include "model/builder.h"
#include "runtime/wire.h"
#include "workload/driver.h"

namespace crew::dist {
namespace {

using model::SchemaBuilder;
using runtime::WorkflowState;

class DistFixture {
 public:
  explicit DistFixture(int agents = 6, uint64_t seed = 42,
                       AgentOptions options = {})
      : simulator_(seed) {
    programs_.RegisterBuiltins();
    system_ = std::make_unique<DistributedSystem>(
        &simulator_, &programs_, &deployment_, &coordination_, agents,
        options);
  }

  void Register(model::Schema schema, int eligible = 2) {
    auto compiled = model::CompiledSchema::Compile(std::move(schema));
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    const auto& ids = system_->agent_ids();
    for (StepId s = 1; s <= compiled.value()->schema().num_steps(); ++s) {
      std::vector<NodeId> agents;
      for (int k = 0; k < eligible; ++k) {
        agents.push_back(ids[(s - 1 + k) % ids.size()]);
      }
      std::sort(agents.begin(), agents.end());
      deployment_.SetEligible(compiled.value()->schema().name(), s,
                              agents);
    }
    system_->RegisterSchema(compiled.value());
  }

  InstanceId Start(const std::string& workflow,
                   std::map<std::string, Value> inputs = {}) {
    Result<InstanceId> id =
        system_->front_end().StartWorkflow(workflow, std::move(inputs));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.value_or(InstanceId{});
  }

  void Run() { simulator_.Run(); }

  sim::Simulator simulator_;
  runtime::ProgramRegistry programs_;
  model::Deployment deployment_;
  runtime::CoordinationSpec coordination_;
  std::unique_ptr<DistributedSystem> system_;
};

model::Schema Seq(const std::string& name, int steps,
                  const std::string& program = "noop") {
  SchemaBuilder b(name);
  std::vector<StepId> ids;
  for (int i = 0; i < steps; ++i) {
    ids.push_back(b.AddTask("T" + std::to_string(i + 1), program));
  }
  b.Sequence(ids);
  auto schema = b.Build();
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  return std::move(schema).value();
}

TEST(DistAgentTest, SequentialWorkflowCommits) {
  DistFixture fix;
  fix.Register(Seq("Wf", 4));
  InstanceId id = fix.Start("Wf");
  fix.Run();
  EXPECT_EQ(fix.system_->front_end().KnownStatus(id),
            WorkflowState::kCommitted);
  // Terminal data reached the coordination agent.
  std::map<std::string, Value> data = fix.system_->ArchivedData(id);
  EXPECT_EQ(data.at("S4.O1"), Value(int64_t{1}));
}

TEST(DistAgentTest, NoEngineNodeCarriesNavigationLoad) {
  DistFixture fix(/*agents=*/6);
  fix.Register(Seq("Wf", 6));
  for (int i = 0; i < 6; ++i) fix.Start("Wf");
  fix.Run();
  EXPECT_EQ(fix.system_->committed_count(), 6);
  // Navigation load is spread across agents; no node dominates like a
  // central engine would.
  std::vector<NodeId> loaded = fix.simulator_.metrics().LoadedNodes();
  int with_nav = 0;
  for (NodeId node : loaded) {
    if (fix.simulator_.metrics().LoadAt(
            node, sim::LoadCategory::kNavigation) > 0) {
      ++with_nav;
    }
  }
  EXPECT_GE(with_nav, 4);
}

TEST(DistAgentTest, ParallelBranchesJoinAcrossAgents) {
  DistFixture fix;
  SchemaBuilder b("Par");
  StepId s1 = b.AddTask("split", "noop");
  StepId s2 = b.AddTask("left", "noop");
  StepId s3 = b.AddTask("right", "noop");
  StepId s4 = b.AddTask("join", "noop");
  b.Parallel(s1, {{s2, s2}, {s3, s3}}, s4);
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  fix.Register(std::move(schema).value());
  InstanceId id = fix.Start("Par");
  fix.Run();
  EXPECT_EQ(fix.system_->front_end().KnownStatus(id),
            WorkflowState::kCommitted);
}

TEST(DistAgentTest, ChoiceBranchEvaluatedAtReceivingAgents) {
  DistFixture fix;
  SchemaBuilder b("Choice");
  StepId s1 = b.AddTask("decide", "copy");
  b.step(s1).inputs = {"WF.I1"};
  StepId s2 = b.AddTask("big", "noop");
  StepId s3 = b.AddTask("small", "noop");
  b.CondArc(s1, s2, "S1.O1 >= 10");
  b.ElseArc(s1, s3);
  b.TerminalGroup({s2, s3});
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  fix.Register(std::move(schema).value());

  InstanceId big = fix.Start("Choice", {{"WF.I1", Value(int64_t{50})}});
  InstanceId small = fix.Start("Choice", {{"WF.I1", Value(int64_t{2})}});
  fix.Run();
  EXPECT_EQ(fix.system_->front_end().KnownStatus(big),
            WorkflowState::kCommitted);
  EXPECT_EQ(fix.system_->front_end().KnownStatus(small),
            WorkflowState::kCommitted);
  EXPECT_TRUE(fix.system_->ArchivedData(big).count("S2.O1"));
  EXPECT_TRUE(fix.system_->ArchivedData(small).count("S3.O1"));
}

TEST(DistAgentTest, LoopIteratesViaBackEdgePackets) {
  DistFixture fix;
  SchemaBuilder b("Loop");
  StepId s1 = b.AddTask("body", "noop");
  StepId s2 = b.AddTask("after", "noop");
  b.CondArc(s1, s2, "S1.O1 >= 3");
  b.BackArc(s1, s1, "S1.O1 < 3");
  b.SetJoin(s1, model::JoinKind::kOr);
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  fix.Register(std::move(schema).value());
  InstanceId id = fix.Start("Loop");
  fix.Run();
  EXPECT_EQ(fix.system_->front_end().KnownStatus(id),
            WorkflowState::kCommitted);
  EXPECT_EQ(fix.system_->ArchivedData(id).at("S1.O1"), Value(int64_t{3}));
}

TEST(DistAgentTest, StepFailureRollsBackViaHaltProbes) {
  DistFixture fix;
  fix.programs_.RegisterFailFirstN("flaky", 1);
  SchemaBuilder b("Retry");
  StepId s1 = b.AddTask("A", "noop");
  StepId s2 = b.AddTask("B", "noop");
  StepId s3 = b.AddTask("C", "flaky");
  b.Sequence({s1, s2, s3});
  b.OnFail(s3, s2, 3);
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  fix.Register(std::move(schema).value());
  InstanceId id = fix.Start("Retry");
  fix.Run();
  EXPECT_EQ(fix.system_->front_end().KnownStatus(id),
            WorkflowState::kCommitted);
  EXPECT_EQ(fix.system_->ArchivedData(id).at("S3.O1"), Value(int64_t{2}));
  EXPECT_GT(fix.simulator_.metrics().MessagesIn(
                sim::MsgCategory::kFailureHandling),
            0);
}

TEST(DistAgentTest, OcrReuseAvoidsReexecution) {
  DistFixture fix;
  fix.programs_.RegisterFailFirstN("flaky", 1);
  SchemaBuilder b("Ocr");
  StepId s1 = b.AddTask("A", "noop");
  b.step(s1).inputs = {"WF.I1"};
  b.step(s1).ocr.reexec_condition =
      expr::ParseExpression("changed(WF.I1)").value();
  StepId s2 = b.AddTask("B", "noop");
  b.step(s2).inputs = {"S1.O1"};
  b.step(s2).ocr.reexec_condition =
      expr::ParseExpression("changed(S1.O1)").value();
  StepId s3 = b.AddTask("C", "flaky");
  b.Sequence({s1, s2, s3});
  b.OnFail(s3, s1, 3);
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  fix.Register(std::move(schema).value());
  InstanceId id = fix.Start("Ocr", {{"WF.I1", Value(int64_t{7})}});
  fix.Run();
  EXPECT_EQ(fix.system_->front_end().KnownStatus(id),
            WorkflowState::kCommitted);
  std::map<std::string, Value> data = fix.system_->ArchivedData(id);
  EXPECT_EQ(data.at("S1.O1"), Value(int64_t{1}));  // reused
  EXPECT_EQ(data.at("S2.O1"), Value(int64_t{1}));  // reused
  EXPECT_EQ(data.at("S3.O1"), Value(int64_t{2}));  // retried
}

TEST(DistAgentTest, ExhaustedRetriesAbortViaCoordinationAgent) {
  DistFixture fix;
  SchemaBuilder b("Doomed");
  StepId s1 = b.AddTask("A", "noop");
  StepId s2 = b.AddTask("B", "fail_always");
  b.Sequence({s1, s2});
  b.OnFail(s2, s1, 2);
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  fix.Register(std::move(schema).value());
  InstanceId id = fix.Start("Doomed");
  fix.Run();
  EXPECT_EQ(fix.system_->front_end().KnownStatus(id),
            WorkflowState::kAborted);
}

TEST(DistAgentTest, UserAbortCompensatesAndHalts) {
  DistFixture fix;
  fix.Register(Seq("Wf", 5));
  InstanceId id = fix.Start("Wf");
  fix.simulator_.queue().RunUntil(6);
  ASSERT_TRUE(fix.system_->front_end().RequestAbort(id).ok());
  fix.Run();
  EXPECT_EQ(fix.system_->front_end().KnownStatus(id),
            WorkflowState::kAborted);
  EXPECT_GT(
      fix.simulator_.metrics().MessagesIn(sim::MsgCategory::kAbort), 0);
}

TEST(DistAgentTest, AbortAfterCommitIsRejected) {
  DistFixture fix;
  fix.Register(Seq("Wf", 3));
  InstanceId id = fix.Start("Wf");
  fix.Run();
  ASSERT_EQ(fix.system_->front_end().KnownStatus(id),
            WorkflowState::kCommitted);
  ASSERT_TRUE(fix.system_->front_end().RequestAbort(id).ok());
  fix.Run();
  // Still committed: the coordination agent rejected the abort.
  EXPECT_EQ(fix.system_->front_end().KnownStatus(id),
            WorkflowState::kCommitted);
  EXPECT_EQ(fix.system_->committed_count(), 1);
  EXPECT_EQ(fix.system_->aborted_count(), 0);
}

TEST(DistAgentTest, InputChangeRollsBackAffectedSteps) {
  DistFixture fix;
  SchemaBuilder b("InChange");
  StepId s1 = b.AddTask("A", "copy");
  b.step(s1).inputs = {"WF.I1"};
  StepId s2 = b.AddTask("B", "copy");
  b.step(s2).inputs = {"S1.O1"};
  StepId s3 = b.AddTask("C", "copy");
  b.step(s3).inputs = {"S2.O1"};
  b.Sequence({s1, s2, s3});
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  fix.Register(std::move(schema).value());

  InstanceId id = fix.Start("InChange", {{"WF.I1", Value(int64_t{10})}});
  fix.simulator_.queue().RunUntil(5);
  ASSERT_TRUE(fix.system_->front_end()
                  .RequestChangeInputs(id, {{"WF.I1", Value(int64_t{99})}})
                  .ok());
  fix.Run();
  EXPECT_EQ(fix.system_->front_end().KnownStatus(id),
            WorkflowState::kCommitted);
  EXPECT_EQ(fix.system_->ArchivedData(id).at("S3.O1"),
            Value(int64_t{99}));
}

TEST(DistAgentTest, RelativeOrderingViaAddRuleProtocol) {
  DistFixture fix;
  runtime::RelativeOrderReq ro;
  ro.id = "orders";
  ro.workflow_a = "Wf";
  ro.workflow_b = "Wf";
  ro.step_pairs = {{2, 2}, {3, 3}};
  fix.coordination_.relative_orders.push_back(ro);
  fix.Register(Seq("Wf", 4));
  InstanceId first = fix.Start("Wf");
  InstanceId second = fix.Start("Wf");
  InstanceId third = fix.Start("Wf");
  fix.Run();
  EXPECT_EQ(fix.system_->front_end().KnownStatus(first),
            WorkflowState::kCommitted);
  EXPECT_EQ(fix.system_->front_end().KnownStatus(second),
            WorkflowState::kCommitted);
  EXPECT_EQ(fix.system_->front_end().KnownStatus(third),
            WorkflowState::kCommitted);
  EXPECT_GT(fix.simulator_.metrics().MessagesIn(
                sim::MsgCategory::kCoordination),
            0);
}

TEST(DistAgentTest, MutualExclusionViaArbiterAgent) {
  DistFixture fix;
  runtime::MutexReq me;
  me.id = "m";
  me.resource = "machine";
  me.critical_steps = {{"Wf", 2}};
  fix.coordination_.mutexes.push_back(me);
  fix.Register(Seq("Wf", 3));
  std::vector<InstanceId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(fix.Start("Wf"));
  fix.Run();
  for (const InstanceId& id : ids) {
    EXPECT_EQ(fix.system_->front_end().KnownStatus(id),
              WorkflowState::kCommitted)
        << id.ToString();
  }
}

TEST(DistAgentTest, CompensationDependentSetChains) {
  DistFixture fix;
  fix.programs_.RegisterFailFirstN("flaky", 1);
  // S1 S2 S3 S4(flaky; rollback to S2). Comp-dep set {S2, S3}: when S2
  // re-executes, S3 (executed after S2) must compensate first.
  SchemaBuilder b("Sets");
  StepId s1 = b.AddTask("A", "noop");
  StepId s2 = b.AddTask("B", "noop");
  StepId s3 = b.AddTask("C", "noop");
  StepId s4 = b.AddTask("D", "flaky");
  b.Sequence({s1, s2, s3, s4});
  b.OnFail(s4, s2, 3);
  b.AddCompDepSet({s2, s3});
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  fix.Register(std::move(schema).value());
  InstanceId id = fix.Start("Sets");
  fix.Run();
  EXPECT_EQ(fix.system_->front_end().KnownStatus(id),
            WorkflowState::kCommitted);
  // Re-execution happened: S2/S3 ran twice.
  EXPECT_EQ(fix.system_->ArchivedData(id).at("S2.O1"), Value(int64_t{2}));
  EXPECT_EQ(fix.system_->ArchivedData(id).at("S3.O1"), Value(int64_t{2}));
}

// A step re-executed after its comp-dep chain is charged at its
// incremental re-execution fraction, as on the empty-chain path: the
// plan is made before the step's own compensation marks it compensated.
TEST(DistAgentTest, CompDepResumeChargesIncrementalReexecution) {
  DistFixture fix;
  fix.programs_.RegisterFailFirstN("flaky", 1);
  SchemaBuilder b("Sets");
  StepId s1 = b.AddTask("A", "noop");
  StepId s2 = b.AddTask("B", "noop");
  StepId s3 = b.AddTask("C", "noop");
  StepId s4 = b.AddTask("D", "flaky");
  b.Sequence({s1, s2, s3, s4});
  b.OnFail(s4, s2, 3);
  b.AddCompDepSet({s2, s3});
  for (StepId free : {s1, s3, s4}) b.step(free).cost = 0;
  b.step(s2).cost = 1000;
  b.step(s2).ocr.partial_compensation_fraction = 0.25;
  b.step(s2).ocr.incremental_reexec_fraction = 0.5;
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  fix.Register(std::move(schema).value());
  InstanceId id = fix.Start("Sets");
  fix.Run();
  ASSERT_EQ(fix.system_->front_end().KnownStatus(id),
            WorkflowState::kCommitted);
  ASSERT_EQ(fix.system_->ArchivedData(id).at("S2.O1"), Value(int64_t{2}));
  int64_t program_load = 0;
  for (NodeId agent : fix.system_->agent_ids()) {
    program_load +=
        fix.simulator_.metrics().LoadAt(agent, sim::LoadCategory::kProgram);
  }
  // S2's first run, its partial compensation and its incremental rerun.
  EXPECT_EQ(program_load, 1000 + 250 + 500);
}

TEST(DistAgentTest, BranchSwitchCompensatesOldBranchThread) {
  DistFixture fix;
  fix.programs_.RegisterFailFirstN("flaky", 1);
  SchemaBuilder b("Switch");
  StepId s1 = b.AddTask("decide", "noop");  // O1 = attempt
  StepId s2 = b.AddTask("top", "noop");
  StepId s3 = b.AddTask("bottom", "noop");
  StepId s4 = b.AddTask("final", "flaky");
  b.CondArc(s1, s2, "S1.O1 == 1");
  b.ElseArc(s1, s3);
  b.Arc(s2, s4);
  b.Arc(s3, s4);
  b.SetJoin(s4, model::JoinKind::kOr);
  b.OnFail(s4, s1, 3);
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  fix.Register(std::move(schema).value());
  InstanceId id = fix.Start("Switch");
  fix.Run();
  EXPECT_EQ(fix.system_->front_end().KnownStatus(id),
            WorkflowState::kCommitted);
  EXPECT_TRUE(fix.system_->ArchivedData(id).count("S3.O1"));
}

TEST(DistAgentTest, RollbackDependencyPropagatesViaFrontEnd) {
  DistFixture fix;
  fix.programs_.RegisterFailFirstN("flaky", 1);
  // "Lead" fails at S3 and rolls back to S1; the RD requirement then
  // rolls every live "Dep" instance back to its S1 as well. The re-run
  // is observable through Dep's S1 attempt count.
  runtime::RollbackDepReq rd;
  rd.id = "rd";
  rd.workflow_a = "Lead";
  rd.step_a = 2;
  rd.workflow_b = "Dep";
  rd.step_b = 1;
  fix.coordination_.rollback_deps.push_back(rd);

  {
    model::SchemaBuilder b("Lead");
    StepId s1 = b.AddTask("l1", "noop");
    StepId s2 = b.AddTask("l2", "noop");
    StepId s3 = b.AddTask("l3", "flaky");
    b.Sequence({s1, s2, s3});
    b.OnFail(s3, s1, 3);
    auto schema = b.Build();
    ASSERT_TRUE(schema.ok());
    fix.Register(std::move(schema).value());
  }
  {
    // Dep is long enough to still be live when Lead's failure hits, and
    // its steps always re-execute on revisit (no reuse condition).
    fix.Register(Seq("Dep", 8));
  }
  InstanceId dep = fix.Start("Dep");
  InstanceId lead = fix.Start("Lead");
  fix.Run();
  EXPECT_EQ(fix.system_->front_end().KnownStatus(lead),
            WorkflowState::kCommitted);
  EXPECT_EQ(fix.system_->front_end().KnownStatus(dep),
            WorkflowState::kCommitted);
  // Dep's first step ran at least twice: once normally, once after the
  // RD-induced rollback.
  std::map<std::string, Value> data = fix.system_->ArchivedData(dep);
  ASSERT_TRUE(data.count("S1.O1"));
  EXPECT_GE(data.at("S1.O1").AsInt(), 2);
}

TEST(DistAgentTest, NestedWorkflowRunsChildToCommit) {
  DistFixture fix;
  fix.Register(Seq("Child", 3));
  SchemaBuilder b("Parent");
  StepId s1 = b.AddTask("pre", "noop");
  StepId s2 = b.AddSubWorkflow("child", "Child");
  b.step(s2).inputs = {"S1.O1"};
  StepId s3 = b.AddTask("post", "noop");
  b.Sequence({s1, s2, s3});
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  fix.Register(std::move(schema).value());
  InstanceId id = fix.Start("Parent");
  fix.Run();
  EXPECT_EQ(fix.system_->front_end().KnownStatus(id),
            WorkflowState::kCommitted);
  // The child's terminal results surfaced under the parent step.
  std::map<std::string, Value> data = fix.system_->ArchivedData(id);
  EXPECT_TRUE(data.count("S2.sub.S3.O1"));
  // The parent's purge dropped the entry of its committed child.
  for (size_t i = 0; i < fix.system_->num_agents(); ++i) {
    EXPECT_EQ(fix.system_->agent(i).protocol_entries(), 0u) << "agent " << i;
  }
}

TEST(DistAgentTest, SuccessorAgentFailureRoutesAroundDownNode) {
  DistFixture fix(/*agents=*/4);
  fix.Register(Seq("Wf", 3), /*eligible=*/2);
  // Take one agent down for the whole interesting window.
  sim::InjectCrash(&fix.simulator_, fix.system_->agent_ids()[1], 0, 200);
  InstanceId id = fix.Start("Wf");
  fix.Run();
  EXPECT_EQ(fix.system_->front_end().KnownStatus(id),
            WorkflowState::kCommitted);
}

TEST(DistAgentTest, QueryStepReexecutedWhenPredecessorDown) {
  AgentOptions options;
  options.pending_timeout = 30;
  DistFixture fix(/*agents=*/6, /*seed=*/42, options);
  // Parallel split: S1 -> (S2 || S3) -> S4. S2 is a *query* step whose
  // elected executor crashes after receiving the packet but before
  // completing — the work is lost. S4's agent holds a pending join rule
  // missing only S2.done; after the timeout it polls S2's eligible
  // agents (all reply "unknown"), and because S2 is a query it
  // re-requests execution at a living eligible agent (§5.2).
  SchemaBuilder b("Poll");
  StepId s1 = b.AddTask("A", "noop");
  StepId s2 = b.AddTask("B", "noop");
  b.step(s2).access = model::AccessKind::kQuery;
  StepId s3 = b.AddTask("C", "noop");
  StepId s4 = b.AddTask("D", "noop");
  b.Parallel(s1, {{s2, s2}, {s3, s3}}, s4);
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  fix.Register(std::move(schema).value(), /*eligible=*/3);
  InstanceId id = fix.Start("Poll");
  // The S2 executor is elected by hash over the eligible agents (all up
  // at election time). Crash it after it receives the packet (t=3) but
  // before its completion callback (t=5); keep it down long past the
  // poll window.
  const auto& eligible = fix.deployment_.Eligible("Poll", s2);
  NodeId executor =
      eligible[static_cast<size_t>(id.number + s2) % eligible.size()];
  // t=4: the executor has already received the packet; its completion
  // callback is due at t=6 and is lost to the crash.
  sim::InjectCrash(&fix.simulator_, executor, 5, 2000);
  fix.Run();
  EXPECT_EQ(fix.system_->front_end().KnownStatus(id),
            WorkflowState::kCommitted);
  EXPECT_GT(fix.simulator_.metrics().MessagesIn(
                sim::MsgCategory::kFailureHandling),
            0);
  // The purge dropped every poll and poll time of the instance.
  for (size_t i = 0; i < fix.system_->num_agents(); ++i) {
    EXPECT_EQ(fix.system_->agent(i).protocol_entries(), 0u) << "agent " << i;
  }
}

TEST(DistAgentTest, MessageCountMatchesFanoutModel) {
  DistFixture fix(/*agents=*/6);
  fix.Register(Seq("Wf", 5), /*eligible=*/2);
  InstanceId id = fix.Start("Wf");
  fix.Run();
  ASSERT_EQ(fix.system_->front_end().KnownStatus(id),
            WorkflowState::kCommitted);
  // Paper model: s·a + f. Five steps: the four non-terminal completions
  // fan out to a=2 eligible successors; terminal completion sends one
  // StepCompleted. Self-deliveries are free, so the measured count is
  // bounded by the model.
  int64_t normal =
      fix.simulator_.metrics().MessagesIn(sim::MsgCategory::kNormal);
  EXPECT_LE(normal, 4 * 2 + 1);
  EXPECT_GE(normal, 4);
}

TEST(DistAgentTest, ElectionProbesAreMeteredSeparately) {
  // With election probes on, successor selection exchanges
  // StateInformation messages among the eligible agents; they are
  // metered in their own category and never change the outcome.
  AgentOptions probing;
  probing.election_probes = true;
  DistFixture with(/*agents=*/6, /*seed=*/42, probing);
  DistFixture without(/*agents=*/6, /*seed=*/42);
  for (DistFixture* fix : {&with, &without}) {
    fix->Register(Seq("Wf", 5), /*eligible=*/3);
    InstanceId id = fix->Start("Wf");
    fix->Run();
    ASSERT_EQ(fix->system_->front_end().KnownStatus(id),
              WorkflowState::kCommitted);
  }
  EXPECT_GT(with.simulator_.metrics().MessagesIn(
                sim::MsgCategory::kElection),
            0);
  EXPECT_EQ(without.simulator_.metrics().MessagesIn(
                sim::MsgCategory::kElection),
            0);
  // The modelled (headline) message count is unaffected by probing.
  EXPECT_EQ(
      with.simulator_.metrics().MessagesIn(sim::MsgCategory::kNormal),
      without.simulator_.metrics().MessagesIn(sim::MsgCategory::kNormal));
}

TEST(DistAgentTest, PurgeBroadcastClearsAgentState) {
  DistFixture fix(/*agents=*/4);
  fix.Register(Seq("Wf", 3));
  InstanceId id = fix.Start("Wf");
  fix.Run();
  ASSERT_EQ(fix.system_->front_end().KnownStatus(id),
            WorkflowState::kCommitted);
  for (size_t i = 0; i < fix.system_->num_agents(); ++i) {
    EXPECT_EQ(fix.system_->agent(i).live_instances(), 0u)
        << "agent " << fix.system_->agent(i).id();
  }
}

TEST(DistAgentTest, CoordinationAgentOutageDelaysButCommits) {
  // The coordination agent (agent 1, owner of the start step) is down
  // when the workflow is started: the WorkflowStart parks in its queue
  // (persistent messaging) and the instance runs to commit once it
  // recovers.
  DistFixture fix(/*agents=*/4);
  fix.Register(Seq("Wf", 3), /*eligible=*/2);
  sim::InjectCrash(&fix.simulator_, 1, /*at=*/0, /*outage=*/60);
  InstanceId id = fix.Start("Wf");
  fix.simulator_.queue().RunUntil(50);
  EXPECT_NE(fix.system_->front_end().KnownStatus(id),
            WorkflowState::kCommitted);
  fix.Run();
  EXPECT_EQ(fix.system_->front_end().KnownStatus(id),
            WorkflowState::kCommitted);
}

TEST(DistAgentTest, CrashDuringRecoveryStillConverges) {
  // A step fails (rollback in progress) while one of the re-execution
  // agents is down; parked packets deliver on recovery and the workflow
  // commits.
  DistFixture fix(/*agents=*/5);
  fix.programs_.RegisterFailFirstN("flaky", 1);
  SchemaBuilder b("Wf");
  StepId s1 = b.AddTask("A", "noop");
  StepId s2 = b.AddTask("B", "noop");
  StepId s3 = b.AddTask("C", "noop");
  StepId s4 = b.AddTask("D", "flaky");
  b.Sequence({s1, s2, s3, s4});
  b.OnFail(s4, s2, 3);
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  fix.Register(std::move(schema).value(), /*eligible=*/2);
  // Crash an agent in the middle of the recovery window.
  sim::InjectCrash(&fix.simulator_, 3, /*at=*/8, /*outage=*/100);
  InstanceId id = fix.Start("Wf");
  fix.Run();
  EXPECT_EQ(fix.system_->front_end().KnownStatus(id),
            WorkflowState::kCommitted);
}

TEST(DistAgentTest, ManyConcurrentInstancesWithFailuresAllTerminate) {
  DistFixture fix(/*agents=*/10);
  fix.programs_.RegisterFlaky("maybe", 0.15);
  SchemaBuilder b("Wf");
  StepId s1 = b.AddTask("A", "noop");
  StepId s2 = b.AddTask("B", "maybe");
  StepId s3 = b.AddTask("C", "maybe");
  StepId s4 = b.AddTask("D", "noop");
  b.Sequence({s1, s2, s3, s4});
  b.OnFail(s2, s1, 6);
  b.OnFail(s3, s1, 6);
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  fix.Register(std::move(schema).value());
  std::vector<InstanceId> ids;
  for (int i = 0; i < 30; ++i) ids.push_back(fix.Start("Wf"));
  fix.Run();
  int committed = 0, aborted = 0;
  for (const InstanceId& id : ids) {
    WorkflowState state = fix.system_->front_end().KnownStatus(id);
    committed += state == WorkflowState::kCommitted ? 1 : 0;
    aborted += state == WorkflowState::kAborted ? 1 : 0;
  }
  EXPECT_EQ(committed + aborted, 30);
  EXPECT_GT(committed, 20);  // p(6 consecutive failures) is tiny
}

size_t TableRows(const Agent& agent, const std::string& table) {
  const storage::Table* found = agent.agdb().FindTable(table);
  return found == nullptr ? 0 : found->size();
}

/// The instance's status at whichever agent coordinates it.
WorkflowState CoordinatorStatus(DistFixture& fix, const InstanceId& id) {
  for (size_t i = 0; i < fix.system_->num_agents(); ++i) {
    WorkflowState state = fix.system_->agent(i).CoordinationStatus(id);
    if (state != WorkflowState::kUnknown) return state;
  }
  return WorkflowState::kUnknown;
}

TEST(DistAgentTest, AgdbPersistsStepRecords) {
  namespace fs = std::filesystem;
  std::string dir = (fs::temp_directory_path() / "crew_agdb").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  AgentOptions options;
  options.agdb_dir = dir;
  InstanceId id;
  {
    DistFixture fix(/*agents=*/3, /*seed=*/42, options);
    fix.Register(Seq("Wf", 3), /*eligible=*/1);
    id = fix.Start("Wf");
    // While the instance runs, its executors keep a step row for each
    // step they completed.
    size_t step_rows = 0;
    for (sim::Time t = 1; step_rows == 0 && t < 1000; ++t) {
      fix.simulator_.queue().RunUntil(t);
      for (size_t i = 0; i < fix.system_->num_agents(); ++i) {
        step_rows += TableRows(fix.system_->agent(i), "steps");
      }
    }
    ASSERT_GT(step_rows, 0u);
    EXPECT_EQ(CoordinatorStatus(fix, id), WorkflowState::kExecuting);
    fix.Run();
    ASSERT_EQ(fix.system_->front_end().KnownStatus(id),
              WorkflowState::kCommitted);
    // The purge deleted them again.
    for (size_t i = 0; i < fix.system_->num_agents(); ++i) {
      EXPECT_EQ(TableRows(fix.system_->agent(i), "steps"), 0u);
    }
  }
  {
    // Restarted agents replay the WAL, deletes included: no step row of
    // the purged instance comes back, coord_summary still says committed,
    // and no coordination entry is rebuilt for it.
    DistFixture fix(/*agents=*/3, /*seed=*/42, options);
    fix.Register(Seq("Wf", 3), /*eligible=*/1);
    int summaries = 0;
    for (size_t i = 0; i < fix.system_->num_agents(); ++i) {
      const Agent& agent = fix.system_->agent(i);
      EXPECT_EQ(TableRows(agent, "steps"), 0u) << "agent " << agent.id();
      EXPECT_EQ(TableRows(agent, "coord_groups"), 0u)
          << "agent " << agent.id();
      EXPECT_EQ(agent.coordinating_instances(), 0u) << "agent " << agent.id();
      const storage::Table* summary = agent.agdb().FindTable("coord_summary");
      if (summary == nullptr) continue;
      const storage::Row* row = summary->Get(id.ToString());
      if (row == nullptr) continue;
      ++summaries;
      EXPECT_EQ(row->Get("status"), Value(std::string("committed")));
    }
    EXPECT_EQ(summaries, 1);
    EXPECT_EQ(CoordinatorStatus(fix, id), WorkflowState::kCommitted);
    EXPECT_EQ(fix.system_->committed_count(), 1);
  }
  fs::remove_all(dir);
}

// An instance can end (here: abort) while a re-execution of one of its
// mutex steps holds the lock. The purge must hand that grant back to the
// arbiter, or every later request for the resource queues behind a
// holder that never finishes. Before purges released held grants, this
// input left 6 of its 200 instances unfinished.
TEST(DistAgentTest, AbortsUnderMutualExclusionAllTerminate) {
  workload::Params params;
  params.num_schemas = 4;
  params.steps_per_workflow = 15;
  params.instances_per_schema = 50;
  params.seed = 8;
  params.mutex_steps = 2;
  params.p_abort = 0.1;
  params.p_step_failure = 0;
  params.p_input_change = 0;
  params.relative_order_steps = 0;
  params.rollback_dep_steps = 0;
  workload::RunResult result =
      workload::RunWorkload(params, workload::Architecture::kDistributed);
  EXPECT_EQ(result.started, 200);
  EXPECT_EQ(result.committed + result.aborted, result.started)
      << result.Describe();
}

class RecordingHandler : public sim::MessageHandler {
 public:
  void HandleMessage(const sim::Message& message) override {
    messages.push_back(message);
  }
  std::vector<sim::Message> messages;
};

// A grant that reaches a replica re-created after its instance was
// purged must go straight back to the arbiter: the replica never runs
// the step, so keeping the grant would block the resource for good.
TEST(DistAgentTest, GrantToEndedInstanceIsReleasedToArbiter) {
  DistFixture fix(/*agents=*/4);
  runtime::MutexReq me;
  me.id = "m";
  me.resource = "machine";
  me.critical_steps = {{"Wf", 2}};
  fix.coordination_.mutexes.push_back(me);
  fix.Register(Seq("Wf", 3));
  InstanceId id = fix.Start("Wf");
  fix.Run();
  ASSERT_EQ(fix.system_->front_end().KnownStatus(id),
            WorkflowState::kCommitted);

  // Step 2 is eligible at the second and third agent; the lower id
  // arbitrates. Stand in for the arbiter to see what reaches it.
  const std::vector<NodeId>& ids = fix.system_->agent_ids();
  NodeId arbiter = ids[1];
  NodeId agent = ids[2];
  RecordingHandler recorder;
  fix.simulator_.network().Register(arbiter, &recorder);

  // A late rollback for the ended instance ...
  runtime::WorkflowRollbackMsg rollback;
  rollback.instance = id;
  rollback.origin_step = 1;
  rollback.new_epoch = 5;
  rollback.state.instance = id;
  rollback.state.target_step = 1;
  ASSERT_TRUE(fix.simulator_.network()
                  .Send({kFrontEndNode, agent, runtime::wi::kWorkflowRollback,
                         rollback.Serialize(),
                         sim::MsgCategory::kFailureHandling})
                  .ok());
  fix.Run();
  // ... and then the arbiter's grant for it arrives.
  runtime::AddEventMsg grant;
  grant.instance = id;
  grant.event_token = "me.grant:machine:S2";
  ASSERT_TRUE(fix.simulator_.network()
                  .Send({arbiter, agent, runtime::wi::kAddEvent,
                         grant.Serialize(), sim::MsgCategory::kCoordination})
                  .ok());
  fix.Run();

  bool released = false;
  for (const sim::Message& message : recorder.messages) {
    if (message.type != runtime::wi::kAddRule) continue;
    Result<runtime::AddRuleMsg> rule =
        runtime::AddRuleMsg::Parse(message.payload);
    ASSERT_TRUE(rule.ok()) << rule.status().ToString();
    if (rule.value().rule_id == "me.release" && rule.value().instance == id &&
        rule.value().condition_source == "machine" &&
        rule.value().action_step == 2) {
      released = true;
    }
  }
  EXPECT_TRUE(released);
}

// An ME request must name its sender as the requester. One that names
// "x" used to read as node 0, the front end: the arbiter granted the lock
// there and nobody ever released it, so every later step that needed the
// resource waited for good.
TEST(DistAgentTest, MeRequestWithUnparsableRequesterIsDropped) {
  DistFixture fix(/*agents=*/4);
  runtime::MutexReq me;
  me.id = "m";
  me.resource = "machine";
  me.critical_steps = {{"Wf", 2}};
  fix.coordination_.mutexes.push_back(me);
  fix.Register(Seq("Wf", 3));

  // Step 2 is eligible at the second and third agent; the lower id
  // arbitrates.
  const std::vector<NodeId>& ids = fix.system_->agent_ids();
  runtime::AddRuleMsg acquire;
  acquire.instance = {"Other", 1};
  acquire.rule_id = "me.acquire";
  acquire.condition_source = "machine";
  acquire.action_step = 2;
  acquire.trigger_events = {"x"};
  ASSERT_TRUE(fix.simulator_.network()
                  .Send({ids[0], ids[1], runtime::wi::kAddRule,
                         acquire.Serialize(),
                         sim::MsgCategory::kCoordination})
                  .ok());

  InstanceId id = fix.Start("Wf");
  fix.simulator_.queue().RunUntil(1000);
  EXPECT_EQ(fix.system_->front_end().KnownStatus(id),
            WorkflowState::kCommitted);
}

// An arbiter answers every acquire from the current holder with a grant,
// as central's does: a requester that lost its claims (an agent whose
// restart cleared them) asks again and must not wait for good.
TEST(DistAgentTest, RepeatedAcquireFromHolderIsGrantedAgain) {
  DistFixture fix(/*agents=*/4);
  runtime::MutexReq me;
  me.id = "m";
  me.resource = "machine";
  me.critical_steps = {{"Wf", 2}};
  fix.coordination_.mutexes.push_back(me);
  fix.Register(Seq("Wf", 3));

  // Step 2 is eligible at the second and third agent; the lower id
  // arbitrates. Stand in for the third to see every grant it gets.
  const std::vector<NodeId>& ids = fix.system_->agent_ids();
  NodeId arbiter = ids[1];
  NodeId requester = ids[2];
  RecordingHandler recorder;
  fix.simulator_.network().Register(requester, &recorder);
  InstanceId id{"Wf", 77};
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(fix.simulator_.network()
                    .Send({requester, arbiter, runtime::wi::kAddRule,
                           runtime::EncodeMeRequest(
                               runtime::MeRequestKind::kAcquire, id,
                               "machine", 2, requester),
                           sim::MsgCategory::kCoordination})
                    .ok());
    fix.Run();
  }

  int grants = 0;
  for (const sim::Message& message : recorder.messages) {
    if (message.type != runtime::wi::kAddEvent) continue;
    Result<runtime::AddEventMsg> event =
        runtime::AddEventMsg::Parse(message.payload);
    ASSERT_TRUE(event.ok()) << event.status().ToString();
    if (event.value().instance == id &&
        event.value().event_token == "me.grant:machine:S2") {
      ++grants;
    }
  }
  EXPECT_EQ(grants, 2);
}

// A rollback or compensation chain that reaches an agent after the
// instance committed and was purged there must not re-create a replica:
// nothing would ever run or purge it.
TEST(DistAgentTest, LateRollbackDoesNotRecreatePurgedInstance) {
  DistFixture fix(/*agents=*/4);
  fix.Register(Seq("Wf", 3));
  InstanceId id = fix.Start("Wf");
  fix.Run();
  ASSERT_EQ(fix.system_->front_end().KnownStatus(id),
            WorkflowState::kCommitted);

  // Step 2 ran at the second or third agent; both held a replica and
  // purged it on commit.
  const std::vector<NodeId>& ids = fix.system_->agent_ids();
  for (NodeId agent : {ids[1], ids[2]}) {
    ASSERT_EQ(fix.system_->agent_by_id(agent)->live_instances(), 0u);
    runtime::WorkflowRollbackMsg rollback;
    rollback.instance = id;
    rollback.origin_step = 2;
    rollback.new_epoch = 5;
    rollback.state.instance = id;
    rollback.state.target_step = 2;
    runtime::CompensateSetMsg set;
    set.instance = id;
    set.origin_step = 2;
    set.remaining = {2};
    set.epoch = 5;
    set.resume_agent = agent;
    set.resume = rollback.state;
    for (const auto& [type, payload] :
         {std::pair{runtime::wi::kWorkflowRollback, rollback.Serialize()},
          std::pair{runtime::wi::kCompensateSet, set.Serialize()}}) {
      ASSERT_TRUE(fix.simulator_.network()
                      .Send({kFrontEndNode, agent, type, payload,
                             sim::MsgCategory::kFailureHandling})
                      .ok());
    }
  }
  fix.Run();
  for (NodeId agent : {ids[1], ids[2]}) {
    EXPECT_EQ(fix.system_->agent_by_id(agent)->live_instances(), 0u)
        << "agent " << agent;
  }
}


// After the drain of a mix with aborts, step failures and a rollback
// dependency, a purge has left each agent nothing of an ended instance
// but the coordinator's archive record and coord_summary row.
TEST(DistAgentTest, PurgeLeavesOnlyTheArchiveRecord) {
  DistFixture fix;
  fix.programs_.RegisterFailFirstN("flaky", 1);
  runtime::RollbackDepReq rd;
  rd.id = "rd";
  rd.workflow_a = "Lead";
  rd.step_a = 2;
  rd.workflow_b = "Dep";
  rd.step_b = 1;
  fix.coordination_.rollback_deps.push_back(rd);
  {
    SchemaBuilder b("Lead");
    StepId s1 = b.AddTask("l1", "noop");
    StepId s2 = b.AddTask("l2", "noop");
    StepId s3 = b.AddTask("l3", "flaky");
    b.Sequence({s1, s2, s3});
    b.OnFail(s3, s1, 3);
    auto schema = b.Build();
    ASSERT_TRUE(schema.ok());
    fix.Register(std::move(schema).value());
  }
  {
    SchemaBuilder b("Doomed");
    StepId s1 = b.AddTask("A", "noop");
    StepId s2 = b.AddTask("B", "fail_always");
    b.Sequence({s1, s2});
    b.OnFail(s2, s1, 2);
    auto schema = b.Build();
    ASSERT_TRUE(schema.ok());
    fix.Register(std::move(schema).value());
  }
  fix.Register(Seq("Dep", 8));
  fix.Register(Seq("Wf", 5));
  const InstanceId dep = fix.Start("Dep");
  const InstanceId lead = fix.Start("Lead");
  const InstanceId doomed = fix.Start("Doomed");
  const InstanceId user_abort = fix.Start("Wf");
  const InstanceId plain = fix.Start("Wf");
  fix.simulator_.queue().RunUntil(6);
  ASSERT_TRUE(fix.system_->front_end().RequestAbort(user_abort).ok());
  fix.Run();

  const std::map<InstanceId, WorkflowState> expected = {
      {dep, WorkflowState::kCommitted},
      {lead, WorkflowState::kCommitted},
      {doomed, WorkflowState::kAborted},
      {user_abort, WorkflowState::kAborted},
      {plain, WorkflowState::kCommitted}};
  for (const auto& [id, state] : expected) {
    ASSERT_EQ(fix.system_->front_end().KnownStatus(id), state)
        << id.ToString();
  }

  std::map<InstanceId, int> summary_rows;
  for (size_t i = 0; i < fix.system_->num_agents(); ++i) {
    const Agent& agent = fix.system_->agent(i);
    EXPECT_EQ(agent.live_instances(), 0u) << "agent " << agent.id();
    EXPECT_EQ(agent.coordinating_instances(), 0u) << "agent " << agent.id();
    EXPECT_EQ(TableRows(agent, "steps"), 0u) << "agent " << agent.id();
    EXPECT_EQ(TableRows(agent, "coord_groups"), 0u) << "agent " << agent.id();
    const storage::Table* summary = agent.agdb().FindTable("coord_summary");
    if (summary == nullptr) continue;
    for (const auto& [key, row] : summary->rows()) {
      const InstanceId id = InstanceId::Parse(key);
      ++summary_rows[id];
      ASSERT_TRUE(expected.count(id)) << key;
      EXPECT_EQ(agent.CoordinationStatus(id), expected.at(id)) << key;
    }
  }
  for (const auto& [id, state] : expected) {
    EXPECT_EQ(summary_rows[id], 1) << id.ToString();
    EXPECT_EQ(CoordinatorStatus(fix, id), state) << id.ToString();
  }
  EXPECT_EQ(summary_rows.size(), expected.size());

  // The archive keeps a commit's results and nothing for an abort.
  EXPECT_EQ(fix.system_->ArchivedData(lead).at("S3.O1"), Value(int64_t{2}));
  EXPECT_GE(fix.system_->ArchivedData(dep).at("S1.O1").AsInt(), 2);
  EXPECT_EQ(fix.system_->ArchivedData(plain).at("S5.O1"), Value(int64_t{1}));
  EXPECT_TRUE(fix.system_->ArchivedData(doomed).empty());
  EXPECT_TRUE(fix.system_->ArchivedData(user_abort).empty());
}

// Late traffic to a purged instance is handled as it was before the
// purge: an abort is answered once, with the archived status, at the
// original reply_to; a completion report and an input change are
// dropped; and no replica or coordination entry comes back.
TEST(DistAgentTest, LateTrafficToPurgedInstanceIsAnsweredFromTheArchive) {
  DistFixture fix(/*agents=*/4);
  fix.Register(Seq("Wf", 3));
  const InstanceId id = fix.Start("Wf");
  fix.Run();
  ASSERT_EQ(fix.system_->front_end().KnownStatus(id),
            WorkflowState::kCommitted);
  Agent* coordinator = nullptr;
  for (size_t i = 0; i < fix.system_->num_agents(); ++i) {
    if (fix.system_->agent(i).CoordinationStatus(id) !=
        WorkflowState::kUnknown) {
      coordinator = &fix.system_->agent(i);
    }
  }
  ASSERT_NE(coordinator, nullptr);
  ASSERT_EQ(coordinator->coordinating_instances(), 0u);
  const std::map<std::string, Value> data = coordinator->ArchivedData(id);
  ASSERT_EQ(data.at("S3.O1"), Value(int64_t{1}));

  // The front end was the original reply_to: stand in for it.
  RecordingHandler front_end;
  fix.simulator_.network().Register(kFrontEndNode, &front_end);
  const NodeId sender = 900;
  const int64_t messages = fix.simulator_.metrics().TotalMessages();
  const int64_t load = fix.simulator_.metrics().LoadAt(coordinator->id());
  runtime::WorkflowAbortMsg abort;
  abort.instance = id;
  runtime::StepCompletedMsg done;
  done.instance = id;
  done.step = 3;
  done.epoch = 7;
  done.results = {{"S3.O1", Value(int64_t{9})}};
  runtime::WorkflowChangeInputsMsg change;
  change.instance = id;
  change.new_inputs = {{"WF.I1", Value(int64_t{4})}};
  for (const auto& [type, payload] :
       {std::pair{runtime::wi::kWorkflowAbort, abort.Serialize()},
        std::pair{runtime::wi::kStepCompleted, done.Serialize()},
        std::pair{runtime::wi::kWorkflowChangeInputs, change.Serialize()}}) {
    ASSERT_TRUE(fix.simulator_.network()
                    .Send({sender, coordinator->id(), type, payload})
                    .ok());
  }
  fix.Run();

  ASSERT_EQ(front_end.messages.size(), 1u);
  const sim::Message& reply = front_end.messages.front();
  EXPECT_EQ(reply.from, coordinator->id());
  ASSERT_EQ(reply.type, runtime::wi::kWorkflowStatusReply);
  Result<runtime::WorkflowStatusReplyMsg> status =
      runtime::WorkflowStatusReplyMsg::Parse(reply.payload);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().instance, id);
  EXPECT_EQ(status.value().state, WorkflowState::kCommitted);
  EXPECT_EQ(fix.simulator_.metrics().TotalMessages(), messages + 3 + 1);
  EXPECT_EQ(fix.simulator_.metrics().LoadAt(coordinator->id()), load);
  for (size_t i = 0; i < fix.system_->num_agents(); ++i) {
    const Agent& agent = fix.system_->agent(i);
    EXPECT_EQ(agent.live_instances(), 0u) << "agent " << agent.id();
    EXPECT_EQ(agent.coordinating_instances(), 0u) << "agent " << agent.id();
  }
  EXPECT_EQ(coordinator->CoordinationStatus(id), WorkflowState::kCommitted);
  EXPECT_EQ(coordinator->ArchivedData(id), data);
  EXPECT_EQ(fix.system_->committed_count(), 1);
  EXPECT_EQ(fix.system_->aborted_count(), 0);
}

}  // namespace
}  // namespace crew::dist
