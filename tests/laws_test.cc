#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "dist/system.h"
#include "laws/export.h"
#include "laws/parser.h"

namespace crew::laws {
namespace {

const char kOrderSpec[] = R"LAWS(
# Order processing, LAWS style.
workflow OrderProcessing {
  input WF.I1
  step Receive  program "recv" cost 500
  step Check    program "check" query inputs WF.I1
  step Reserve  program "reserve" inputs S2.O1
  step Ship     program "ship"
  step Refuse   program "refuse" no_abort_comp
  arc Receive -> Check
  arc Check -> Reserve when "S2.O1 >= 1"
  arc Check -> Refuse else
  arc Reserve -> Ship
  on_fail Ship rollback_to Reserve max_attempts 3
  reexec Reserve when "changed(S2.O1)"
  compensation Reserve program "unreserve" partial 0.25 incremental 0.5
  comp_dep_set Reserve, Ship
  terminal_group Ship, Refuse
}

workflow Billing {
  step Invoice program "invoice"
  step Collect program "collect"
  arc Invoice -> Collect
}

coordination {
  relative_order ro1 between OrderProcessing and OrderProcessing pairs ( Reserve , Reserve ), ( Ship , Ship )
  mutex m1 resource "warehouse" steps OrderProcessing.Reserve
  rollback_dep rd1 from OrderProcessing.Reserve to Billing.Invoice
}
)LAWS";

TEST(LawsParserTest, ParsesFullSpecification) {
  Result<LawsFile> parsed = ParseLaws(kOrderSpec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const LawsFile& file = parsed.value();
  ASSERT_EQ(file.schemas.size(), 2u);

  const model::Schema& order = file.schemas[0]->schema();
  EXPECT_EQ(order.name(), "OrderProcessing");
  EXPECT_EQ(order.num_steps(), 5);
  StepId receive = order.FindStepByName("Receive");
  StepId check = order.FindStepByName("Check");
  StepId reserve = order.FindStepByName("Reserve");
  EXPECT_EQ(order.start_step(), receive);
  EXPECT_EQ(order.step(receive).cost, 500);
  EXPECT_EQ(order.step(check).access, model::AccessKind::kQuery);
  EXPECT_EQ(order.step(check).inputs, (std::vector<std::string>{"WF.I1"}));
  EXPECT_FALSE(order.step(order.FindStepByName("Refuse"))
                   .compensate_on_abort);
  EXPECT_EQ(order.step(order.FindStepByName("Ship")).failure.rollback_to,
            reserve);
  ASSERT_NE(order.step(reserve).ocr.reexec_condition, nullptr);
  EXPECT_EQ(order.step(reserve).compensation_program, "unreserve");
  EXPECT_DOUBLE_EQ(order.step(reserve).ocr.partial_compensation_fraction,
                   0.25);
  ASSERT_EQ(order.comp_dep_sets().size(), 1u);
  ASSERT_EQ(order.terminal_groups().size(), 1u);
  EXPECT_EQ(order.terminal_groups()[0].size(), 2u);

  // Coordination resolved to step ids.
  ASSERT_EQ(file.coordination.relative_orders.size(), 1u);
  EXPECT_EQ(file.coordination.relative_orders[0].step_pairs[0].first,
            reserve);
  ASSERT_EQ(file.coordination.mutexes.size(), 1u);
  EXPECT_EQ(file.coordination.mutexes[0].resource, "warehouse");
  ASSERT_EQ(file.coordination.rollback_deps.size(), 1u);
  EXPECT_EQ(file.coordination.rollback_deps[0].workflow_b, "Billing");
}

TEST(LawsParserTest, LoopsAndJoins) {
  const char spec[] = R"(
workflow Loopy {
  step Body  program "noop"
  step After program "noop"
  arc Body -> After when "S1.O1 >= 3"
  back Body -> Body when "S1.O1 < 3"
  join Body or
}
)";
  Result<LawsFile> parsed = ParseLaws(spec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const model::Schema& schema = parsed.value().schemas[0]->schema();
  EXPECT_EQ(schema.step(1).join, model::JoinKind::kOr);
  EXPECT_FALSE(schema.step(1).ocr.compensate_before_reexec);  // loop body
}

TEST(LawsParserTest, SubWorkflowStep) {
  const char spec[] = R"(
workflow Child {
  step Only program "noop"
}
workflow Parent {
  step Pre   program "noop"
  subworkflow Run schema Child inputs S1.O1
  step Post  program "noop"
  arc Pre -> Run
  arc Run -> Post
}
)";
  Result<LawsFile> parsed = ParseLaws(spec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const model::Schema& parent = parsed.value().schemas[1]->schema();
  StepId run = parent.FindStepByName("Run");
  EXPECT_EQ(parent.step(run).kind, model::StepKind::kSubWorkflow);
  EXPECT_EQ(parent.step(run).sub_workflow, "Child");
  EXPECT_EQ(parent.step(run).inputs,
            (std::vector<std::string>{"S1.O1"}));
}

TEST(LawsParserTest, RejectsBadInput) {
  EXPECT_FALSE(ParseLaws("nonsense {").ok());
  EXPECT_FALSE(ParseLaws("workflow A {").ok());  // unterminated
  EXPECT_FALSE(ParseLaws(R"(
workflow A {
  step S1 program "p"
  arc S1 -> S2
}
)").ok());  // unknown step
  EXPECT_FALSE(ParseLaws(R"(
workflow A {
  step S1 program "p"
  step S1 program "q"
}
)").ok());  // duplicate step
  EXPECT_FALSE(ParseLaws(R"(
workflow A {
  step S1 program "p"
  reexec S1 when "1 +"
}
)").ok());  // bad expression
  EXPECT_FALSE(ParseLaws(R"(
coordination {
  mutex m resource "r" steps Nope.S1
}
)").ok());  // unknown workflow
}

TEST(LawsParserTest, CommentsAndBlankLinesIgnored) {
  const char spec[] = R"(
# leading comment

workflow A {   # trailing comment
  step S1 program "noop"  # another
}
)";
  Result<LawsFile> parsed = ParseLaws(spec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().schemas.size(), 1u);
}

TEST(LawsIntegrationTest, ParsedWorkflowRunsDistributed) {
  Result<LawsFile> parsed = ParseLaws(kOrderSpec);
  ASSERT_TRUE(parsed.ok());

  sim::Simulator simulator(42);
  runtime::ProgramRegistry programs;
  programs.RegisterBuiltins();
  // Alias the LAWS program names onto builtins.
  for (const char* name : {"recv", "check", "reserve", "ship", "refuse",
                           "unreserve", "invoice", "collect"}) {
    programs.Register(name, [](const runtime::ProgramContext& ctx) {
      runtime::ProgramOutcome out;
      out.outputs["O1"] = Value(static_cast<int64_t>(ctx.attempt));
      return out;
    });
  }
  model::Deployment deployment;
  dist::DistributedSystem system(&simulator, &programs, &deployment,
                                 &parsed.value().coordination, 6);
  for (const model::CompiledSchemaPtr& schema : parsed.value().schemas) {
    deployment.AssignRandom(*schema, system.agent_ids(), 2,
                            &simulator.rng());
    system.RegisterSchema(schema);
  }
  Result<InstanceId> id = system.front_end().StartWorkflow(
      "OrderProcessing", {{"WF.I1", Value(int64_t{4})}});
  ASSERT_TRUE(id.ok());
  simulator.Run();
  EXPECT_EQ(system.front_end().KnownStatus(id.value()),
            runtime::WorkflowState::kCommitted);
}

TEST(LawsExportTest, WorkflowRoundTripsThroughLawsText) {
  Result<LawsFile> parsed = ParseLaws(kOrderSpec);
  ASSERT_TRUE(parsed.ok());
  std::vector<const model::Schema*> schemas;
  for (const model::CompiledSchemaPtr& compiled : parsed.value().schemas) {
    schemas.push_back(&compiled->schema());
  }
  std::string exported =
      ExportLaws(schemas, parsed.value().coordination);

  Result<LawsFile> reparsed = ParseLaws(exported);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n"
                             << exported;
  ASSERT_EQ(reparsed.value().schemas.size(),
            parsed.value().schemas.size());
  for (size_t i = 0; i < schemas.size(); ++i) {
    const model::Schema& a = *schemas[i];
    const model::Schema& b = reparsed.value().schemas[i]->schema();
    EXPECT_EQ(a.name(), b.name());
    ASSERT_EQ(a.num_steps(), b.num_steps());
    for (StepId s = 1; s <= a.num_steps(); ++s) {
      EXPECT_EQ(a.step(s).name, b.step(s).name);
      EXPECT_EQ(a.step(s).program, b.step(s).program);
      EXPECT_EQ(a.step(s).cost, b.step(s).cost);
      EXPECT_EQ(a.step(s).access, b.step(s).access);
      EXPECT_EQ(a.step(s).join, b.step(s).join);
      EXPECT_EQ(a.step(s).inputs, b.step(s).inputs);
      EXPECT_EQ(a.step(s).failure.rollback_to,
                b.step(s).failure.rollback_to);
      EXPECT_EQ(a.step(s).compensation_program,
                b.step(s).compensation_program);
      EXPECT_EQ(a.step(s).compensate_on_abort,
                b.step(s).compensate_on_abort);
    }
    EXPECT_EQ(a.control_arcs().size(), b.control_arcs().size());
    EXPECT_EQ(a.comp_dep_sets().size(), b.comp_dep_sets().size());
    EXPECT_EQ(a.terminal_groups().size(), b.terminal_groups().size());
    EXPECT_EQ(a.start_step(), b.start_step());
  }
  const runtime::CoordinationSpec& ca = parsed.value().coordination;
  const runtime::CoordinationSpec& cb = reparsed.value().coordination;
  ASSERT_EQ(cb.relative_orders.size(), ca.relative_orders.size());
  EXPECT_EQ(cb.relative_orders[0].step_pairs,
            ca.relative_orders[0].step_pairs);
  ASSERT_EQ(cb.mutexes.size(), ca.mutexes.size());
  EXPECT_EQ(cb.mutexes[0].resource, ca.mutexes[0].resource);
  ASSERT_EQ(cb.rollback_deps.size(), ca.rollback_deps.size());
  EXPECT_EQ(cb.rollback_deps[0].step_a, ca.rollback_deps[0].step_a);
}

TEST(LawsExportTest, LoopAndConditionRoundTrip) {
  const char spec[] = R"(
workflow Loopy {
  step Body  program "noop" cost 100
  step After program "noop" cost 100
  arc Body -> After when "S1.O1 >= 3"
  back Body -> Body when "S1.O1 < 3"
  join Body or
}
)";
  Result<LawsFile> parsed = ParseLaws(spec);
  ASSERT_TRUE(parsed.ok());
  std::string exported =
      ExportWorkflow(parsed.value().schemas[0]->schema());
  Result<LawsFile> reparsed = ParseLaws(exported);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n"
                             << exported;
  const model::Schema& b = reparsed.value().schemas[0]->schema();
  // Back edge and conditions preserved.
  int back_edges = 0;
  for (const model::ControlArc& arc : b.control_arcs()) {
    if (arc.is_back_edge) {
      ++back_edges;
      ASSERT_NE(arc.condition, nullptr);
    }
  }
  EXPECT_EQ(back_edges, 1);
  EXPECT_FALSE(b.step(1).ocr.compensate_before_reexec);  // loop body
}

TEST(LawsFileTest, ParsesTheShippedExampleFile) {
  // The repository ships a LAWS file used by the examples; it must stay
  // parseable and structurally sound.
  Result<LawsFile> parsed =
      ParseLawsFile(std::string(CREW_SOURCE_DIR) + "/examples/order.laws");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().schemas.size(), 2u);
  EXPECT_EQ(parsed.value().schemas[0]->schema().name(), "Order");
  EXPECT_EQ(parsed.value().schemas[0]->schema().num_steps(), 6);
  EXPECT_EQ(parsed.value().coordination.relative_orders.size(), 1u);
  EXPECT_EQ(parsed.value().coordination.mutexes.size(), 1u);
  EXPECT_EQ(parsed.value().coordination.rollback_deps.size(), 1u);
}

TEST(LawsFileTest, MissingFileIsNotFound) {
  EXPECT_TRUE(
      ParseLawsFile("/nonexistent/path.laws").status().IsNotFound());
}

// Every truncation of the shipped example, every byte with one seeded
// bit flipped, seeded multi-byte edits and random tails: the parser
// must return, whether it accepts or not.
TEST(LawsFileTest, HostileSourcesNeverCrashTheParser) {
  std::ifstream in(std::string(CREW_SOURCE_DIR) + "/examples/order.laws");
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string source = buffer.str();
  ASSERT_FALSE(source.empty());
  ASSERT_TRUE(ParseLaws(source).ok());
  Rng rng(0x1A5);
  for (size_t n = 0; n < source.size(); ++n) {
    (void)ParseLaws(source.substr(0, n));
  }
  for (size_t i = 0; i < source.size(); ++i) {
    std::string flipped = source;
    flipped[i] = static_cast<char>(flipped[i] ^ (1 << rng.Index(8)));
    (void)ParseLaws(flipped);
  }
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = source;
    int64_t edits = rng.Uniform(1, 6);
    for (int64_t e = 0; e < edits && !mutated.empty(); ++e) {
      size_t pos = rng.Index(mutated.size());
      char byte = static_cast<char>(rng.Uniform(0, 255));
      switch (rng.Index(3)) {
        case 0: mutated[pos] = byte; break;
        case 1: mutated.erase(pos, 1); break;
        default: mutated.insert(pos, 1, byte);
      }
    }
    (void)ParseLaws(mutated);
  }
  for (int trial = 0; trial < 100; ++trial) {
    std::string junk = source.substr(0, rng.Index(source.size()));
    int64_t length = rng.Uniform(0, 64);
    for (int64_t i = 0; i < length; ++i) {
      junk.push_back(static_cast<char>(rng.Uniform(0, 255)));
    }
    (void)ParseLaws(junk);
  }
}

}  // namespace
}  // namespace crew::laws
