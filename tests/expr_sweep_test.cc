// Parameterized property sweeps over the condition-expression language:
// evaluation tables, round-trip stability, and operator laws checked
// across many generated cases.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "expr/eval.h"
#include "expr/parser.h"

namespace crew::expr {
namespace {

class TableEnv : public Environment {
 public:
  std::map<std::string, Value> now;
  std::optional<Value> Lookup(const std::string& name) const override {
    auto it = now.find(name);
    if (it == now.end()) return std::nullopt;
    return it->second;
  }
};

struct EvalCase {
  const char* source;
  int64_t x;
  bool expected;
};

// Names each case by its source and input. Without this, gtest prints the
// raw bytes of the struct (a string pointer and padding), so the test names
// change from one run of the binary to the next.
void PrintTo(const EvalCase& c, std::ostream* os) {
  *os << c.source << " at x=" << c.x;
}

class ConditionTable : public ::testing::TestWithParam<EvalCase> {};

TEST_P(ConditionTable, EvaluatesAsExpected) {
  const EvalCase& c = GetParam();
  TableEnv env;
  env.now["x"] = Value(c.x);
  env.now["name"] = Value("widget");
  Result<NodePtr> parsed = ParseExpression(c.source);
  ASSERT_TRUE(parsed.ok()) << c.source;
  EXPECT_EQ(EvaluateCondition(parsed.value(), env), c.expected)
      << c.source << " with x=" << c.x;
}

const EvalCase kConditionCases[] = {
    EvalCase{"x > 5", 6, true}, EvalCase{"x > 5", 5, false},
    EvalCase{"x >= 5", 5, true}, EvalCase{"x != 3", 3, false},
    EvalCase{"x % 2 == 0", 4, true}, EvalCase{"x % 2 == 0", 7, false},
    EvalCase{"x * 2 + 1 == 9", 4, true},
    EvalCase{"-x == 0 - x", 17, true},
    EvalCase{"x > 0 and x < 10", 5, true},
    EvalCase{"x > 0 and x < 10", 15, false},
    EvalCase{"x < 0 or x > 10", 15, true},
    EvalCase{"not (x == 1)", 1, false},
    EvalCase{"name == \"widget\"", 0, true},
    EvalCase{"name != \"gadget\"", 0, true},
    EvalCase{"exists(x) and not exists(y)", 0, true},
    EvalCase{"min(x, 10) == x", 3, true},
    EvalCase{"max(x, 10) == 10", 3, true},
    EvalCase{"abs(x - 10) <= 2", 9, true},
    EvalCase{"abs(x - 10) <= 2", 5, false},
    EvalCase{"x / 2 == 3", 7, true},  // integer division
    EvalCase{"missing > 1", 5, false}  // unbound -> false condition
};

INSTANTIATE_TEST_SUITE_P(Conditions, ConditionTable,
                         ::testing::ValuesIn(kConditionCases));

// Every truncation, every single-bit flip, seeded multi-byte edits and
// random tails of the table's expressions: the parser must return,
// whether it accepts or not.
TEST(ExpressionProperty, HostileSourcesNeverCrashTheParser) {
  Rng rng(0xE59);
  for (const EvalCase& c : kConditionCases) {
    const std::string source = c.source;
    ASSERT_TRUE(ParseExpression(source).ok()) << source;
    for (size_t n = 0; n < source.size(); ++n) {
      (void)ParseExpression(source.substr(0, n));
    }
    for (size_t i = 0; i < source.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = source;
        flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
        (void)ParseExpression(flipped);
      }
    }
    for (int trial = 0; trial < 100; ++trial) {
      std::string mutated = source;
      int64_t edits = rng.Uniform(1, 4);
      for (int64_t e = 0; e < edits && !mutated.empty(); ++e) {
        size_t pos = rng.Index(mutated.size());
        char byte = static_cast<char>(rng.Uniform(0, 255));
        switch (rng.Index(3)) {
          case 0: mutated[pos] = byte; break;
          case 1: mutated.erase(pos, 1); break;
          default: mutated.insert(pos, 1, byte);
        }
      }
      (void)ParseExpression(mutated);
    }
    for (int trial = 0; trial < 50; ++trial) {
      std::string junk = source.substr(0, rng.Index(source.size()));
      int64_t length = rng.Uniform(0, 32);
      for (int64_t i = 0; i < length; ++i) {
        junk.push_back(static_cast<char>(rng.Uniform(0, 255)));
      }
      (void)ParseExpression(junk);
    }
  }
}

/// Random-expression round-trip: parse -> ToString -> parse must be
/// semantically identical on 200 generated arithmetic expressions.
TEST(ExpressionProperty, RandomRoundTripStable) {
  Rng rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    // Build a random arithmetic comparison over x, y.
    const char* ops[] = {"+", "-", "*"};
    const char* cmps[] = {"<", "<=", "==", "!=", ">", ">="};
    std::string source = "x " + std::string(ops[rng.Index(3)]) + " " +
                         std::to_string(rng.Uniform(1, 9)) + " " +
                         cmps[rng.Index(6)] + " y " +
                         ops[rng.Index(3)] + " " +
                         std::to_string(rng.Uniform(1, 9));
    Result<NodePtr> first = ParseExpression(source);
    ASSERT_TRUE(first.ok()) << source;
    Result<NodePtr> second = ParseExpression(first.value()->ToString());
    ASSERT_TRUE(second.ok()) << first.value()->ToString();

    TableEnv env;
    for (int probe = 0; probe < 5; ++probe) {
      env.now["x"] = Value(rng.Uniform(-20, 20));
      env.now["y"] = Value(rng.Uniform(-20, 20));
      Result<Value> a = Evaluate(first.value(), env);
      Result<Value> b = Evaluate(second.value(), env);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a.value(), b.value()) << source;
    }
  }
}

/// De Morgan's laws hold for the evaluator over random boolean inputs.
TEST(ExpressionProperty, DeMorgan) {
  Result<NodePtr> lhs = ParseExpression("not (p and q)");
  Result<NodePtr> rhs = ParseExpression("not p or not q");
  Result<NodePtr> lhs2 = ParseExpression("not (p or q)");
  Result<NodePtr> rhs2 = ParseExpression("not p and not q");
  ASSERT_TRUE(lhs.ok() && rhs.ok() && lhs2.ok() && rhs2.ok());
  for (bool p : {false, true}) {
    for (bool q : {false, true}) {
      TableEnv env;
      env.now["p"] = Value(p);
      env.now["q"] = Value(q);
      EXPECT_EQ(Evaluate(lhs.value(), env).value(),
                Evaluate(rhs.value(), env).value());
      EXPECT_EQ(Evaluate(lhs2.value(), env).value(),
                Evaluate(rhs2.value(), env).value());
    }
  }
}

/// Comparison trichotomy: exactly one of <, ==, > holds for numerics.
TEST(ExpressionProperty, Trichotomy) {
  Rng rng(77);
  Result<NodePtr> lt = ParseExpression("x < y");
  Result<NodePtr> eq = ParseExpression("x == y");
  Result<NodePtr> gt = ParseExpression("x > y");
  ASSERT_TRUE(lt.ok() && eq.ok() && gt.ok());
  for (int trial = 0; trial < 100; ++trial) {
    TableEnv env;
    env.now["x"] = Value(rng.Uniform(-5, 5));
    env.now["y"] = Value(rng.Uniform(-5, 5));
    int holds = 0;
    holds += Evaluate(lt.value(), env).value().AsBool() ? 1 : 0;
    holds += Evaluate(eq.value(), env).value().AsBool() ? 1 : 0;
    holds += Evaluate(gt.value(), env).value().AsBool() ? 1 : 0;
    EXPECT_EQ(holds, 1);
  }
}

/// Malformed inputs never parse: a fuzz-lite sweep of broken sources.
TEST(ExpressionProperty, MalformedInputsRejected) {
  const char* broken[] = {
      "",        "+",        "x +",      "(x",      "x)",
      "x ==",    "and x",    "1 2",      "x > > 1", "min(",
      "min(1,",  "\"open",   "x & y",    "x | y",   "= x",
      "not",     "()",       ", x",      "exists(1 +",
  };
  for (const char* source : broken) {
    EXPECT_FALSE(ParseExpression(source).ok()) << "'" << source << "'";
  }
}

}  // namespace
}  // namespace crew::expr
