#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "central/system.h"
#include "model/builder.h"

namespace crew::obs {
namespace {

// ---------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------

TEST(LatencyHistogramTest, SmallValuesUseExactBuckets) {
  for (int64_t v = 0; v < LatencyHistogram::kLinearBuckets; ++v) {
    int index = LatencyHistogram::BucketIndex(v);
    EXPECT_EQ(index, static_cast<int>(v));
    EXPECT_EQ(LatencyHistogram::BucketLower(index), v);
    EXPECT_EQ(LatencyHistogram::BucketUpper(index), v);
  }
}

TEST(LatencyHistogramTest, BucketsCoverAllValuesInOrder) {
  // Every value lands inside its bucket's [lower, upper] range, and
  // bucket indices are monotone in the value.
  int previous = -1;
  for (int64_t v : std::vector<int64_t>{0, 1, 63, 64, 65, 100, 127, 128,
                                        1000, 4097, 1 << 20,
                                        int64_t{1} << 40}) {
    int index = LatencyHistogram::BucketIndex(v);
    EXPECT_GE(index, previous) << "value " << v;
    EXPECT_LE(LatencyHistogram::BucketLower(index), v) << "value " << v;
    EXPECT_GE(LatencyHistogram::BucketUpper(index), v) << "value " << v;
    previous = index;
  }
}

TEST(LatencyHistogramTest, RelativeBucketErrorBounded) {
  // Sub-bucketing keeps the bucket width within ~1/32 of the value.
  for (int64_t v = 64; v < (1 << 16); v = v * 5 / 4 + 1) {
    int index = LatencyHistogram::BucketIndex(v);
    int64_t width = LatencyHistogram::BucketUpper(index) -
                    LatencyHistogram::BucketLower(index) + 1;
    EXPECT_LE(width * 16, v) << "value " << v << " width " << width;
  }
}

TEST(LatencyHistogramTest, CountMinMaxMean) {
  LatencyHistogram h("t", "ticks");
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Percentile(50), 0.0);
  h.Add(10);
  h.Add(20);
  h.Add(30);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.min(), 10);
  EXPECT_EQ(h.max(), 30);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(LatencyHistogramTest, ExactPercentilesBelowLinearRange) {
  LatencyHistogram h;
  for (int64_t v = 1; v <= 50; ++v) h.Add(v);  // small values are exact
  EXPECT_NEAR(h.Percentile(50), 25.0, 1.0);
  EXPECT_NEAR(h.Percentile(95), 47.5, 1.0);
  EXPECT_NEAR(h.Percentile(99), 49.5, 1.0);
  EXPECT_NEAR(h.Percentile(100), 50.0, 0.5);
  EXPECT_LE(h.Percentile(0), 1.0);
}

TEST(LatencyHistogramTest, PercentileOfConstantIsConstant) {
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.Add(4096);
  for (double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    // Clamped to observed [min, max], so exact despite wide buckets.
    EXPECT_DOUBLE_EQ(h.Percentile(p), 4096.0) << "p" << p;
  }
}

TEST(LatencyHistogramTest, LargeValuePercentileWithinBucketError) {
  LatencyHistogram h;
  for (int64_t v = 1000; v < 2000; ++v) h.Add(v);
  // 3.2% worst-case relative bucket error at this magnitude.
  EXPECT_NEAR(h.Percentile(50), 1500.0, 50.0);
  EXPECT_NEAR(h.Percentile(99), 1990.0, 70.0);
}

// ---------------------------------------------------------------------
// Tracer / RingBufferTracer span pairing
// ---------------------------------------------------------------------

TEST(TracerTest, NullTracerDropsEverything) {
  Tracer* null = Tracer::Null();
  EXPECT_FALSE(null->enabled());
  null->Instant(SpanKind::kStep, 1, {"WF", 1}, 1, "step");  // no crash
}

TEST(RingBufferTracerTest, PairsBeginEndIntoCompleteSpan) {
  RingBufferTracer ring;
  int64_t clock = 100;
  ring.SetClock(&clock);
  ring.Begin(SpanKind::kStep, 7, {"WF", 1}, 3, "step");
  clock = 140;
  ring.End(SpanKind::kStep, 7, {"WF", 1}, 3, "step", 0, "done");
  ASSERT_EQ(ring.records().size(), 1u);
  const TraceRecord& r = ring.records().front();
  EXPECT_EQ(r.phase, TracePhase::kComplete);
  EXPECT_EQ(r.time, 100);
  EXPECT_EQ(r.dur, 40);
  EXPECT_EQ(r.node, 7);
  EXPECT_EQ(r.detail, "done");  // end's detail wins
  EXPECT_EQ(ring.open_spans(), 0u);
  EXPECT_EQ(ring.step_latency().count(), 1);
  EXPECT_EQ(ring.step_latency().max(), 40);
}

TEST(RingBufferTracerTest, UnmatchedEndIsCountedAndDropped) {
  RingBufferTracer ring;
  ring.End(SpanKind::kCoord, 1, {"WF", 1}, 2, "mutex.wait");
  EXPECT_EQ(ring.records().size(), 0u);
  EXPECT_EQ(ring.unmatched_ends(), 1);
  EXPECT_EQ(ring.lock_wait().count(), 0);
}

TEST(RingBufferTracerTest, FirstBeginWinsOnDuplicateKey) {
  RingBufferTracer ring;
  int64_t clock = 10;
  ring.SetClock(&clock);
  ring.Begin(SpanKind::kCoord, 1, {"WF", 1}, 2, "mutex.wait");
  clock = 20;
  ring.Begin(SpanKind::kCoord, 1, {"WF", 1}, 2, "mutex.wait");
  clock = 30;
  ring.End(SpanKind::kCoord, 1, {"WF", 1}, 2, "mutex.wait");
  ASSERT_EQ(ring.records().size(), 1u);
  EXPECT_EQ(ring.records().front().time, 10);
  EXPECT_EQ(ring.records().front().dur, 20);
}

TEST(RingBufferTracerTest, RingEvictsOldestWhenFull) {
  RingBufferTracer ring(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    ring.Instant(SpanKind::kNode, 1, {}, kInvalidStep,
                 "tick" + std::to_string(i));
  }
  EXPECT_EQ(ring.records().size(), 4u);
  EXPECT_EQ(ring.recorded(), 10);
  EXPECT_EQ(ring.dropped(), 6);
  EXPECT_EQ(ring.records().front().name, "tick6");
}

TEST(RingBufferTracerTest, HistogramsKeyOnWellKnownNames) {
  RingBufferTracer ring;
  int64_t clock = 0;
  ring.SetClock(&clock);
  ring.Begin(SpanKind::kInstance, 1, {"WF", 1}, kInvalidStep, "instance");
  clock = 500;
  ring.End(SpanKind::kInstance, 1, {"WF", 1}, kInvalidStep, "instance");
  // "instance.e2e" (front-end view) must NOT feed the same histogram.
  ring.Begin(SpanKind::kInstance, 0, {"WF", 1}, kInvalidStep,
             "instance.e2e");
  clock = 600;
  ring.End(SpanKind::kInstance, 0, {"WF", 1}, kInvalidStep,
           "instance.e2e");
  ring.Instant(SpanKind::kOcr, 1, {"WF", 1}, 3, "rollback", 4);
  ring.Instant(SpanKind::kOcr, 2, {"WF", 1}, 3, "halt", 2);
  EXPECT_EQ(ring.instance_latency().count(), 1);
  EXPECT_EQ(ring.instance_latency().max(), 500);
  EXPECT_EQ(ring.rollback_depth().count(), 2);
  EXPECT_EQ(ring.rollback_depth().max(), 4);
}

// ---------------------------------------------------------------------
// JSON export well-formedness
// ---------------------------------------------------------------------

/// Minimal recursive-descent JSON checker — accepts exactly the JSON
/// grammar, no extensions. Returns true iff `text` is one valid value.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipSpace();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipSpace();
      if (!String()) return false;
      SkipSpace();
      if (Peek() != ':') return false;
      ++pos_;
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipSpace();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        char e = text_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start &&
           std::isdigit(static_cast<unsigned char>(text_[pos_ - 1]));
  }
  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

TEST(JsonExportTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(JsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonExportTest, ChromeTraceIsWellFormedJson) {
  RingBufferTracer ring;
  int64_t clock = 1;
  ring.SetClock(&clock);
  ring.SetNodeName(1, "engine-1");
  ring.Begin(SpanKind::kStep, 1, {"WF\"x", 2}, 1, "step");
  clock = 5;
  ring.End(SpanKind::kStep, 1, {"WF\"x", 2}, 1, "step", 0,
           "detail with \\ and \"quotes\"");
  ring.Instant(SpanKind::kOcr, 2, {"WF\"x", 2}, 1, "rollback", 3);
  ring.Complete(SpanKind::kMessage, 2, {"WF\"x", 2}, 1, "msg:Run", 1, 2,
                1, "1->2");

  std::string json = ring.ChromeTraceJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  // Structural spot checks chrome://tracing depends on.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("engine-1"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST(JsonExportTest, JsonlLinesAreEachWellFormed) {
  RingBufferTracer ring;
  ring.Instant(SpanKind::kNode, 3, {"WF", 1}, kInvalidStep, "node.down");
  ring.Instant(SpanKind::kOcr, 3, {"WF", 1}, 2, "halt", 2, "origin=S2");
  std::string log = ring.JsonlLog();
  size_t lines = 0;
  size_t start = 0;
  while (start < log.size()) {
    size_t end = log.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    EXPECT_TRUE(JsonChecker(log.substr(start, end - start)).Valid())
        << log.substr(start, end - start);
    start = end + 1;
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
}

// Fills a ring with one record of every phase: a paired span, instants,
// completes (one with a negative duration), both flow halves, a
// record with no node, one span left open, and one record evicted.
void FillPinnedRing(RingBufferTracer* r, int64_t* clock) {
  r->SetClock(clock);
  *clock = 1;
  r->SetNodeName(1, "engine-1");
  r->SetNodeName(4, "agent \"4\"");
  r->Instant(SpanKind::kNode, 1, {}, kInvalidStep, "evicted");
  r->Begin(SpanKind::kStep, 1, {"WF\"x", 2}, 1, "step");
  *clock = 5;
  r->End(SpanKind::kStep, 1, {"WF\"x", 2}, 1, "step", 0,
         "detail with \\ and \"quotes\"\n");
  r->Instant(SpanKind::kOcr, 2, {"WF\"x", 2}, 1, "rollback", 3,
             "origin=S1", 1);
  r->Complete(SpanKind::kMessage, 2, {"WF\"x", 2}, 1, "msg:Run", 1, 2, 4,
              "1->2");
  r->Complete(SpanKind::kProgram, 3, {"WF", 9}, 4, "program", 10, -4);
  r->FlowBegin(SpanKind::kMessage, 1, 0xabcdef0123ull, "msg:wi1", 3, 6,
               "to 2", 5);
  *clock = 9;
  r->FlowEnd(SpanKind::kMessage, kInvalidNode, 0xabcdef0123ull, "msg:wi1");
  r->Instant(SpanKind::kNode, 3, {}, kInvalidStep, "node.down");
  r->Begin(SpanKind::kCoord, 1, {"WF", 9}, 2, "mutex.wait");
}

// Exporter output for FillPinnedRing(), recorded before the ring and the
// trace merge shared one per-record writer.
constexpr const char* kPinnedChrome =
    R"pin({"displayTimeUnit":"ms","otherData":{"dropped":1,"openSpans":1},"traceEvents":[
{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"crew-sim"}},
{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"engine-1"}},
{"name":"thread_name","ph":"M","pid":0,"tid":2,"args":{"name":"node-2"}},
{"name":"thread_name","ph":"M","pid":0,"tid":3,"args":{"name":"node-3"}},
{"name":"thread_name","ph":"M","pid":0,"tid":4,"args":{"name":"agent \"4\""}},
{"name":"step WF\"x#2 S1","cat":"step,normal","ph":"X","ts":1,"dur":4,"pid":0,"tid":1,"args":{"instance":"WF\"x#2","step":1,"category":"normal","detail":"detail with \\ and \"quotes\"\n"}},
{"name":"rollback WF\"x#2 S1","cat":"ocr,failure-handling","ph":"i","s":"t","ts":5,"pid":0,"tid":2,"args":{"instance":"WF\"x#2","step":1,"category":"failure-handling","value":3,"detail":"origin=S1"}},
{"name":"msg:Run WF\"x#2 S1","cat":"message,coordination","ph":"X","ts":1,"dur":2,"pid":0,"tid":2,"args":{"instance":"WF\"x#2","step":1,"category":"coordination","detail":"1->2"}},
{"name":"program WF#9 S4","cat":"program,normal","ph":"X","ts":10,"dur":0,"pid":0,"tid":3,"args":{"instance":"WF#9","step":4,"category":"normal"}},
{"name":"msg:wi1","cat":"message,admin","ph":"b","id":"0xabcdef0123","ts":3,"pid":0,"tid":1,"args":{"instance":"#0","step":0,"category":"admin","value":5,"detail":"to 2"}},
{"name":"msg:wi1","cat":"message,normal","ph":"e","id":"0xabcdef0123","ts":9,"pid":0,"tid":0,"args":{"instance":"#0","step":0,"category":"normal"}},
{"name":"node.down","cat":"node,normal","ph":"i","s":"t","ts":9,"pid":0,"tid":3,"args":{"instance":"#0","step":0,"category":"normal"}}
]}
)pin";
constexpr const char* kPinnedJsonl =
    R"pin({"t":1,"dur":4,"kind":"step","name":"step","node":1,"instance":"WF\"x#2","step":1,"category":"normal","detail":"detail with \\ and \"quotes\"\n"}
{"t":5,"kind":"ocr","name":"rollback","node":2,"instance":"WF\"x#2","step":1,"category":"failure-handling","value":3,"detail":"origin=S1"}
{"t":1,"dur":2,"kind":"message","name":"msg:Run","node":2,"instance":"WF\"x#2","step":1,"category":"coordination","detail":"1->2"}
{"t":10,"dur":-4,"kind":"program","name":"program","node":3,"instance":"WF#9","step":4,"category":"normal"}
{"t":3,"ph":"fb","flow":"0xabcdef0123","kind":"message","name":"msg:wi1","node":1,"instance":"#0","step":0,"category":"admin","value":5,"detail":"to 2"}
{"t":9,"ph":"fe","flow":"0xabcdef0123","kind":"message","name":"msg:wi1","node":-1,"instance":"#0","step":0,"category":"normal"}
{"t":9,"kind":"node","name":"node.down","node":3,"instance":"#0","step":0,"category":"normal"}
)pin";

TEST(JsonExportTest, ChromeTraceBytesArePinned) {
  RingBufferTracer ring(/*capacity=*/7);
  int64_t clock = 0;
  FillPinnedRing(&ring, &clock);
  ASSERT_EQ(ring.dropped(), 1);
  ASSERT_EQ(ring.open_spans(), 1u);
  EXPECT_EQ(ring.ChromeTraceJson(), kPinnedChrome);
}

TEST(JsonExportTest, JsonlBytesArePinned) {
  RingBufferTracer ring(/*capacity=*/7);
  int64_t clock = 0;
  FillPinnedRing(&ring, &clock);
  EXPECT_EQ(ring.JsonlLog(), kPinnedJsonl);
}

TEST(JsonExportTest, HistogramsJsonIsWellFormed) {
  RingBufferTracer ring;
  int64_t clock = 0;
  ring.SetClock(&clock);
  ring.Begin(SpanKind::kStep, 1, {"WF", 1}, 1, "step");
  clock = 7;
  ring.End(SpanKind::kStep, 1, {"WF", 1}, 1, "step");
  EXPECT_TRUE(JsonChecker(ring.HistogramsJson()).Valid());
  EXPECT_TRUE(JsonChecker(ring.step_latency().ToJson()).Valid());
}

// ---------------------------------------------------------------------
// Integration: a central failure + rollback emits the expected spans
// ---------------------------------------------------------------------

std::vector<const TraceRecord*> Select(const RingBufferTracer& ring,
                                       SpanKind kind,
                                       const std::string& name) {
  std::vector<const TraceRecord*> out;
  for (const TraceRecord& r : ring.records()) {
    if (r.kind == kind && r.name == name) out.push_back(&r);
  }
  return out;
}

TEST(TraceIntegrationTest, CentralFailureRollbackSpanSequence) {
  RingBufferTracer ring;
  sim::Simulator simulator(42);
  simulator.set_tracer(&ring);

  runtime::ProgramRegistry programs;
  programs.RegisterBuiltins();
  programs.RegisterFailFirstN("flaky", 1);
  model::Deployment deployment;
  runtime::CoordinationSpec coordination;
  central::CentralSystem system(&simulator, &programs, &deployment,
                                &coordination, /*num_agents=*/4);

  model::SchemaBuilder b("Retry");
  StepId s1 = b.AddTask("A", "noop");
  StepId s2 = b.AddTask("B", "flaky");
  StepId s3 = b.AddTask("C", "noop");
  b.Sequence({s1, s2, s3});
  b.OnFail(s2, s1, /*max_attempts=*/3);
  auto compiled =
      model::CompiledSchema::Compile(std::move(b.Build()).value());
  ASSERT_TRUE(compiled.ok());
  for (StepId s = 1; s <= 3; ++s) {
    deployment.SetEligible("Retry", s, system.agent_ids());
  }
  system.engine().RegisterSchema(compiled.value());

  ASSERT_TRUE(system.engine().StartWorkflow("Retry", 1, {}).ok());
  simulator.Run();
  ASSERT_EQ(system.engine().QueryStatus({"Retry", 1}),
            runtime::WorkflowState::kCommitted);

  // One instance span covering the whole run.
  auto instances = Select(ring, SpanKind::kInstance, "instance");
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0]->detail, "committed");
  EXPECT_EQ(instances[0]->time, 0);
  EXPECT_GT(instances[0]->dur, 0);

  // S2 fails once, so it runs twice; S1 and S3 run once... plus S1's
  // re-execution after the rollback (4 or 5 step spans depending on
  // OCR's reuse decision for S1).
  auto steps = Select(ring, SpanKind::kStep, "step");
  ASSERT_GE(steps.size(), 4u);
  int failed = 0;
  for (const TraceRecord* r : steps) failed += r->detail == "failed";
  EXPECT_EQ(failed, 1);

  // Exactly one step-failure instant at S2, and one rollback instant
  // whose value (steps touched) is positive.
  auto failures = Select(ring, SpanKind::kOcr, "step.failed");
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0]->step, s2);
  auto rollbacks = Select(ring, SpanKind::kOcr, "rollback");
  ASSERT_EQ(rollbacks.size(), 1u);
  EXPECT_GT(rollbacks[0]->value, 0);

  // Ordering along virtual time: first S2 failure, then the rollback
  // decision, then the instance commits at the very end.
  EXPECT_LE(failures[0]->time, rollbacks[0]->time);
  EXPECT_LE(rollbacks[0]->time,
            instances[0]->time + instances[0]->dur);

  // Every OCR decision instant names a decision from runtime/ocr.h.
  int decisions = 0;
  for (const TraceRecord& r : ring.records()) {
    if (r.kind != SpanKind::kOcr || r.name.rfind("ocr.", 0) != 0) continue;
    if (r.name == "ocr.result-reused") continue;
    EXPECT_TRUE(r.name == "ocr.first-execution" || r.name == "ocr.reuse" ||
                r.name == "ocr.partial+incremental" ||
                r.name == "ocr.full-comp+reexec")
        << r.name;
    ++decisions;
  }
  EXPECT_GT(decisions, 0);

  // Messages were traced with send->delivery durations.
  auto messages = Select(ring, SpanKind::kMessage, "msg:RunProgram");
  EXPECT_FALSE(messages.empty());
  for (const TraceRecord* r : messages) EXPECT_GT(r->dur, 0);

  // The whole trace exports to valid JSON.
  EXPECT_TRUE(JsonChecker(ring.ChromeTraceJson()).Valid());
}

}  // namespace
}  // namespace crew::obs
