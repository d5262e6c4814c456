// Micro-benchmarks of the rule-plumbing hot paths: rule-engine firing,
// packet serialization/parsing, expression evaluation, and WAL appends.
// Writes BENCH_micro.json with items/sec (and bytes/sec) per benchmark.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>
#include <vector>

#include "expr/eval.h"
#include "expr/parser.h"
#include "net/frame.h"
#include "rt/mailbox.h"
#include "rules/engine.h"
#include "rules/event.h"
#include "runtime/packet.h"
#include "storage/wal.h"

namespace {

using crew::Value;

// Tracked micro number for the rt::Mailbox queue swap. Arg(0) is the
// uncontended single-thread ping-pong (push one, pop one, run it);
// Arg(N>0) runs N producer threads pushing a 64K-item batch against the
// consumer on the bench thread, so the exchange/link hot path is
// measured under real contention.
void BM_MailboxPushPop(benchmark::State& state) {
  const int producers = static_cast<int>(state.range(0));
  if (producers == 0) {
    crew::rt::Mailbox box(1 << 16);
    int64_t sink = 0;
    for (auto _ : state) {
      box.ForcePush([&sink]() { ++sink; });
      crew::rt::Mailbox::Popped task = box.Pop();
      task.Run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
    return;
  }
  constexpr int kBatch = 1 << 16;
  const int per_producer = kBatch / producers;
  const int64_t total = int64_t{per_producer} * producers;
  for (auto _ : state) {
    crew::rt::Mailbox box(1 << 16);
    std::atomic<int64_t> sink{0};
    std::vector<std::thread> threads;
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&box, &sink, per_producer]() {
        for (int i = 0; i < per_producer; ++i) {
          box.Push(
              [&sink]() { sink.fetch_add(1, std::memory_order_relaxed); });
        }
      });
    }
    for (int64_t i = 0; i < total; ++i) {
      crew::rt::Mailbox::Popped task = box.Pop();
      task.Run();
    }
    for (auto& t : threads) t.join();
    benchmark::DoNotOptimize(sink.load());
  }
  state.SetItemsProcessed(state.iterations() * total);
}
BENCHMARK(BM_MailboxPushPop)->Arg(0)->Arg(1)->Arg(4)->Arg(8);

void BM_RuleEnginePostAndFire(benchmark::State& state) {
  const int num_rules = static_cast<int>(state.range(0));
  std::vector<crew::rules::Rule> rules;
  std::vector<crew::rules::EventToken> tokens;
  for (int i = 0; i < num_rules; ++i) {
    tokens.push_back(crew::rules::event::StepDoneToken(i));
    crew::rules::Rule rule;
    rule.id = "exec.S" + std::to_string(i + 1) + ".via.S" +
              std::to_string(i);
    rule.events = {tokens.back()};
    rule.step = i + 1;
    rules.push_back(std::move(rule));
  }
  const crew::rules::RuleProgram program =
      crew::rules::RuleProgram::Build(std::move(rules)).value();
  crew::rules::FiringState firing(&program);
  crew::expr::FunctionEnvironment env(
      [](const std::string&) { return std::nullopt; });
  int step = 0;
  for (auto _ : state) {
    firing.Post(tokens[step % num_rules], step + 1, 0);
    benchmark::DoNotOptimize(firing.CollectFireable(env));
    ++step;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RuleEnginePostAndFire)->Arg(16)->Arg(64)->Arg(256);

crew::runtime::WorkflowPacket MakePacket(int items) {
  crew::runtime::WorkflowPacket packet;
  packet.instance = {"WF2", 4};
  packet.target_step = 3;
  packet.epoch = 1;
  for (int i = 0; i < items; ++i) {
    packet.data["S" + std::to_string(i) + ".O1"] =
        Value(static_cast<int64_t>(i * 10));
    packet.events.push_back(
        {"S" + std::to_string(i) + ".done", 1, 0});
    packet.executed_by[i + 1] = 10 + i;
  }
  packet.ro_links.push_back({{"WF3", 15}, 2, 4, true});
  return packet;
}

void BM_PacketSerializeBinary(benchmark::State& state) {
  crew::runtime::WorkflowPacket packet =
      MakePacket(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(packet.Serialize());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketSerializeBinary)->Arg(5)->Arg(15)->Arg(25);

void BM_PacketParseBinary(benchmark::State& state) {
  std::string payload =
      MakePacket(static_cast<int>(state.range(0))).Serialize();
  for (auto _ : state) {
    auto parsed = crew::runtime::WorkflowPacket::Parse(payload);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_PacketParseBinary)->Arg(5)->Arg(15)->Arg(25);

// Superframe staging cost: wrap Arg(N) already-encoded DATA frames in
// one kBatch envelope, the per-wakeup work FlushWrites adds on top of
// memcpying the frames it would copy anyway.
void BM_SuperframeEncode(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  crew::net::Frame frame;
  frame.kind = crew::net::Frame::Kind::kData;
  frame.message.from = 2;
  frame.message.to = 7;
  frame.message.payload = MakePacket(5).Serialize();
  std::vector<std::string> frames;
  size_t inner_bytes = 0;
  for (int i = 0; i < count; ++i) {
    frame.seq = static_cast<uint64_t>(i + 1);
    frames.push_back(crew::net::EncodeFrame(frame));
    inner_bytes += frames.back().size();
  }
  std::string out;
  for (auto _ : state) {
    out.clear();
    crew::net::AppendBatchHeader(&out, frames.size(), inner_bytes);
    for (const std::string& f : frames) out += f;
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * count);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_SuperframeEncode)->Arg(4)->Arg(16)->Arg(64);

void BM_ExpressionEvaluate(benchmark::State& state) {
  auto parsed = crew::expr::ParseExpression(
      "S1.O1 >= 10 and (S2.O1 + S3.O1) * 2 < 100 or changed(WF.I1)");
  crew::expr::FunctionEnvironment env(
      [](const std::string& name) -> std::optional<Value> {
        if (name == "WF.I1") return Value(int64_t{7});
        return Value(int64_t{21});
      },
      [](const std::string&) -> std::optional<Value> {
        return Value(int64_t{7});
      });
  for (auto _ : state) {
    benchmark::DoNotOptimize(crew::expr::Evaluate(parsed.value(), env));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExpressionEvaluate);

void BM_WalAppend(benchmark::State& state) {
  namespace fs = std::filesystem;
  std::string path =
      (fs::temp_directory_path() / "crew_bench_wal.log").string();
  fs::remove(path);
  crew::storage::Wal wal;
  if (!wal.Open(path).ok()) {
    state.SkipWithError("cannot open WAL");
    return;
  }
  std::string record(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal.Append(record));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(record.size()));
  wal.Close();
  fs::remove(path);
}
BENCHMARK(BM_WalAppend)->Arg(64)->Arg(512);

/// Console reporter that additionally collects per-benchmark throughput
/// counters and dumps them as BENCH_micro.json (the bench-trajectory
/// format the table benches emit through BenchSession).
class ItemsJsonReporter : public benchmark::ConsoleReporter {
 public:
  bool ReportContext(const Context& context) override {
    return benchmark::ConsoleReporter::ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      std::ostringstream os;
      os << "{\"name\":\"" << run.benchmark_name() << "\"";
      auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        os << ",\"items_per_second\":" << items->second.value;
      }
      auto bytes = run.counters.find("bytes_per_second");
      if (bytes != run.counters.end()) {
        os << ",\"bytes_per_second\":" << bytes->second.value;
      }
      os << ",\"real_time_ns\":" << run.GetAdjustedRealTime() << "}";
      entries_.push_back(os.str());
    }
  }

  void Finalize() override {
    benchmark::ConsoleReporter::Finalize();
    FILE* f = fopen("BENCH_micro.json", "w");
    if (f == nullptr) {
      fprintf(stderr, "json: cannot open BENCH_micro.json\n");
      return;
    }
    std::ostringstream os;
    os << "{\"bench\":\"micro\",\"benchmarks\":[";
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) os << ",";
      os << entries_[i];
    }
    os << "]}\n";
    std::string text = os.str();
    fwrite(text.data(), 1, text.size(), f);
    fclose(f);
    printf("json: wrote BENCH_micro.json\n");
  }

 private:
  std::vector<std::string> entries_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ItemsJsonReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  return 0;
}
