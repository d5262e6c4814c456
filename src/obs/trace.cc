#include "obs/trace.h"

#include <bit>
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

namespace crew::obs {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kStep:
      return "step";
    case SpanKind::kInstance:
      return "instance";
    case SpanKind::kOcr:
      return "ocr";
    case SpanKind::kCoord:
      return "coord";
    case SpanKind::kMessage:
      return "message";
    case SpanKind::kProgram:
      return "program";
    case SpanKind::kNode:
      return "node";
  }
  return "unknown";
}

const char* TraceCategoryLabel(int category) {
  switch (category) {
    case 0:
      return "normal";
    case 1:
      return "failure-handling";
    case 2:
      return "input-change";
    case 3:
      return "abort";
    case 4:
      return "coordination";
    case 5:
      return "election";
    case 6:
      return "admin";
  }
  return "other";
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ---------------------------------------------------------------- Tracer

Tracer* Tracer::Null() {
  static Tracer* const kNull = new Tracer();
  return kNull;
}

void Tracer::Begin(SpanKind kind, NodeId node, const InstanceId& instance,
                   StepId step, std::string name, int category,
                   std::string detail) {
  if (!enabled()) return;
  TraceRecord r;
  r.time = now();
  r.phase = TracePhase::kBegin;
  r.kind = kind;
  r.node = node;
  r.instance = instance;
  r.step = step;
  r.category = category;
  r.name = std::move(name);
  r.detail = std::move(detail);
  Record(std::move(r));
}

void Tracer::End(SpanKind kind, NodeId node, const InstanceId& instance,
                 StepId step, std::string name, int category,
                 std::string detail) {
  if (!enabled()) return;
  TraceRecord r;
  r.time = now();
  r.phase = TracePhase::kEnd;
  r.kind = kind;
  r.node = node;
  r.instance = instance;
  r.step = step;
  r.category = category;
  r.name = std::move(name);
  r.detail = std::move(detail);
  Record(std::move(r));
}

void Tracer::Instant(SpanKind kind, NodeId node, const InstanceId& instance,
                     StepId step, std::string name, int64_t value,
                     std::string detail, int category) {
  if (!enabled()) return;
  TraceRecord r;
  r.time = now();
  r.phase = TracePhase::kInstant;
  r.kind = kind;
  r.node = node;
  r.instance = instance;
  r.step = step;
  r.category = category;
  r.value = value;
  r.name = std::move(name);
  r.detail = std::move(detail);
  Record(std::move(r));
}

void Tracer::Complete(SpanKind kind, NodeId node, const InstanceId& instance,
                      StepId step, std::string name, int64_t begin_time,
                      int64_t dur, int category, std::string detail) {
  if (!enabled()) return;
  TraceRecord r;
  r.time = begin_time;
  r.dur = dur;
  r.phase = TracePhase::kComplete;
  r.kind = kind;
  r.node = node;
  r.instance = instance;
  r.step = step;
  r.category = category;
  r.name = std::move(name);
  r.detail = std::move(detail);
  Record(std::move(r));
}

void Tracer::FlowBegin(SpanKind kind, NodeId node, uint64_t flow,
                       std::string name, int64_t begin_time, int category,
                       std::string detail, int64_t value) {
  if (!enabled()) return;
  TraceRecord r;
  r.time = begin_time;
  r.phase = TracePhase::kFlowBegin;
  r.kind = kind;
  r.node = node;
  r.category = category;
  r.value = value;
  r.flow = flow;
  r.name = std::move(name);
  r.detail = std::move(detail);
  Record(std::move(r));
}

void Tracer::FlowEnd(SpanKind kind, NodeId node, uint64_t flow,
                     std::string name, int category, std::string detail,
                     int64_t value) {
  if (!enabled()) return;
  TraceRecord r;
  r.time = now();
  r.phase = TracePhase::kFlowEnd;
  r.kind = kind;
  r.node = node;
  r.category = category;
  r.value = value;
  r.flow = flow;
  r.name = std::move(name);
  r.detail = std::move(detail);
  Record(std::move(r));
}

// ----------------------------------------------------- LatencyHistogram

LatencyHistogram::LatencyHistogram(std::string name, std::string unit)
    : name_(std::move(name)),
      unit_(std::move(unit)),
      buckets_(kNumBuckets, 0) {}

int LatencyHistogram::BucketIndex(int64_t value) {
  if (value < 0) value = 0;
  if (value < kLinearBuckets) return static_cast<int>(value);
  int msb = std::bit_width(static_cast<uint64_t>(value)) - 1;  // >= 6
  int sub = static_cast<int>((value >> (msb - 5)) & (kSubBuckets - 1));
  int index = kLinearBuckets + (msb - 6) * kSubBuckets + sub;
  return std::min(index, kNumBuckets - 1);
}

int64_t LatencyHistogram::BucketLower(int index) {
  if (index < kLinearBuckets) return index;
  int k = index - kLinearBuckets;
  int msb = 6 + k / kSubBuckets;
  int sub = k % kSubBuckets;
  return (int64_t{1} << msb) +
         (static_cast<int64_t>(sub) << (msb - 5));
}

int64_t LatencyHistogram::BucketUpper(int index) {
  // Inclusive: the largest value that lands in this bucket.
  if (index < kLinearBuckets) return index;
  int k = index - kLinearBuckets;
  int msb = 6 + k / kSubBuckets;
  return BucketLower(index) + (int64_t{1} << (msb - 5)) - 1;
}

void LatencyHistogram::Add(int64_t value) {
  if (value < 0) value = 0;
  ++buckets_[static_cast<size_t>(BucketIndex(value))];
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  ++count_;
  sum_ += static_cast<double>(value);
}

void LatencyHistogram::AddBucket(int index, int64_t count) {
  if (index < 0 || index >= kNumBuckets || count <= 0) return;
  buckets_[static_cast<size_t>(index)] += count;
  int64_t lower = BucketLower(index);
  int64_t upper = BucketUpper(index);
  if (count_ == 0 || lower < min_) min_ = lower;
  if (upper > max_) max_ = upper;
  count_ += count;
  sum_ += static_cast<double>(count) *
          (static_cast<double>(lower) + static_cast<double>(upper)) / 2.0;
}

void LatencyHistogram::MergeFrom(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  for (size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
}

double LatencyHistogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  double rank = p / 100.0 * static_cast<double>(count_);
  if (rank < 1.0) rank = 1.0;
  int64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    int64_t in_bucket = buckets_[static_cast<size_t>(i)];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      double frac =
          (rank - static_cast<double>(cumulative) - 0.5) /
          static_cast<double>(in_bucket);
      frac = std::clamp(frac, 0.0, 1.0);
      double lo = static_cast<double>(BucketLower(i));
      double hi = static_cast<double>(BucketUpper(i));
      return std::clamp(lo + frac * (hi - lo), static_cast<double>(min()),
                        static_cast<double>(max()));
    }
    cumulative += in_bucket;
  }
  return static_cast<double>(max_);
}

std::string LatencyHistogram::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%-14s n=%-7" PRId64
                " p50=%-8.1f p95=%-8.1f p99=%-8.1f mean=%-8.1f max=%" PRId64
                "%s%s",
                name_.c_str(), count_, Percentile(50), Percentile(95),
                Percentile(99), mean(), max_, unit_.empty() ? "" : " ",
                unit_.c_str());
  return buf;
}

std::string LatencyHistogram::ToJson() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"unit\":\"%s\",\"count\":%" PRId64
                ",\"min\":%" PRId64 ",\"max\":%" PRId64
                ",\"mean\":%.3f,\"p50\":%.3f,\"p95\":%.3f,\"p99\":%.3f}",
                JsonEscape(name_).c_str(), JsonEscape(unit_).c_str(), count_,
                min(), max_, mean(), Percentile(50), Percentile(95),
                Percentile(99));
  return buf;
}

// ----------------------------------------------------- RingBufferTracer

RingBufferTracer::RingBufferTracer(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)),
      step_latency_("step", "ticks"),
      instance_latency_("instance", "ticks"),
      lock_wait_("lock-wait", "ticks"),
      rollback_depth_("rollback-depth", "steps") {}

void RingBufferTracer::SetNodeName(NodeId node, const std::string& name) {
  node_names_[node] = name;
}

void RingBufferTracer::Push(TraceRecord record) {
  if (records_.size() >= capacity_) {
    records_.pop_front();
    ++dropped_;
  }
  records_.push_back(std::move(record));
  ++recorded_;
}

void RingBufferTracer::FeedHistograms(const TraceRecord& record) {
  if (record.phase == TracePhase::kComplete) {
    if (record.kind == SpanKind::kStep && record.name == "step") {
      step_latency_.Add(record.dur);
    } else if (record.kind == SpanKind::kInstance &&
               record.name == "instance") {
      instance_latency_.Add(record.dur);
    } else if (record.kind == SpanKind::kCoord &&
               record.name == "mutex.wait") {
      lock_wait_.Add(record.dur);
    }
  } else if (record.phase == TracePhase::kInstant &&
             record.kind == SpanKind::kOcr &&
             (record.name == "rollback" || record.name == "halt")) {
    rollback_depth_.Add(record.value);
  }
}

void RingBufferTracer::Record(TraceRecord record) {
  if (record.phase == TracePhase::kFlowBegin ||
      record.phase == TracePhase::kFlowEnd) {
    // Half of a cross-process span: the matching half lives in another
    // process's ring, so there is nothing to pair locally — store as-is
    // for the shard export and let the trace merge pair by flow id.
    Push(std::move(record));
    return;
  }
  SpanKey key{static_cast<int>(record.kind), record.instance, record.step,
              record.name};
  if (record.phase == TracePhase::kBegin) {
    // First Begin wins: a step re-dispatched while blocked keeps the
    // original start, so the span covers the full wait.
    open_.emplace(std::move(key), std::move(record));
    return;
  }
  if (record.phase == TracePhase::kEnd) {
    auto it = open_.find(key);
    if (it == open_.end()) {
      ++unmatched_ends_;
      return;
    }
    TraceRecord span = std::move(it->second);
    open_.erase(it);
    span.phase = TracePhase::kComplete;
    span.dur = record.time - span.time;
    if (!record.detail.empty()) span.detail = std::move(record.detail);
    if (record.category != 0) span.category = record.category;
    if (record.value != 0) span.value = record.value;
    FeedHistograms(span);
    Push(std::move(span));
    return;
  }
  FeedHistograms(record);
  Push(std::move(record));
}

namespace {

std::string DisplayName(const TraceRecord& r) {
  std::string name = r.name;
  if (!r.instance.workflow.empty() || r.instance.number != 0) {
    name += " ";
    name += r.instance.ToString();
  }
  if (r.step != kInvalidStep) {
    name += " S" + std::to_string(r.step);
  }
  return name;
}

void AppendValueAndDetail(std::string* out, const TraceRecord& r) {
  if (r.value != 0) *out += ",\"value\":" + std::to_string(r.value);
  if (!r.detail.empty()) {
    *out += ",\"detail\":\"" + JsonEscape(r.detail) + "\"";
  }
}

void AppendArgs(std::string* out, const TraceRecord& r,
                std::string_view extra_args) {
  *out += "\"args\":{";
  if (!extra_args.empty()) {
    *out += extra_args;
    *out += ',';
  }
  *out += "\"instance\":\"" + JsonEscape(r.instance.ToString()) +
          "\",\"step\":" + std::to_string(r.step) + ",\"category\":\"" +
          TraceCategoryLabel(r.category) + "\"";
  AppendValueAndDetail(out, r);
  *out += "}";
}

bool IsFlow(const TraceRecord& r) {
  return r.phase == TracePhase::kFlowBegin || r.phase == TracePhase::kFlowEnd;
}

}  // namespace

Status WriteFile(const std::string& path, std::string_view body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Unavailable("cannot open " + path);
  out << body;
  out.flush();
  if (!out) return Status::Unavailable("short write to " + path);
  return Status::OK();
}

ChromeTraceWriter::ChromeTraceWriter(std::string_view other_data,
                                     size_t events) {
  out_.reserve(events * 200 + 2048);
  out_ += "{\"displayTimeUnit\":\"ms\",";
  if (!other_data.empty()) {
    out_ += "\"otherData\":{";
    out_ += other_data;
    out_ += "},";
  }
  out_ += "\"traceEvents\":[\n";
}

void ChromeTraceWriter::Separate() {
  if (!first_) out_ += ",\n";
  first_ = false;
}

void ChromeTraceWriter::Metadata(const char* what, int64_t pid, NodeId tid,
                                 std::string_view name) {
  Separate();
  out_ += std::string("{\"name\":\"") + what + "\",\"ph\":\"M\",\"pid\":" +
          std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
          ",\"args\":{\"name\":\"" + JsonEscape(name) + "\"}}";
}

void ChromeTraceWriter::Event(const TraceRecord& r, int64_t ts, int64_t dur,
                              int64_t pid, std::string_view extra_args) {
  Separate();
  bool flow = IsFlow(r);
  out_ += "{\"name\":\"" + JsonEscape(flow ? r.name : DisplayName(r)) +
          "\",\"cat\":\"" + SpanKindName(r.kind) + "," +
          TraceCategoryLabel(r.category) + "\",\"ph\":\"";
  if (r.phase == TracePhase::kComplete) {
    out_ += "X\",\"ts\":" + std::to_string(ts) + ",\"dur\":" +
            std::to_string(dur);
  } else if (flow) {
    // Async begin/end: Chrome/Perfetto pair them by (cat, id, name), so
    // the two halves, recorded in different processes, draw one span
    // from the sender's Begin to the receiver's End.
    char id[24];
    std::snprintf(id, sizeof(id), "0x%" PRIx64, r.flow);
    out_ += std::string(r.phase == TracePhase::kFlowBegin ? "b" : "e") +
            "\",\"id\":\"" + id + "\",\"ts\":" + std::to_string(ts);
  } else {
    out_ += "i\",\"s\":\"t\",\"ts\":" + std::to_string(ts);
  }
  NodeId tid = r.node == kInvalidNode ? 0 : r.node;
  out_ += ",\"pid\":" + std::to_string(pid) + ",\"tid\":" +
          std::to_string(tid) + ",";
  AppendArgs(&out_, r, extra_args);
  out_ += "}";
}

std::string ChromeTraceWriter::Finish() {
  out_ += "\n]}\n";
  return std::move(out_);
}

void AppendJsonlLine(std::string* out, const TraceRecord& r, int64_t ts,
                     int64_t dur, std::string_view extra_args,
                     const JsonlKeys& keys) {
  *out += "{\"" + std::string(keys.ts) + "\":" + std::to_string(ts);
  if (!extra_args.empty()) {
    *out += ',';
    *out += extra_args;
  }
  if (r.phase == TracePhase::kComplete) {
    *out += ",\"" + std::string(keys.dur) + "\":" + std::to_string(dur);
  }
  if (IsFlow(r)) {
    char flow[48];
    std::snprintf(flow, sizeof(flow), ",\"ph\":\"%s\",\"flow\":\"0x%" PRIx64
                  "\"",
                  r.phase == TracePhase::kFlowBegin ? "fb" : "fe", r.flow);
    *out += flow;
  }
  *out += ",\"kind\":\"" + std::string(SpanKindName(r.kind)) +
          "\",\"name\":\"" + JsonEscape(r.name) + "\",\"node\":" +
          std::to_string(r.node) + ",\"instance\":\"" +
          JsonEscape(r.instance.ToString()) +
          "\",\"step\":" + std::to_string(r.step);
  *out += ",\"category\":\"" + std::string(TraceCategoryLabel(r.category)) +
          "\"";
  AppendValueAndDetail(out, r);
  *out += "}\n";
}

std::string RingBufferTracer::ChromeTraceJson() const {
  ChromeTraceWriter writer("\"dropped\":" + std::to_string(dropped_) +
                               ",\"openSpans\":" +
                               std::to_string(open_.size()),
                           records_.size());
  writer.Process(0, "crew-sim", node_names_, records_);
  for (const TraceRecord& r : records_) {
    writer.Event(r, r.time, std::max<int64_t>(r.dur, 0), 0, {});
  }
  return writer.Finish();
}

std::string RingBufferTracer::JsonlLog() const {
  std::string out;
  out.reserve(records_.size() * 120);
  for (const TraceRecord& r : records_) {
    AppendJsonlLine(&out, r, r.time, r.dur, {}, kRingJsonl);
  }
  return out;
}

Status RingBufferTracer::WriteChromeTrace(const std::string& path) const {
  return WriteFile(path, ChromeTraceJson());
}

Status RingBufferTracer::WriteJsonl(const std::string& path) const {
  return WriteFile(path, JsonlLog());
}

std::string RingBufferTracer::SummaryReport() const {
  std::ostringstream out;
  out << "trace summary (virtual ticks):\n";
  out << "  " << step_latency_.Summary() << "\n";
  out << "  " << instance_latency_.Summary() << "\n";
  out << "  " << lock_wait_.Summary() << "\n";
  out << "  " << rollback_depth_.Summary() << "\n";
  out << "  events recorded=" << recorded_ << " dropped=" << dropped_
      << " open-spans=" << open_.size()
      << " unmatched-ends=" << unmatched_ends_ << "\n";
  return out.str();
}

std::string RingBufferTracer::HistogramsJson() const {
  return "{\"step\":" + step_latency_.ToJson() +
         ",\"instance\":" + instance_latency_.ToJson() +
         ",\"lock_wait\":" + lock_wait_.ToJson() +
         ",\"rollback_depth\":" + rollback_depth_.ToJson() + "}";
}

}  // namespace crew::obs
