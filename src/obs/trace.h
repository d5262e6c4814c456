#ifndef CREW_OBS_TRACE_H_
#define CREW_OBS_TRACE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/ids.h"
#include "common/status.h"

namespace crew::obs {

/// What a trace record describes. One SpanKind per subsystem so exports
/// can be filtered per mechanism (the paper's Tables 4-6 taxonomy).
enum class SpanKind {
  kStep = 0,   // step lifecycle: scheduled -> dispatched -> done/failed
  kInstance,   // workflow-instance end-to-end
  kOcr,        // failure handling: rollback, halt, compensation, reuse
  kCoord,      // coordination waits: RO blocks, ME lock waits, RD triggers
  kMessage,    // one network message in flight (send -> delivery)
  kProgram,    // black-box step-program execution
  kNode,       // node lifecycle: crash / recovery
};

const char* SpanKindName(SpanKind kind);
inline constexpr int kNumSpanKinds = 7;

/// Record phase. Begin/End pairs are matched by the sink on the key
/// (kind, instance, step, name); Complete carries its duration directly.
/// FlowBegin/FlowEnd are the two halves of a *cross-process* span: the
/// sink stores them unmatched (the halves live in different processes'
/// rings) and the trace merge step pairs them by `flow` id after
/// aligning the shard clocks.
enum class TracePhase {
  kBegin = 0,
  kEnd,
  kInstant,
  kComplete,
  kFlowBegin,
  kFlowEnd,
};

/// One structured trace record, stamped with virtual time. `category` is
/// a sim::MsgCategory cast to int (obs deliberately does not depend on
/// sim; sim links against obs).
struct TraceRecord {
  int64_t time = 0;  // virtual ticks (begin time for kComplete)
  int64_t dur = 0;   // kComplete only
  TracePhase phase = TracePhase::kInstant;
  SpanKind kind = SpanKind::kStep;
  NodeId node = kInvalidNode;
  InstanceId instance;
  StepId step = kInvalidStep;
  int category = 0;   // sim::MsgCategory value
  int64_t value = 0;  // kind-specific payload (rollback depth, cost, ...)
  uint64_t flow = 0;  // cross-process span id (kFlowBegin/kFlowEnd only)
  std::string name;   // span identity within the key ("step", "mutex.wait")
  std::string detail; // freeform annotation, shown in export args
};

/// Label for a sim::MsgCategory value. Mirrors sim::MsgCategoryName —
/// duplicated here (seven stable values) so obs stays sim-independent.
const char* TraceCategoryLabel(int category);

/// Escapes a string for embedding in a JSON string literal (no quotes).
std::string JsonEscape(std::string_view text);

/// Writes `body` to `path`, replacing the file.
Status WriteFile(const std::string& path, std::string_view body);

// ---- Export writers, shared by the ring (RingBufferTracer) and the
// cluster trace merge (net/trace_merge.h). A record's timestamp and
// duration are given in the export's unit (ticks for a ring, µs for a
// merge); `extra_args` are JSON members written ahead of the record's
// own, e.g. `"endpoint":"a","incarnation":1`, or empty. ----

/// Builds a Chrome trace_event JSON document (object form, loadable in
/// chrome://tracing and Perfetto) one event at a time.
class ChromeTraceWriter {
 public:
  /// `other_data`: the members of an "otherData" object; none if empty.
  /// `events`: how many events to reserve room for.
  ChromeTraceWriter(std::string_view other_data, size_t events);

  /// Names process `pid` and gives it one thread track per node: the
  /// registered `node_names`, then "node-N" for any other node that a
  /// record names.
  template <class Records>
  void Process(int64_t pid, std::string_view name,
               const std::map<NodeId, std::string>& node_names,
               const Records& records) {
    std::map<NodeId, std::string> tracks = node_names;
    for (const TraceRecord& r : records) {
      if (r.node != kInvalidNode && tracks.find(r.node) == tracks.end()) {
        tracks[r.node] = "node-" + std::to_string(r.node);
      }
    }
    Metadata("process_name", pid, 0, name);
    for (const auto& [node, track] : tracks) {
      Metadata("thread_name", pid, node, track);
    }
  }

  /// One record: "X" for a complete span, "b"/"e" for the halves of a
  /// cross-process span (paired by flow id), "i" for everything else.
  void Event(const TraceRecord& r, int64_t ts, int64_t dur, int64_t pid,
             std::string_view extra_args);

  std::string Finish();

 private:
  void Metadata(const char* what, int64_t pid, NodeId tid,
                std::string_view name);
  void Separate();

  std::string out_;
  bool first_ = true;
};

/// The key names of one JSONL dialect: a ring's log stamps ticks, a
/// merged log stamps µs.
struct JsonlKeys {
  const char* ts;
  const char* dur;
};
inline constexpr JsonlKeys kRingJsonl{"t", "dur"};
inline constexpr JsonlKeys kMergedJsonl{"ts_us", "dur_us"};

/// Appends one record as a JSONL line.
void AppendJsonlLine(std::string* out, const TraceRecord& r, int64_t ts,
                     int64_t dur, std::string_view extra_args,
                     const JsonlKeys& keys);

/// Sink interface. The base class IS the null sink: `enabled()` is false
/// and `Record` drops everything, so instrumentation sites pay one
/// virtual-free bool check when tracing is off. Helpers (Begin/End/...)
/// no-op unless enabled.
class Tracer {
 public:
  virtual ~Tracer() = default;

  virtual bool enabled() const { return false; }
  virtual void Record(TraceRecord record) { (void)record; }
  /// Registers a display name for a node's export track ("engine-1").
  virtual void SetNodeName(NodeId node, const std::string& name) {
    (void)node;
    (void)name;
  }

  /// Registers the virtual clock the helpers stamp records with
  /// (the Simulator points this at its event queue's now()).
  void SetClock(const int64_t* clock) { clock_ = clock; }
  /// Time the helpers stamp records with. Virtual so a wall-clock
  /// backend (rt::Runtime's serializing wrapper) can stamp real ticks
  /// without a clock variable to point at.
  virtual int64_t now() const { return clock_ != nullptr ? *clock_ : 0; }

  /// Process-wide null sink (never deleted).
  static Tracer* Null();

  // ---- convenience emitters ----
  void Begin(SpanKind kind, NodeId node, const InstanceId& instance,
             StepId step, std::string name, int category = 0,
             std::string detail = {});
  void End(SpanKind kind, NodeId node, const InstanceId& instance,
           StepId step, std::string name, int category = 0,
           std::string detail = {});
  void Instant(SpanKind kind, NodeId node, const InstanceId& instance,
               StepId step, std::string name, int64_t value = 0,
               std::string detail = {}, int category = 0);
  /// A span whose duration is known at record time (message delivery).
  void Complete(SpanKind kind, NodeId node, const InstanceId& instance,
                StepId step, std::string name, int64_t begin_time,
                int64_t dur, int category = 0, std::string detail = {});
  /// Opens the sender half of a cross-process span. `begin_time` is the
  /// caller's clock reading (the transport stamps its own send tick,
  /// which is not this tracer's now()). Closed by a FlowEnd with the
  /// same `flow` id, typically recorded in a different process.
  void FlowBegin(SpanKind kind, NodeId node, uint64_t flow,
                 std::string name, int64_t begin_time, int category = 0,
                 std::string detail = {}, int64_t value = 0);
  /// Closes the receiver half of a cross-process span at now().
  void FlowEnd(SpanKind kind, NodeId node, uint64_t flow, std::string name,
               int category = 0, std::string detail = {},
               int64_t value = 0);

 protected:
  const int64_t* clock_ = nullptr;
};

/// Fixed-bucket latency histogram: exact buckets below 64, then 32
/// sub-buckets per power of two (HDR-style), so percentile error is
/// bounded at ~3% while Add() stays a couple of shifts.
class LatencyHistogram {
 public:
  static constexpr int kLinearBuckets = 64;
  static constexpr int kSubBuckets = 32;
  // Values up to 2^58 land in a real bucket; larger clamp to the last.
  static constexpr int kNumBuckets =
      kLinearBuckets + kSubBuckets * 52 + 1;

  explicit LatencyHistogram(std::string name = {}, std::string unit = {});

  void Add(int64_t value);

  int64_t count() const { return count_; }
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return max_; }
  double mean() const;
  /// Interpolated percentile, `p` in [0, 100]. 0 when empty.
  double Percentile(double p) const;

  const std::string& name() const { return name_; }
  /// One-line summary: "name: n=… p50=… p95=… p99=… max=…".
  std::string Summary() const;
  /// {"name":…,"count":…,"p50":…,…} JSON object.
  std::string ToJson() const;

  static int BucketIndex(int64_t value);
  static int64_t BucketLower(int index);
  static int64_t BucketUpper(int index);

  /// Raw bucket counts (kNumBuckets entries, mostly zero).
  const std::vector<int64_t>& buckets() const { return buckets_; }
  /// Adds `count` samples directly into bucket `index` (for merging
  /// sparse bucket dumps shipped across processes). min/max are
  /// approximated by the bucket bounds; mean uses the bucket midpoint.
  void AddBucket(int index, int64_t count);
  /// Pools another histogram's samples into this one.
  void MergeFrom(const LatencyHistogram& other);

 private:
  std::string name_;
  std::string unit_;
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  double sum_ = 0.0;
};

/// In-memory ring-buffer sink. Matches Begin/End pairs into complete
/// spans (first Begin wins; an End with no Begin is counted and
/// dropped), feeds the latency histograms as spans close, and exports
/// Chrome trace_event JSON / JSONL on demand.
class RingBufferTracer : public Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 20;

  explicit RingBufferTracer(size_t capacity = kDefaultCapacity);

  bool enabled() const override { return true; }
  void Record(TraceRecord record) override;
  void SetNodeName(NodeId node, const std::string& name) override;

  const std::deque<TraceRecord>& records() const { return records_; }
  /// Display names registered via SetNodeName (for shard export).
  const std::map<NodeId, std::string>& node_names() const {
    return node_names_;
  }
  int64_t recorded() const { return recorded_; }
  int64_t dropped() const { return dropped_; }
  int64_t unmatched_ends() const { return unmatched_ends_; }
  size_t open_spans() const { return open_.size(); }

  const LatencyHistogram& step_latency() const { return step_latency_; }
  const LatencyHistogram& instance_latency() const {
    return instance_latency_;
  }
  const LatencyHistogram& lock_wait() const { return lock_wait_; }
  const LatencyHistogram& rollback_depth() const {
    return rollback_depth_;
  }

  /// Chrome trace_event JSON (object form), loadable in chrome://tracing
  /// and Perfetto. pid 0 is the simulation; one thread track per node.
  std::string ChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;

  /// Compact JSONL event log: one record object per line.
  std::string JsonlLog() const;
  Status WriteJsonl(const std::string& path) const;

  /// Human-readable latency/percentile block; benches print it after
  /// sim::Metrics::Report() so the two together form the run summary.
  std::string SummaryReport() const;
  /// {"step":{…},"instance":{…},"lock_wait":{…},"rollback_depth":{…}}.
  std::string HistogramsJson() const;

 private:
  using SpanKey = std::tuple<int, InstanceId, StepId, std::string>;

  void Push(TraceRecord record);
  void FeedHistograms(const TraceRecord& record);

  size_t capacity_;
  std::deque<TraceRecord> records_;
  std::map<SpanKey, TraceRecord> open_;
  std::map<NodeId, std::string> node_names_;
  int64_t recorded_ = 0;
  int64_t dropped_ = 0;
  int64_t unmatched_ends_ = 0;

  LatencyHistogram step_latency_;
  LatencyHistogram instance_latency_;
  LatencyHistogram lock_wait_;
  LatencyHistogram rollback_depth_;
};

}  // namespace crew::obs

#endif  // CREW_OBS_TRACE_H_
