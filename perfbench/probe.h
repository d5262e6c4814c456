// Decorating backend: wraps any sim::Backend (the virtual-time Simulator
// or the live rt::Runtime) and measures every node from outside the
// program, at the public Backend -> Context -> Transport / Scheduler /
// MessageHandler seams that every system is assembled on.
//
// Untraced, the decorators only forward, and call the run's
// DispatchObserver, if it has one, after each handler (rt's completion
// signal). Traced, they also time handlers by wire type,
// count and time scheduled callbacks, match each Send to its handler
// through per-pair FIFO queues (rt), measure timer lateness (rt) and
// keep a copy of the payloads sent, for the codec replay.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sim/context.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Told about every message handled, after the handler returns, on the
/// handling node's own thread.
class DispatchObserver {
 public:
  virtual ~DispatchObserver() = default;
  virtual void AfterHandler(crew::NodeId node,
                            const crew::sim::Message& message) = 0;
};

struct ProbeOptions {
  /// Time handlers and callbacks and keep payload copies.
  bool traced = false;
  /// Live backend: also match sends to handlers and measure timer
  /// lateness against the wall clock.
  bool live = false;
  /// Wall microseconds per tick (live backend only).
  int64_t tick_us = 0;
};

/// Handler time and count of one wire type at one node.
struct TypeCost {
  int64_t count = 0;
  int64_t ns = 0;
};

/// Everything one node's decorators recorded. Written only by that
/// node's thread; read after the backend stopped.
struct NodeLedger {
  std::map<std::string, TypeCost> handlers;  ///< by wire type
  int64_t callbacks = 0;
  int64_t callback_ns = 0;
  std::vector<int64_t> msg_wait_ns;    ///< Send -> handler start (live)
  std::vector<int64_t> timer_late_ns;  ///< due -> callback start (live)
  std::vector<int64_t> post_wait_ns;   ///< Post -> closure start (live)
};

/// One sent message, kept for the codec replay.
struct Captured {
  std::string type;
  std::string payload;
};

class ProbeBackend : public crew::sim::Backend {
 public:
  /// `observer` may be null.
  ProbeBackend(crew::sim::Backend* inner, ProbeOptions options,
               DispatchObserver* observer);
  ~ProbeBackend() override;

  ProbeBackend(const ProbeBackend&) = delete;
  ProbeBackend& operator=(const ProbeBackend&) = delete;

  crew::sim::Context* ContextFor(crew::NodeId id) override;

  /// Wraps a closure posted to `node` from outside the system (an
  /// arrival), so that traced, its time and its wait since the post are
  /// seen like any scheduled callback. Untraced it returns `fn` itself.
  std::function<void()> WrapPost(crew::NodeId node,
                                 std::function<void()> fn);

  /// Live backend: estimates the wall instant (NowNs clock) of tick 0
  /// from the backend's truncating tick clock, so timer due times can
  /// be placed on the wall clock to well under one tick. Call once
  /// after the backend's clock started and before traced timers run.
  void CalibrateLiveClock(const std::function<int64_t()>& now_ticks);

  const std::map<crew::NodeId, NodeLedger*>& ledgers() const {
    return ledgers_;
  }
  /// Payloads sent in a traced run, up to the capture limit.
  const std::vector<Captured>& captured() const { return captured_; }
  /// Keeps copies of the first `limit` payloads sent (0: none). Set
  /// before the backend runs.
  void set_capture_limit(size_t limit) { capture_limit_ = limit; }

 private:
  class NodeContext;
  friend class NodeContext;

  struct Pair {
    std::mutex mu;
    std::deque<int64_t> sent_ns;
  };
  Pair* PairFor(crew::NodeId from, crew::NodeId to);

  crew::sim::Backend* inner_;
  ProbeOptions options_;
  DispatchObserver* observer_;
  std::map<crew::NodeId, std::unique_ptr<NodeContext>> contexts_;
  std::map<crew::NodeId, NodeLedger*> ledgers_;
  /// Per-(from,to) queues of send times (live traced runs), created on
  /// first use. Delivery is FIFO per pair, so the handler of a message
  /// pops its own send time.
  std::mutex pairs_mu_;
  std::map<std::pair<crew::NodeId, crew::NodeId>, std::unique_ptr<Pair>>
      pairs_;
  int64_t tick0_ns_ = 0;
  size_t capture_limit_ = 0;
  std::mutex capture_mu_;
  std::vector<Captured> captured_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
