#include "probe.h"

#include <algorithm>

namespace perfbench {

using crew::NodeId;
using crew::Status;
namespace sim = crew::sim;

/// One node's decorated context: forwards every service to the inner
/// context and interposes on the transport, the scheduler and the
/// handler the node registers.
class ProbeBackend::NodeContext : public sim::Context,
                                  public sim::Transport,
                                  public sim::Scheduler {
 public:
  NodeContext(ProbeBackend* probe, NodeId id, sim::Context* inner)
      : probe_(probe), id_(id), inner_(inner) {}

  // ---- Context ----
  sim::Transport& network() override { return *this; }
  sim::Scheduler& queue() override { return *this; }
  sim::Metrics& metrics() override { return inner_->metrics(); }
  crew::obs::Tracer& tracer() override { return inner_->tracer(); }
  crew::Rng& rng() override { return inner_->rng(); }
  sim::Time now() const override { return inner_->now(); }

  // ---- Transport ----
  void Register(NodeId id, sim::MessageHandler* handler) override {
    handlers_.push_back(std::make_unique<Handler>(this, handler));
    inner_->network().Register(id, handlers_.back().get());
  }
  void SetNodeDown(NodeId id, bool down) override {
    inner_->network().SetNodeDown(id, down);
  }
  bool IsNodeDown(NodeId id) const override {
    return inner_->network().IsNodeDown(id);
  }
  Status Send(sim::Message message) override {
    const ProbeOptions& options = probe_->options_;
    if (options.traced) {
      if (probe_->capture_limit_ > 0) {
        std::lock_guard<std::mutex> lock(probe_->capture_mu_);
        if (probe_->captured_.size() < probe_->capture_limit_) {
          probe_->captured_.push_back({message.type, message.payload});
        }
      }
      if (options.live) {
        Pair* pair = probe_->PairFor(message.from, message.to);
        std::lock_guard<std::mutex> lock(pair->mu);
        pair->sent_ns.push_back(NowNs());
      }
    }
    return inner_->network().Send(std::move(message));
  }

  // ---- Scheduler ----
  void ScheduleAt(sim::Time at, Callback fn) override {
    if (!probe_->options_.traced) {
      inner_->queue().ScheduleAt(at, std::move(fn));
      return;
    }
    int64_t due_ns = -1;
    if (probe_->options_.live) {
      due_ns = probe_->tick0_ns_ + at * probe_->options_.tick_us * 1000;
    }
    inner_->queue().ScheduleAt(at, [this, due_ns, fn = std::move(fn)]() {
      RunCallback(fn, due_ns, &ledger_.timer_late_ns);
    });
  }

  /// Runs a callback with timing; `due_ns` >= 0 records its lateness
  /// into `late`.
  void RunCallback(const std::function<void()>& fn, int64_t due_ns,
                   std::vector<int64_t>* late) {
    int64_t start = NowNs();
    if (due_ns >= 0) late->push_back(start - due_ns);
    fn();
    ledger_.callback_ns += NowNs() - start;
    ++ledger_.callbacks;
  }

  NodeLedger* ledger() { return &ledger_; }

 private:
  class Handler : public sim::MessageHandler {
   public:
    Handler(NodeContext* node, sim::MessageHandler* inner)
        : node_(node), inner_(inner) {}
    void HandleMessage(const sim::Message& message) override {
      ProbeBackend* probe = node_->probe_;
      if (probe->options_.traced) {
        Timed(message);
      } else {
        inner_->HandleMessage(message);
      }
      if (probe->observer_ != nullptr) {
        probe->observer_->AfterHandler(node_->id_, message);
      }
    }

   private:
    void Timed(const sim::Message& message) {
      ProbeBackend* probe = node_->probe_;
      int64_t start = NowNs();
      if (probe->options_.live) {
        Pair* pair = probe->PairFor(message.from, message.to);
        std::lock_guard<std::mutex> lock(pair->mu);
        if (!pair->sent_ns.empty()) {
          node_->ledger_.msg_wait_ns.push_back(start -
                                               pair->sent_ns.front());
          pair->sent_ns.pop_front();
        }
      }
      inner_->HandleMessage(message);
      TypeCost& cost = node_->ledger_.handlers[message.type];
      cost.ns += NowNs() - start;
      ++cost.count;
    }

    NodeContext* node_;
    sim::MessageHandler* inner_;
  };

  ProbeBackend* probe_;
  NodeId id_;
  sim::Context* inner_;
  std::vector<std::unique_ptr<Handler>> handlers_;
  NodeLedger ledger_;
};

ProbeBackend::ProbeBackend(sim::Backend* inner, ProbeOptions options,
                           DispatchObserver* observer)
    : inner_(inner), options_(options), observer_(observer) {}

ProbeBackend::~ProbeBackend() = default;

sim::Context* ProbeBackend::ContextFor(NodeId id) {
  auto it = contexts_.find(id);
  if (it != contexts_.end()) return it->second.get();
  auto context =
      std::make_unique<NodeContext>(this, id, inner_->ContextFor(id));
  ledgers_[id] = context->ledger();
  return contexts_.emplace(id, std::move(context)).first->second.get();
}

std::function<void()> ProbeBackend::WrapPost(NodeId node,
                                             std::function<void()> fn) {
  if (!options_.traced) return fn;
  NodeContext* context = static_cast<NodeContext*>(ContextFor(node));
  int64_t posted = options_.live ? NowNs() : -1;
  return [context, posted, fn = std::move(fn)]() {
    context->RunCallback(fn, posted, &context->ledger()->post_wait_ns);
  };
}

void ProbeBackend::CalibrateLiveClock(
    const std::function<int64_t()>& now_ticks) {
  // now_ticks() = floor((t - tick0) / tick): every sample bounds tick0
  // to (t - (n+1)*tick, t - n*tick]. Sampling across many tick edges
  // narrows the interval; keep its midpoint.
  const int64_t tick_ns = options_.tick_us * 1000;
  int64_t lo = INT64_MIN, hi = INT64_MAX;
  for (int i = 0; i < 4000; ++i) {
    int64_t before = NowNs();
    int64_t n = now_ticks();
    int64_t after = NowNs();
    lo = std::max(lo, before - (n + 1) * tick_ns);
    hi = std::min(hi, after - n * tick_ns);
  }
  tick0_ns_ = lo <= hi ? lo + (hi - lo) / 2 : hi;
}

ProbeBackend::Pair* ProbeBackend::PairFor(NodeId from, NodeId to) {
  std::lock_guard<std::mutex> lock(pairs_mu_);
  std::unique_ptr<Pair>& pair = pairs_[{from, to}];
  if (pair == nullptr) pair = std::make_unique<Pair>();
  return pair.get();
}

}  // namespace perfbench
