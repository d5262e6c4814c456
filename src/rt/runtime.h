#ifndef CREW_RT_RUNTIME_H_
#define CREW_RT_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/trace.h"
#include "rt/mailbox.h"
#include "sim/context.h"

namespace crew::rt {

/// Escape hatch for node ids the runtime does not host. When a send (or a
/// down-flag query) names a node with no local cell, the runtime hands it
/// to the installed router instead of failing — the seam `src/net` uses
/// to stretch one logical node space across OS processes. Implementations
/// must honour the Transport contract for the ids they own: reliable,
/// in-order per sender-receiver pair, down-node parking.
class RemoteRouter {
 public:
  virtual ~RemoteRouter() = default;

  /// Routes a message whose destination is not hosted here. Called from
  /// worker threads; must be thread-safe.
  virtual Status RouteRemote(sim::Message message) = 0;

  virtual void SetRemoteDown(NodeId id, bool down) = 0;
  virtual bool IsRemoteDown(NodeId id) const = 0;
};

struct RuntimeOptions {
  /// Root seed; each node's RNG stream is SplitMix64-derived from
  /// (seed, node id), so streams are stable across thread interleavings.
  uint64_t seed = 42;
  /// Wall microseconds per sim::Time tick. Engines express timeouts in
  /// ticks; the runtime converts at this rate. 50µs keeps the dist
  /// pending-check cadence (tens of ticks) in the low-millisecond range.
  int64_t tick_us = 50;
  /// Per-node mailbox bound; cross-node senders block when it fills.
  size_t mailbox_capacity = 1 << 16;
  /// Consumer spin iterations before parking on the mailbox condvar.
  int spin_iterations = 256;
  /// Trace sink shared by all nodes, or nullptr for no tracing. The
  /// runtime serializes access and stamps records with wall ticks.
  obs::Tracer* tracer = nullptr;
};

/// Counters describing one run, aggregated over all cells at read time.
struct RuntimeStats {
  int64_t messages_delivered = 0;  // cross-node deliveries dispatched
  int64_t messages_parked = 0;     // deliveries deferred by a down node
  int64_t timers_fired = 0;        // delayed callbacks dispatched
  int64_t mailbox_parks = 0;       // consumer condvar waits (all cells)
  size_t max_mailbox_depth = 0;    // deepest queue seen on any cell
  size_t mailbox_depth = 0;        // gauge: tasks queued now, all cells
  int num_workers = 0;
};

/// Live execution backend: runs the unmodified engines and agents on real
/// threads. Each node becomes a *cell* — a worker thread draining a
/// bounded MPSC mailbox — so every node is single-threaded with respect
/// to its own state, exactly as under the virtual-time Simulator; only
/// the transport boundary is concurrent. Time is the monotonic wall
/// clock scaled to ticks (options.tick_us).
///
/// Lifecycle: construct -> systems call ContextFor() while assembling
/// (single-threaded) -> Start() spawns workers + timer thread -> drive
/// load with Post() -> Quiesce() waits for the system to go idle ->
/// inspect MergedMetrics()/engine state -> Shutdown() joins everything.
class Runtime : public sim::Backend {
 public:
  explicit Runtime(RuntimeOptions options = {});
  ~Runtime() override;

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Returns (creating on first use) the context for `id`. Must only be
  /// called before Start() — systems wire nodes during assembly.
  sim::Context* ContextFor(NodeId id) override;

  /// Spawns one worker per cell plus the timer thread.
  void Start();

  /// Injects `fn` into `node`'s mailbox from outside the runtime (the
  /// bench driver starting workflows, tests flipping failure switches).
  /// Blocks for backpressure while the mailbox is full.
  void Post(NodeId node, std::function<void()> fn);

  /// Blocks until the system is quiescent: every mailbox empty, every
  /// worker between tasks, and no pending or in-flight timers — checked
  /// twice with an unchanged global work counter, so no task can be in
  /// flight between the sweeps. Requires externally-driven load to have
  /// stopped (no more Post calls) and all nodes up (a down node parks
  /// work forever). Precondition: Start() was called.
  void Quiesce();

  /// Stops everything: closes mailboxes (remaining tasks drain, new work
  /// is dropped), stops the timer thread (pending timers discarded) and
  /// joins all threads. Idempotent. For a loss-free stop, Quiesce()
  /// first. After Shutdown the cells' state (engines, metrics shards)
  /// can be inspected from the calling thread — the joins order every
  /// worker write before the inspection.
  void Shutdown();

  /// Current wall time in ticks since construction.
  sim::Time now() const;
  int64_t tick_us() const { return options_.tick_us; }

  /// Sum of all per-cell metrics shards. Call only when quiescent (after
  /// Quiesce() or Shutdown()); each shard is single-writer by its cell.
  sim::Metrics MergedMetrics() const;

  /// Live (mid-run) merged metrics: asks every cell, on its own worker,
  /// to copy its shard into a locked snapshot slot, waits up to `wait`
  /// for the copies, then merges whatever snapshots exist. Cells that
  /// did not get to their copy task in time contribute their *previous*
  /// snapshot (possibly empty) — the wait is bounded, never exact. The
  /// single-writer shard discipline is preserved: no foreign thread
  /// ever reads a live shard. Safe before Start() and after Shutdown()
  /// (copies directly — the caller is then the only thread).
  sim::Metrics SampleMetrics(std::chrono::milliseconds wait);

  /// Merge of the snapshots taken by previous SampleMetrics calls,
  /// without requesting new copies. Cheap; callable from any thread.
  sim::Metrics LatestMetricsSnapshot() const;

  /// The serializing tracer shared by all cells — never null (a no-op
  /// wrapper when options.tracer was null). The socket transport takes
  /// this as its flow-span sink so sender-side spans serialize with the
  /// cells' own records.
  obs::Tracer* tracer() const;

  RuntimeStats Stats() const;

  /// Crash/recover a node, as sim::Simulator::InjectCrash does: down
  /// nodes park inbound messages; recovery flushes them in order.
  /// Timers for a down node still fire (the paper's model restarts
  /// engines with state recovered from the log, so self-probes survive).
  void SetNodeDown(NodeId id, bool down);
  bool IsNodeDown(NodeId id) const;

  /// Installs the router consulted for node ids with no local cell:
  /// sends fall through to it, and SetNodeDown/IsNodeDown on unknown ids
  /// delegate to it. Must be set before Start(); pass nullptr to clear.
  void SetRemoteRouter(RemoteRouter* router) { remote_router_ = router; }

  /// Delivers a message that arrived from a remote peer into its local
  /// destination cell, respecting down-parking (ForcePush path — never
  /// blocks, so transport threads cannot deadlock against full
  /// mailboxes). Thread-safe; callable while the runtime is live.
  Status DeliverRemote(sim::Message message);

  /// Registers a callback run on `id`'s own worker thread when the node
  /// recovers (SetNodeDown(id, false)), *before* any message parked
  /// during the outage is dispatched. This is the crash-recovery seam:
  /// the hook replays the node's write-ahead log (storage::Wal::Recover)
  /// to rebuild engine state ahead of the flushed backlog.
  void SetRecoveryHook(NodeId id, std::function<void()> hook);

  /// One all-quiet sweep: every mailbox idle, no pending or in-flight
  /// timers. A single true sweep is not termination — pair two sweeps
  /// around an unchanged AdmittedWork() (what Quiesce() does), or
  /// combine sweeps across processes for a cluster-level quiesce.
  bool LooksQuiet() const;
  /// Monotonic admission counter (mailbox pushes + timer fires).
  int64_t AdmittedWork() const;

  bool started() const { return started_; }

 private:
  struct Cell;
  class NodeTransport;
  class NodeScheduler;
  class NodeContext;
  class SerialTracer;

  struct TimerEntry {
    int64_t due_us;    // wall deadline, µs since start_
    uint64_t seq;      // tie-breaker: insertion order
    Cell* cell;
    Mailbox::Task fn;
  };
  struct TimerLater {
    bool operator()(const TimerEntry& a, const TimerEntry& b) const {
      if (a.due_us != b.due_us) return a.due_us > b.due_us;
      return a.seq > b.seq;
    }
  };

  Cell* FindCell(NodeId id) const;
  /// Routes one delivery: lock-free mailbox push while the destination
  /// is up; route_mu slow path (park or push) while it is down.
  void EnqueueDelivery(Cell* cell, sim::Message message, sim::Time sent);
  /// Wraps `message` in the dispatch task and force-pushes it.
  void PushDelivery(Cell* cell, sim::Message message, sim::Time sent);
  /// Schedules `fn` on `cell` at absolute tick `at` via the timer thread
  /// (or directly if already due).
  void ScheduleTimer(Cell* cell, sim::Time at, Mailbox::Task fn);
  void WorkerLoop(Cell* cell);
  void TimerLoop();

  RuntimeOptions options_;
  std::chrono::steady_clock::time_point start_;
  std::unique_ptr<SerialTracer> tracer_;

  /// Node id -> cell. Mutated only before Start() (node-pointer lookups
  /// during the run are concurrent reads of a frozen map).
  std::map<NodeId, std::unique_ptr<Cell>> cells_;
  /// Fallback for ids outside cells_. Set before Start(); read-only
  /// afterwards (the spawn of the worker threads publishes it).
  RemoteRouter* remote_router_ = nullptr;
  bool started_ = false;
  bool shut_down_ = false;

  // ---- timer thread ----
  std::thread timer_thread_;
  mutable std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  /// Binary heap via std::push_heap/pop_heap (same idiom as EventQueue:
  /// entries can be moved out on pop).
  std::vector<TimerEntry> timer_heap_;
  uint64_t timer_seq_ = 0;
  int timer_in_flight_ = 0;  // popped but not yet pushed to a mailbox
  bool timer_stop_ = false;
  std::atomic<int64_t> timers_fired_{0};
};

}  // namespace crew::rt

#endif  // CREW_RT_RUNTIME_H_
