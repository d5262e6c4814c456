#ifndef CREW_NET_SOCKET_TRANSPORT_H_
#define CREW_NET_SOCKET_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/topology.h"
#include "obs/trace.h"
#include "rt/runtime.h"
#include "sim/network.h"

namespace crew::net {

struct SocketTransportOptions {
  /// Process generation: bump on restart so peers reset their dedup
  /// watermarks for this endpoint's streams.
  uint64_t incarnation = 1;
  /// Per-peer cap on retained outbound bytes (queued + unacked). Send
  /// blocks above it — the bounded-backpressure contract.
  size_t max_outbound_bytes = 64u << 20;
  /// Reconnect backoff, doubling from initial to max.
  int reconnect_initial_ms = 5;
  int reconnect_max_ms = 500;
  /// Consecutive connect failures before IsNodeDown reports the peer
  /// down (debounces startup races against real crashes).
  int down_after_failures = 40;
  /// Batching policy: pending DATA frames of a directed pair coalesce
  /// into one kBatch superframe per poll wakeup, capped at this many
  /// inner bytes per batch.
  size_t batch_max_bytes = 64 * 1024;
};

/// Counters for benchmarks and Idle checks (monotonic, relaxed), plus
/// point-in-time gauges of the retained/held backlog (read under the
/// state lock, so a telemetry scrape sees a consistent snapshot).
struct SocketTransportStats {
  int64_t frames_sent = 0;        // DATA frames written (incl. replays)
  int64_t frames_delivered = 0;   // DATA frames handed to the sink
  int64_t frames_deduped = 0;     // DATA frames dropped by watermark
  int64_t frames_replayed = 0;    // DATA frames re-written after reconnect
  int64_t frames_batched = 0;     // DATA frames that rode in a superframe
  int64_t batches_sent = 0;       // kBatch superframes staged
  int64_t bytes_sent = 0;         // all frame bytes written
  int64_t write_syscalls = 0;     // successful write() calls
  int64_t connects = 0;           // first connection to each peer
  int64_t reconnects = 0;         // later connections to a peer
  int64_t retained_bytes = 0;     // gauge: unacked outbound, all peers
  int64_t held_bytes = 0;         // gauge: parked for explicit-down nodes
};

/// Health of one directed outbound link, for telemetry scrapes. The
/// retained window IS the ACK lag: frames this side has sequenced that
/// the peer's cumulative ACK has not yet covered.
struct SocketTransportPeerStats {
  std::string peer;           ///< remote endpoint address
  bool connected = false;
  uint64_t next_seq = 1;      ///< next sequence number to assign
  int64_t ack_lag_frames = 0; ///< retained (sequenced, unacked) frames
  int64_t retained_bytes = 0;
  int64_t held_bytes = 0;     ///< parked for explicitly-down nodes
};

/// One clock-offset observation against a peer: the send tick its HELLO
/// carried and our local tick when that HELLO was decoded. Only the
/// sample minimizing (local - remote) per (peer, incarnation) is kept —
/// the minimum-latency exchange is the best offset bound (NTP's logic)
/// — along with how many exchanges were seen. Keyed by the peer's
/// incarnation because a restarted process is a new clock: mixing
/// samples across its lives would corrupt the offset estimate.
struct ClockSample {
  std::string peer;               ///< remote endpoint address
  uint64_t peer_incarnation = 0;
  int64_t remote_sent_ticks = 0;  ///< peer clock, from its HELLO
  int64_t local_recv_ticks = 0;   ///< our clock at decode
  int64_t count = 0;              ///< HELLOs folded into this sample
};

/// sim::Transport over real sockets: each endpoint of the Topology is a
/// separate process (or a separate in-process instance, for loopback
/// tests), connected by Unix-domain or TCP stream sockets.
///
/// Structure: one listening socket plus one *outbound* connection to
/// every other endpoint, all driven by a single poll-loop thread.
/// Outbound connections are simplex — this endpoint's DATA frames and
/// its ACKs for the reverse direction; inbound frames arrive on
/// connections the peers initiated. Worker threads enqueue sends under a
/// per-peer mutex and wake the loop through a self-pipe.
///
/// Reliability: every DATA frame carries a per-directed-endpoint-pair
/// sequence number and is retained by the sender until the peer's
/// cumulative ACK covers it. A broken connection parks the backlog —
/// exactly the rt down_flag path, but sender-side — and reconnect (with
/// exponential backoff) replays HELLO, the reverse-direction ACK, then
/// every retained frame. The receiver drops seq <= watermark, keyed by
/// (endpoint, incarnation): a restarted peer announces a new incarnation
/// and the watermark resets. ACKs carry the incarnation they describe
/// and the sender ignores ACKs for an incarnation other than its own,
/// so a reconnect ACK that races a restarted peer's HELLO can never
/// discard frames of the new sequence space. This makes delivery
/// exactly-once in steady
/// state and at-least-once across a crash-restart — the residual
/// duplicates/losses are absorbed by the workflow layer's failure
/// handling (§5.2), which is the paper's point.
class SocketTransport : public sim::Transport, public rt::RemoteRouter {
 public:
  /// Sink for inbound messages, called on the poll-loop thread. Must not
  /// block (rt::Runtime::DeliverRemote force-pushes, so it qualifies).
  using DeliverFn = std::function<void(sim::Message)>;

  SocketTransport(Topology topology, Endpoint self, DeliverFn deliver,
                  SocketTransportOptions options = {});
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// Creates, binds and listens on the self endpoint. Separate from
  /// Start so a launcher can bind every endpoint before any connects,
  /// ruling out startup connect storms.
  Status Bind();

  /// Spawns the poll-loop thread; begins dialing peers.
  void Start();

  /// Blocks until an outbound connection to every peer endpoint is
  /// established, or the timeout passes. Returns success.
  bool WaitConnected(std::chrono::milliseconds timeout);

  /// Closes every socket and joins the loop thread. Idempotent.
  void Shutdown();

  /// Installs the telemetry hooks: a trace sink (the runtime's
  /// serializing tracer) and the clock it stamps with (runtime ticks).
  /// With an enabled tracer installed, Ship() assigns each message an
  /// incarnation-scoped trace id, records the sender half of its
  /// kMessage flow span, and HELLO frames carry the local send tick so
  /// peers can collect clock samples. Call before Start().
  void InstallTelemetry(obs::Tracer* tracer,
                        std::function<int64_t()> clock);

  /// Best clock-offset sample per (peer, incarnation) seen so far.
  std::vector<ClockSample> ClockSamples() const;

  /// Per-directed-link health gauges, one entry per remote endpoint.
  std::vector<SocketTransportPeerStats> PeerStats() const;

  // ---- sim::Transport ----
  /// Registers a local handler (transport-level tests). Messages to a
  /// registered id are dispatched inline; inbound frames for it are
  /// dispatched on the loop thread. With a DeliverFn sink installed the
  /// sink takes precedence for inbound frames.
  void Register(NodeId id, sim::MessageHandler* handler) override;
  void SetNodeDown(NodeId id, bool down) override;
  bool IsNodeDown(NodeId id) const override;
  Status Send(sim::Message message) override;

  // ---- rt::RemoteRouter (the hook rt::Runtime calls for non-local ids)
  Status RouteRemote(sim::Message message) override { return Ship(message); }
  void SetRemoteDown(NodeId id, bool down) override {
    SetNodeDown(id, down);
  }
  bool IsRemoteDown(NodeId id) const override { return IsNodeDown(id); }

  /// True when nothing is in flight from this side: no held, queued or
  /// unacked outbound frame anywhere. All transports idle (across the
  /// cluster) + all runtimes quiet => global quiescence.
  bool Idle() const;

  SocketTransportStats Stats() const;
  const Endpoint& self() const { return self_; }
  const Topology& topology() const { return topology_; }

 private:
  struct Peer;
  struct InConn;

  Status Ship(sim::Message& message);
  Peer* PeerOf(NodeId id) const;
  void WakeLoop();
  void LoopThread();
  /// Starts (or restarts) the non-blocking connect to `peer`.
  void DialLocked(Peer* peer, int64_t now_ms);
  /// Runs getaddrinfo for dial-due TCP hostnames OUTSIDE state_mu_
  /// (loop thread only): DNS can block for seconds and must not stall
  /// workers in Ship/IsNodeDown/WaitConnected.
  void ResolveDueHostnames(int64_t now_ms);
  void OnConnected(Peer* peer);
  void OnConnectionBroken(Peer* peer, int64_t now_ms);
  void FlushWrites(Peer* peer);
  void ReadInbound(InConn* conn);
  void HandleInboundFrame(InConn* conn, Frame frame);
  /// Appends an ACK for `endpoint`'s stream onto our link to it,
  /// scoped to the stream incarnation the watermark belongs to.
  void QueueAckLocked(const std::string& endpoint_address,
                      uint64_t watermark, uint64_t incarnation);
  int64_t NowMs() const;

  Topology topology_;
  Endpoint self_;
  DeliverFn deliver_;
  SocketTransportOptions options_;

  /// Telemetry hooks (InstallTelemetry; immutable once Start() ran).
  obs::Tracer* tracer_ = nullptr;
  std::function<int64_t()> clock_;
  /// High 16 bits of every trace id this transport assigns: a hash of
  /// the self address, so ids from different endpoints cannot collide.
  uint64_t trace_endpoint_bits_ = 0;
  std::atomic<uint32_t> trace_counter_{0};

  /// Best (min local-remote gap) clock sample per (peer, incarnation).
  std::map<std::pair<std::string, uint64_t>, ClockSample>
      clock_samples_;  // guarded by state_mu_

  std::map<NodeId, sim::MessageHandler*> handlers_;  // pre-Start only
  std::set<NodeId> local_nodes_;
  std::set<NodeId> explicit_down_;  // guarded by state_mu_

  /// Outbound state per remote endpoint, keyed by address.
  std::map<std::string, std::unique_ptr<Peer>> peers_;
  /// Node -> owning peer (nullptr for local nodes).
  std::map<NodeId, Peer*> peer_of_node_;

  /// Receive watermarks keyed by peer endpoint address.
  struct InStream {
    uint64_t incarnation = 0;
    uint64_t watermark = 0;
  };
  std::map<std::string, InStream> inbound_;  // loop thread only

  std::vector<std::unique_ptr<InConn>> accepted_;  // loop thread only

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  /// Wake elision: set before writing the self-pipe, cleared by the loop
  /// right after draining it. Back-to-back Ship() calls between two loop
  /// wakeups then cost one pipe write total instead of one each.
  std::atomic<bool> wake_pending_{false};
  std::thread loop_;
  std::atomic<bool> running_{false};
  std::atomic<bool> shut_down_{false};

  mutable std::mutex state_mu_;  // guards peers_' mutable state
  std::condition_variable state_cv_;

  std::atomic<int64_t> frames_sent_{0};
  std::atomic<int64_t> frames_delivered_{0};
  std::atomic<int64_t> frames_deduped_{0};
  std::atomic<int64_t> frames_replayed_{0};
  std::atomic<int64_t> frames_batched_{0};
  std::atomic<int64_t> batches_sent_{0};
  std::atomic<int64_t> bytes_sent_{0};
  std::atomic<int64_t> write_syscalls_{0};
  std::atomic<int64_t> connects_{0};
  std::atomic<int64_t> reconnects_{0};
};

}  // namespace crew::net

#endif  // CREW_NET_SOCKET_TRANSPORT_H_
