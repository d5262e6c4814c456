#include "net/socket_transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace crew::net {

namespace {
/// Target size of the per-connection staging buffer: retained frames are
/// appended to it in chunks this big, so a long parked backlog never
/// sits in the buffer twice.
constexpr size_t kWriteChunk = 256 * 1024;

void SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void SetCloexec(int fd) {
  int flags = fcntl(fd, F_GETFD, 0);
  if (flags >= 0) fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

/// FNV-1a over the endpoint address, folded to 16 bits — the endpoint
/// part of a trace id. Collisions across endpoints would only merge two
/// id spaces visually; the per-endpoint counter still keeps ids unique
/// within each process.
uint64_t EndpointHash16(const std::string& address) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : address) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return (h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48)) & 0xffffull;
}
}  // namespace

/// Outbound link to one remote endpoint. All mutable fields are guarded
/// by SocketTransport::state_mu_ (workers enqueue, the loop thread
/// writes); the loop thread alone touches the fd lifecycle.
struct SocketTransport::Peer {
  Endpoint endpoint;
  std::string address;

  int fd = -1;
  bool connecting = false;  ///< non-blocking connect in flight
  bool connected = false;   ///< HELLO primed; write path open
  bool ever_connected = false;  ///< a later connection is a reconnect
  int consecutive_failures = 0;
  int backoff_ms = 0;
  int64_t next_dial_ms = 0;  ///< earliest next dial, ms since start

  /// TCP hostname resolution. `needs_resolve` is set at construction
  /// (non-numeric host); the cache fields are loop-thread-only and
  /// written OUTSIDE state_mu_ — getaddrinfo can block for seconds and
  /// must never stall workers waiting on the lock.
  bool needs_resolve = false;
  bool addr_resolved = false;
  in_addr resolved_addr{};

  /// DATA frames retained until the peer's cumulative ACK covers them.
  /// [0, unsent_index) are committed to the current connection;
  /// [unsent_index, ...) still need writing. A reconnect rewinds
  /// unsent_index to 0 — the whole window replays.
  struct Retained {
    uint64_t seq = 0;
    NodeId to = kInvalidNode;
    std::string bytes;
  };
  std::deque<Retained> retained;
  size_t unsent_index = 0;
  size_t retained_bytes = 0;
  uint64_t next_seq = 1;
  /// Highest seq ever written to any connection: staging a frame at or
  /// below it means a reconnect is replaying the unacked window.
  uint64_t sent_high_seq = 0;

  /// Frames to explicitly-downed destination nodes, parked *before*
  /// sequencing so per-pair order survives the park (rt's parked queue,
  /// sender-side). Keyed by destination, flushed in arrival order.
  std::map<NodeId, std::deque<sim::Message>> held;
  size_t held_bytes = 0;

  /// Bytes staged for the current connection (HELLO + ACKs + frames).
  std::string write_buffer;
  size_t write_offset = 0;

  bool WantsWrite() const {
    return connected && (write_offset < write_buffer.size() ||
                         unsent_index < retained.size());
  }
  size_t BacklogBytes() const { return retained_bytes + held_bytes; }
};

/// One accepted (inbound) connection; identity learned from its HELLO.
struct SocketTransport::InConn {
  int fd = -1;
  FrameDecoder decoder;
  std::string peer_address;  ///< empty until the HELLO arrives
  bool broken = false;
};

SocketTransport::SocketTransport(Topology topology, Endpoint self,
                                 DeliverFn deliver,
                                 SocketTransportOptions options)
    : topology_(std::move(topology)),
      self_(std::move(self)),
      deliver_(std::move(deliver)),
      options_(options) {
  for (const auto& [id, endpoint] : topology_.nodes()) {
    if (endpoint == self_) {
      local_nodes_.insert(id);
      peer_of_node_[id] = nullptr;
      continue;
    }
    auto& peer = peers_[endpoint.Address()];
    if (peer == nullptr) {
      peer = std::make_unique<Peer>();
      peer->endpoint = endpoint;
      peer->address = endpoint.Address();
      peer->backoff_ms = options_.reconnect_initial_ms;
      if (endpoint.kind == Endpoint::Kind::kTcp) {
        in_addr parsed{};
        peer->needs_resolve =
            inet_pton(AF_INET, endpoint.host.c_str(), &parsed) != 1;
      }
    }
    peer_of_node_[id] = peer.get();
  }
}

SocketTransport::~SocketTransport() { Shutdown(); }

void SocketTransport::InstallTelemetry(obs::Tracer* tracer,
                                       std::function<int64_t()> clock) {
  tracer_ = tracer;
  clock_ = std::move(clock);
  trace_endpoint_bits_ = EndpointHash16(self_.Address()) << 48;
}

int64_t SocketTransport::NowMs() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status SocketTransport::Bind() {
  if (listen_fd_ >= 0) return Status::OK();
  if (self_.kind == Endpoint::Kind::kUnix) {
    listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Status::Unavailable("socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (self_.path.size() >= sizeof(addr.sun_path)) {
      close(listen_fd_);
      listen_fd_ = -1;
      return Status::InvalidArgument("unix path too long: " + self_.path);
    }
    std::strncpy(addr.sun_path, self_.path.c_str(),
                 sizeof(addr.sun_path) - 1);
    unlink(self_.path.c_str());  // stale socket from a previous run
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
      close(listen_fd_);
      listen_fd_ = -1;
      return Status::Unavailable("bind(" + self_.path +
                                 "): " + std::strerror(errno));
    }
  } else {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Status::Unavailable("socket() failed");
    int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(self_.port));
    if (inet_pton(AF_INET, self_.host.c_str(), &addr.sin_addr) != 1) {
      addr.sin_addr.s_addr = htonl(INADDR_ANY);
    }
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
      close(listen_fd_);
      listen_fd_ = -1;
      return Status::Unavailable("bind(" + self_.Address() +
                                 "): " + std::strerror(errno));
    }
  }
  if (listen(listen_fd_, 64) != 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable("listen failed: " +
                               std::string(std::strerror(errno)));
  }
  SetNonBlocking(listen_fd_);
  SetCloexec(listen_fd_);
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    return Status::Unavailable("pipe failed");
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  SetNonBlocking(wake_read_fd_);
  SetNonBlocking(wake_write_fd_);
  SetCloexec(wake_read_fd_);
  SetCloexec(wake_write_fd_);
  return Status::OK();
}

void SocketTransport::Start() {
  if (running_.exchange(true)) return;
  loop_ = std::thread(&SocketTransport::LoopThread, this);
}

bool SocketTransport::WaitConnected(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(state_mu_);
  return state_cv_.wait_for(lock, timeout, [this]() {
    for (const auto& [address, peer] : peers_) {
      if (!peer->connected) return false;
    }
    return true;
  });
}

void SocketTransport::Shutdown() {
  if (shut_down_.exchange(true)) return;
  state_cv_.notify_all();
  WakeLoop();
  if (loop_.joinable()) loop_.join();
  running_.store(false);
  for (auto& [address, peer] : peers_) {
    if (peer->fd >= 0) close(peer->fd);
    peer->fd = -1;
  }
  for (auto& conn : accepted_) {
    if (conn->fd >= 0) close(conn->fd);
  }
  accepted_.clear();
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
  if (wake_read_fd_ >= 0) close(wake_read_fd_);
  if (wake_write_fd_ >= 0) close(wake_write_fd_);
  wake_read_fd_ = wake_write_fd_ = -1;
  if (self_.kind == Endpoint::Kind::kUnix) unlink(self_.path.c_str());
}

void SocketTransport::Register(NodeId id, sim::MessageHandler* handler) {
  handlers_[id] = handler;
}

void SocketTransport::SetNodeDown(NodeId id, bool down) {
  Peer* peer = PeerOf(id);
  if (peer == nullptr) return;  // local/unknown: nothing to mark here
  std::lock_guard<std::mutex> lock(state_mu_);
  bool was_down = explicit_down_.count(id) != 0;
  if (down == was_down) return;
  if (down) {
    explicit_down_.insert(id);
    return;
  }
  explicit_down_.erase(id);
  // Recovery: promote the held backlog into the sequenced stream, in
  // arrival order, ahead of any later send (we hold the lock).
  auto it = peer->held.find(id);
  if (it != peer->held.end()) {
    for (sim::Message& message : it->second) {
      Frame frame;
      frame.kind = Frame::Kind::kData;
      frame.seq = peer->next_seq++;
      frame.message = std::move(message);
      Peer::Retained retained;
      retained.seq = frame.seq;
      retained.to = frame.message.to;
      retained.bytes = EncodeFrame(frame);
      peer->held_bytes -= frame.message.payload.size();
      peer->retained_bytes += retained.bytes.size();
      peer->retained.push_back(std::move(retained));
    }
    peer->held.erase(it);
  }
  WakeLoop();
}

bool SocketTransport::IsNodeDown(NodeId id) const {
  Peer* peer = PeerOf(id);
  if (peer == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_mu_);
  if (explicit_down_.count(id) != 0) return true;
  return peer->consecutive_failures >= options_.down_after_failures;
}

Status SocketTransport::Send(sim::Message message) {
  auto handler = handlers_.find(message.to);
  if (handler != handlers_.end() && local_nodes_.count(message.to) != 0) {
    // Transport-level loopback (tests without a runtime): dispatch
    // inline on the calling thread.
    handler->second->HandleMessage(message);
    return Status::OK();
  }
  return Ship(message);
}

SocketTransport::Peer* SocketTransport::PeerOf(NodeId id) const {
  auto it = peer_of_node_.find(id);
  return it == peer_of_node_.end() ? nullptr : it->second;
}

Status SocketTransport::Ship(sim::Message& message) {
  auto it = peer_of_node_.find(message.to);
  if (it == peer_of_node_.end()) {
    return Status::NotFound("no endpoint hosts node " +
                            std::to_string(message.to));
  }
  Peer* peer = it->second;
  if (peer == nullptr) {
    return Status::NotFound("node " + std::to_string(message.to) +
                            " is local; refusing socket loopback");
  }
  // Oversize messages are rejected at admission: once retained, a frame
  // the decoder would reject as corrupt replays on every reconnect and
  // wedges the stream (plus everything queued behind it) permanently.
  Status shippable = CheckShippable(message);
  if (!shippable.ok()) return shippable;
  if (tracer_ != nullptr && tracer_->enabled() && message.trace_id == 0) {
    // Assign the cross-process trace id here, at admission, so a held
    // (explicit-down) message keeps its id and the flow span covers the
    // parked window too. Layout: [endpoint hash:16][incarnation:16]
    // [counter:32] — a restarted process can never mint an id that
    // pairs with a begin record from its previous life.
    message.trace_id =
        trace_endpoint_bits_ |
        ((options_.incarnation & 0xffffull) << 32) |
        (trace_counter_.fetch_add(1, std::memory_order_relaxed) + 1);
    message.trace_sent_ticks = clock_ ? clock_() : -1;
    tracer_->FlowBegin(
        obs::SpanKind::kMessage, message.from, message.trace_id,
        "msg:" + message.type,
        message.trace_sent_ticks >= 0 ? message.trace_sent_ticks
                                      : tracer_->now(),
        static_cast<int>(message.category),
        std::to_string(message.from) + "->" + std::to_string(message.to));
  }
  {
    std::unique_lock<std::mutex> lock(state_mu_);
    // Bounded backpressure: block while the peer's backlog (retained +
    // held) is over the cap. Acks and recoveries drain it.
    state_cv_.wait(lock, [this, peer]() {
      return shut_down_.load() ||
             peer->BacklogBytes() < options_.max_outbound_bytes;
    });
    if (shut_down_.load()) {
      return Status::Unavailable("transport shut down");
    }
    if (explicit_down_.count(message.to) != 0) {
      peer->held_bytes += message.payload.size();
      peer->held[message.to].push_back(std::move(message));
      return Status::OK();
    }
    Frame frame;
    frame.kind = Frame::Kind::kData;
    frame.seq = peer->next_seq++;
    frame.message = std::move(message);
    Peer::Retained retained;
    retained.seq = frame.seq;
    retained.to = frame.message.to;
    retained.bytes = EncodeFrame(frame);
    peer->retained_bytes += retained.bytes.size();
    peer->retained.push_back(std::move(retained));
  }
  WakeLoop();
  return Status::OK();
}

void SocketTransport::WakeLoop() {
  if (wake_write_fd_ < 0) return;
  // Elide the pipe write when a wake is already pending: the loop clears
  // the flag right after draining the pipe, so a set flag means the loop
  // has a wakeup in flight that will observe this call's enqueued work.
  if (wake_pending_.exchange(true, std::memory_order_acq_rel)) return;
  char byte = 1;
  ssize_t ignored = write(wake_write_fd_, &byte, 1);
  (void)ignored;  // pipe full => the loop is waking anyway
}

void SocketTransport::DialLocked(Peer* peer, int64_t now_ms) {
  int fd;
  if (peer->endpoint.kind == Endpoint::Kind::kUnix) {
    fd = socket(AF_UNIX, SOCK_STREAM, 0);
  } else {
    fd = socket(AF_INET, SOCK_STREAM, 0);
  }
  if (fd < 0) {
    peer->next_dial_ms = now_ms + peer->backoff_ms;
    return;
  }
  SetNonBlocking(fd);
  SetCloexec(fd);
  int rc;
  if (peer->endpoint.kind == Endpoint::Kind::kUnix) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, peer->endpoint.path.c_str(),
                 sizeof(addr.sun_path) - 1);
    rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } else {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(peer->endpoint.port));
    if (peer->needs_resolve) {
      // Resolution happens in ResolveDueHostnames, outside state_mu_;
      // an unresolved hostname here means it failed this round.
      if (!peer->addr_resolved) {
        close(fd);
        ++peer->consecutive_failures;
        peer->next_dial_ms = now_ms + peer->backoff_ms;
        peer->backoff_ms =
            std::min(peer->backoff_ms * 2, options_.reconnect_max_ms);
        return;
      }
      addr.sin_addr = peer->resolved_addr;
    } else {
      inet_pton(AF_INET, peer->endpoint.host.c_str(), &addr.sin_addr);
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  }
  if (rc == 0) {
    peer->fd = fd;
    peer->connecting = false;
    OnConnected(peer);
    return;
  }
  if (errno == EINPROGRESS) {
    peer->fd = fd;
    peer->connecting = true;
    return;
  }
  close(fd);
  ++peer->consecutive_failures;
  peer->next_dial_ms = now_ms + peer->backoff_ms;
  peer->backoff_ms =
      std::min(peer->backoff_ms * 2, options_.reconnect_max_ms);
}

void SocketTransport::ResolveDueHostnames(int64_t now_ms) {
  // Collect the peers whose dial is due but whose hostname is still
  // unresolved, then run the (potentially seconds-long) getaddrinfo
  // calls without state_mu_ so Ship/IsNodeDown/WaitConnected never
  // block behind DNS. The cache fields are loop-thread-only.
  std::vector<Peer*> unresolved;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    for (auto& [address, peer] : peers_) {
      if (peer->fd < 0 && peer->needs_resolve && !peer->addr_resolved &&
          now_ms >= peer->next_dial_ms) {
        unresolved.push_back(peer.get());
      }
    }
  }
  for (Peer* peer : unresolved) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* result = nullptr;
    if (getaddrinfo(peer->endpoint.host.c_str(), nullptr, &hints,
                    &result) == 0 &&
        result != nullptr) {
      peer->resolved_addr =
          reinterpret_cast<sockaddr_in*>(result->ai_addr)->sin_addr;
      peer->addr_resolved = true;
    } else {
      std::lock_guard<std::mutex> lock(state_mu_);
      ++peer->consecutive_failures;
      peer->next_dial_ms = NowMs() + peer->backoff_ms;
      peer->backoff_ms =
          std::min(peer->backoff_ms * 2, options_.reconnect_max_ms);
    }
    if (result != nullptr) freeaddrinfo(result);
  }
}

void SocketTransport::OnConnected(Peer* peer) {
  peer->connecting = false;
  peer->connected = true;
  peer->consecutive_failures = 0;
  peer->backoff_ms = options_.reconnect_initial_ms;
  (peer->ever_connected ? reconnects_ : connects_)
      .fetch_add(1, std::memory_order_relaxed);
  peer->ever_connected = true;
  // Fresh connection protocol: HELLO, the reverse-direction ACK (so a
  // restarted peer learns what already landed here), then the retained
  // window from the beginning.
  peer->write_buffer.clear();
  peer->write_offset = 0;
  peer->unsent_index = 0;
  Frame hello;
  hello.kind = Frame::Kind::kHello;
  hello.endpoint = self_.Address();
  hello.incarnation = options_.incarnation;
  if (clock_) hello.sent_ticks = clock_();
  peer->write_buffer += EncodeFrame(hello);
  auto in = inbound_.find(peer->address);
  if (in != inbound_.end()) {
    Frame ack;
    ack.kind = Frame::Kind::kAck;
    ack.watermark = in->second.watermark;
    // Scope the ACK to the incarnation we last heard from: if the peer
    // restarted and its HELLO hasn't reached us yet, this watermark
    // still describes the OLD sequence space and the restarted peer
    // must ignore it rather than discard fresh frames.
    ack.incarnation = in->second.incarnation;
    peer->write_buffer += EncodeFrame(ack);
  }
  state_cv_.notify_all();
}

void SocketTransport::OnConnectionBroken(Peer* peer, int64_t now_ms) {
  if (peer->fd >= 0) close(peer->fd);
  peer->fd = -1;
  bool was_connected = peer->connected;
  peer->connected = false;
  peer->connecting = false;
  peer->write_buffer.clear();
  peer->write_offset = 0;
  // Rewind: everything unacked replays on the next connection.
  peer->unsent_index = 0;
  if (!was_connected) ++peer->consecutive_failures;
  peer->next_dial_ms = now_ms + peer->backoff_ms;
  peer->backoff_ms =
      std::min(std::max(peer->backoff_ms, 1) * 2,
               options_.reconnect_max_ms);
}

void SocketTransport::FlushWrites(Peer* peer) {
  // Called with state_mu_ held, loop thread only.
  for (;;) {
    if (peer->write_offset == peer->write_buffer.size()) {
      peer->write_buffer.clear();
      peer->write_offset = 0;
      // Stage unsent retained frames, coalescing each run of >= 2 frames
      // under one kBatch superframe so a poll wakeup's worth of small
      // DATA frames costs one envelope (and, below, one write syscall).
      while (peer->unsent_index < peer->retained.size() &&
             peer->write_buffer.size() < kWriteChunk) {
        // First pass: how many frames go into this batch?
        size_t count = 0;
        size_t inner_bytes = 0;
        for (size_t i = peer->unsent_index; i < peer->retained.size(); ++i) {
          if (explicit_down_.count(peer->retained[i].to) != 0) {
            // A sequenced frame to an explicitly-down node: hold the
            // whole stream here (later frames must not overtake it).
            break;
          }
          size_t size = peer->retained[i].bytes.size();
          if (count > 0 && inner_bytes + size > options_.batch_max_bytes) break;
          ++count;
          inner_bytes += size;
          if (inner_bytes >= options_.batch_max_bytes) break;
        }
        if (count == 0) break;  // stream held at its head
        if (count > 1) {
          AppendBatchHeader(&peer->write_buffer, count, inner_bytes);
          frames_batched_.fetch_add(count, std::memory_order_relaxed);
          batches_sent_.fetch_add(1, std::memory_order_relaxed);
        }
        for (size_t k = 0; k < count; ++k) {
          const Peer::Retained& next = peer->retained[peer->unsent_index];
          if (next.seq <= peer->sent_high_seq) {
            frames_replayed_.fetch_add(1, std::memory_order_relaxed);
          } else {
            peer->sent_high_seq = next.seq;
          }
          peer->write_buffer += next.bytes;
          ++peer->unsent_index;
          frames_sent_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (peer->write_buffer.empty()) return;
    }
    ssize_t n = write(peer->fd, peer->write_buffer.data() + peer->write_offset,
                      peer->write_buffer.size() - peer->write_offset);
    if (n > 0) {
      peer->write_offset += static_cast<size_t>(n);
      bytes_sent_.fetch_add(n, std::memory_order_relaxed);
      write_syscalls_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    OnConnectionBroken(peer, NowMs());
    return;
  }
}

void SocketTransport::QueueAckLocked(const std::string& endpoint_address,
                                     uint64_t watermark,
                                     uint64_t incarnation) {
  auto it = peers_.find(endpoint_address);
  if (it == peers_.end()) return;
  Peer* peer = it->second.get();
  if (!peer->connected) return;  // the reconnect ACK will carry it
  Frame ack;
  ack.kind = Frame::Kind::kAck;
  ack.watermark = watermark;
  ack.incarnation = incarnation;
  peer->write_buffer += EncodeFrame(ack);
}

void SocketTransport::HandleInboundFrame(InConn* conn, Frame frame) {
  switch (frame.kind) {
    case Frame::Kind::kHello: {
      conn->peer_address = frame.endpoint;
      InStream& stream = inbound_[frame.endpoint];
      if (stream.incarnation != frame.incarnation) {
        // New process generation: its sequence space restarted.
        stream.incarnation = frame.incarnation;
        stream.watermark = 0;
      }
      if (frame.sent_ticks >= 0 && clock_) {
        // One clock sample per connection establishment. Keep the
        // exchange with the smallest apparent gap — least in-flight
        // delay, tightest offset bound.
        int64_t local = clock_();
        std::lock_guard<std::mutex> lock(state_mu_);
        ClockSample& sample =
            clock_samples_[{frame.endpoint, frame.incarnation}];
        bool better =
            sample.count == 0 ||
            local - frame.sent_ticks <
                sample.local_recv_ticks - sample.remote_sent_ticks;
        if (better) {
          sample.remote_sent_ticks = frame.sent_ticks;
          sample.local_recv_ticks = local;
        }
        sample.peer = frame.endpoint;
        sample.peer_incarnation = frame.incarnation;
        ++sample.count;
      }
      return;
    }
    case Frame::Kind::kAck: {
      if (conn->peer_address.empty()) return;  // protocol error: pre-HELLO
      if (frame.incarnation != options_.incarnation) {
        // The peer acked a previous incarnation of this endpoint (its
        // reconnect ACK raced our HELLO). Its watermark lives in a
        // sequence space this process never used — applying it would
        // discard fresh frames. The peer re-acks after our HELLO lands.
        return;
      }
      std::lock_guard<std::mutex> lock(state_mu_);
      auto it = peers_.find(conn->peer_address);
      if (it == peers_.end()) return;
      Peer* peer = it->second.get();
      while (!peer->retained.empty() &&
             peer->retained.front().seq <= frame.watermark) {
        peer->retained_bytes -= peer->retained.front().bytes.size();
        // A frame never staged (acks outran a held stream) leaves the
        // index at 0.
        if (peer->unsent_index > 0) --peer->unsent_index;
        peer->retained.pop_front();
      }
      state_cv_.notify_all();  // backpressure waiters and Idle pollers
      return;
    }
    case Frame::Kind::kData: {
      if (conn->peer_address.empty()) {
        conn->broken = true;  // DATA before HELLO: drop the connection
        return;
      }
      InStream& stream = inbound_[conn->peer_address];
      if (frame.seq <= stream.watermark) {
        frames_deduped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      stream.watermark = frame.seq;
      frames_delivered_.fetch_add(1, std::memory_order_relaxed);
      if (deliver_) {
        deliver_(std::move(frame.message));
      } else {
        auto handler = handlers_.find(frame.message.to);
        if (handler != handlers_.end()) {
          handler->second->HandleMessage(frame.message);
        } else {
          CREW_LOG(Warn) << "net: dropping frame for unhandled node "
                         << frame.message.to;
        }
      }
      return;
    }
    default:
      // Unreachable: FrameDecoder normalizes wire kinds (binary
      // hello/ack/data, batch) to the three logical kinds above.
      return;
  }
}

void SocketTransport::ReadInbound(InConn* conn) {
  char buffer[64 * 1024];
  uint64_t advanced_to = 0;
  uint64_t advanced_incarnation = 0;
  bool have_advance = false;
  std::string advance_address;
  for (;;) {
    ssize_t n = read(conn->fd, buffer, sizeof(buffer));
    if (n > 0) {
      conn->decoder.Feed(std::string_view(buffer, static_cast<size_t>(n)));
      Frame frame;
      while (conn->decoder.Next(&frame)) {
        bool was_data = frame.kind == Frame::Kind::kData;
        HandleInboundFrame(conn, std::move(frame));
        if (conn->broken) return;
        if (was_data) {
          have_advance = true;
          advance_address = conn->peer_address;
          const InStream& stream = inbound_[conn->peer_address];
          advanced_to = stream.watermark;
          advanced_incarnation = stream.incarnation;
        }
      }
      if (!conn->decoder.ok()) {
        CREW_LOG(Error) << "net: corrupt stream from "
                        << conn->peer_address << ": "
                        << conn->decoder.status().ToString();
        conn->broken = true;
        return;
      }
      if (static_cast<size_t>(n) < sizeof(buffer)) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    conn->broken = true;  // EOF or error
    break;
  }
  if (have_advance) {
    // Cumulative ack for everything this drain delivered.
    std::lock_guard<std::mutex> lock(state_mu_);
    QueueAckLocked(advance_address, advanced_to, advanced_incarnation);
  }
}

void SocketTransport::LoopThread() {
  while (!shut_down_.load(std::memory_order_acquire)) {
    std::vector<pollfd> fds;
    std::vector<Peer*> poll_peers;
    std::vector<InConn*> poll_conns;
    int64_t now_ms = NowMs();
    int64_t next_dial = -1;
    ResolveDueHostnames(now_ms);
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      for (auto& [address, peer] : peers_) {
        if (peer->fd < 0) {
          if (now_ms >= peer->next_dial_ms) DialLocked(peer.get(), now_ms);
        }
        if (peer->fd < 0) {
          next_dial = next_dial < 0
                          ? peer->next_dial_ms
                          : std::min(next_dial, peer->next_dial_ms);
          continue;
        }
        short events = POLLIN;  // EOF detection on the simplex link
        if (peer->connecting || peer->WantsWrite()) {
          events |= POLLOUT;
        }
        fds.push_back(pollfd{peer->fd, events, 0});
        poll_peers.push_back(peer.get());
      }
    }
    size_t peer_count = fds.size();
    fds.push_back(pollfd{wake_read_fd_, POLLIN, 0});
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (auto& conn : accepted_) {
      fds.push_back(pollfd{conn->fd, POLLIN, 0});
      poll_conns.push_back(conn.get());
    }
    int timeout_ms = -1;
    if (next_dial >= 0) {
      timeout_ms = static_cast<int>(std::max<int64_t>(1, next_dial - now_ms));
    }
    int rc = poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) break;
    if (shut_down_.load(std::memory_order_acquire)) break;
    now_ms = NowMs();

    // Wake pipe: drain, then clear the elision flag. Order matters — the
    // flag must only clear once the pipe byte (if any) is consumed, and
    // it must clear unconditionally BEFORE peers are processed: a
    // WakeLoop call elided during this window has its work observed by
    // the processing below, and a later call writes a fresh byte.
    if (fds[peer_count].revents & POLLIN) {
      char scratch[256];
      while (read(wake_read_fd_, scratch, sizeof(scratch)) > 0) {
      }
    }
    wake_pending_.store(false, std::memory_order_release);

    // Peers: connect completion, EOF, writes.
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      for (size_t i = 0; i < peer_count; ++i) {
        Peer* peer = poll_peers[i];
        if (peer->fd != fds[i].fd) continue;  // broken and re-dialed
        short revents = fds[i].revents;
        if (peer->connecting) {
          if (revents & (POLLOUT | POLLERR | POLLHUP)) {
            int err = 0;
            socklen_t len = sizeof(err);
            getsockopt(peer->fd, SOL_SOCKET, SO_ERROR, &err, &len);
            if (err == 0) {
              OnConnected(peer);
            } else {
              OnConnectionBroken(peer, now_ms);
              continue;
            }
          } else {
            continue;
          }
        }
        if (revents & (POLLERR | POLLHUP)) {
          OnConnectionBroken(peer, now_ms);
          continue;
        }
        if (revents & POLLIN) {
          // The peer never writes on our outbound link: readable means
          // EOF (it died) or junk; either way the link is gone.
          char scratch[256];
          ssize_t n = read(peer->fd, scratch, sizeof(scratch));
          if (n <= 0 && !(n < 0 && (errno == EAGAIN ||
                                    errno == EWOULDBLOCK))) {
            OnConnectionBroken(peer, now_ms);
            continue;
          }
        }
        if (peer->WantsWrite()) FlushWrites(peer);
      }
      // Enqueued sends may have arrived while we polled.
      for (auto& [address, peer] : peers_) {
        if (peer->fd < 0 || peer->connecting) continue;
        if (peer->WantsWrite()) FlushWrites(peer.get());
      }
    }

    // Listener: accept everything pending.
    if (fds[peer_count + 1].revents & POLLIN) {
      for (;;) {
        int fd = accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        SetNonBlocking(fd);
        SetCloexec(fd);
        if (self_.kind == Endpoint::Kind::kTcp) {
          int one = 1;
          setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        }
        auto conn = std::make_unique<InConn>();
        conn->fd = fd;
        accepted_.push_back(std::move(conn));
      }
    }

    // Inbound connections: read and dispatch.
    for (size_t i = 0; i < poll_conns.size(); ++i) {
      short revents = fds[peer_count + 2 + i].revents;
      if (revents & (POLLIN | POLLERR | POLLHUP)) {
        ReadInbound(poll_conns[i]);
      }
    }
    accepted_.erase(
        std::remove_if(accepted_.begin(), accepted_.end(),
                       [](const std::unique_ptr<InConn>& conn) {
                         if (!conn->broken) return false;
                         close(conn->fd);
                         return true;
                       }),
        accepted_.end());
  }
}

bool SocketTransport::Idle() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  for (const auto& [address, peer] : peers_) {
    if (!peer->retained.empty() || peer->held_bytes != 0) return false;
    if (peer->write_offset < peer->write_buffer.size()) return false;
  }
  return true;
}

SocketTransportStats SocketTransport::Stats() const {
  SocketTransportStats stats;
  stats.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  stats.frames_delivered =
      frames_delivered_.load(std::memory_order_relaxed);
  stats.frames_deduped = frames_deduped_.load(std::memory_order_relaxed);
  stats.frames_replayed =
      frames_replayed_.load(std::memory_order_relaxed);
  stats.frames_batched = frames_batched_.load(std::memory_order_relaxed);
  stats.batches_sent = batches_sent_.load(std::memory_order_relaxed);
  stats.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  stats.write_syscalls = write_syscalls_.load(std::memory_order_relaxed);
  stats.connects = connects_.load(std::memory_order_relaxed);
  stats.reconnects = reconnects_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(state_mu_);
  for (const auto& [address, peer] : peers_) {
    stats.retained_bytes += static_cast<int64_t>(peer->retained_bytes);
    stats.held_bytes += static_cast<int64_t>(peer->held_bytes);
  }
  return stats;
}

std::vector<ClockSample> SocketTransport::ClockSamples() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  std::vector<ClockSample> out;
  out.reserve(clock_samples_.size());
  for (const auto& [key, sample] : clock_samples_) out.push_back(sample);
  return out;
}

std::vector<SocketTransportPeerStats> SocketTransport::PeerStats() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  std::vector<SocketTransportPeerStats> out;
  out.reserve(peers_.size());
  for (const auto& [address, peer] : peers_) {
    SocketTransportPeerStats s;
    s.peer = address;
    s.connected = peer->connected;
    s.next_seq = peer->next_seq;
    s.ack_lag_frames = static_cast<int64_t>(peer->retained.size());
    s.retained_bytes = static_cast<int64_t>(peer->retained_bytes);
    s.held_bytes = static_cast<int64_t>(peer->held_bytes);
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace crew::net
