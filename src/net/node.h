#ifndef CREW_NET_NODE_H_
#define CREW_NET_NODE_H_

#include <chrono>
#include <memory>
#include <vector>

#include "net/socket_transport.h"
#include "net/topology.h"
#include "rt/runtime.h"

namespace crew::net {

/// One endpoint of a multi-process deployment: an rt::Runtime hosting the
/// topology's local node subset, wired to a SocketTransport for every
/// other node id. The transport is installed as the runtime's
/// RemoteRouter, so unmodified engines/agents send through their normal
/// Context and the runtime routes off-process destinations onto sockets;
/// inbound frames re-enter through Runtime::DeliverRemote (the
/// non-blocking ForcePush path, so the poll loop can never deadlock
/// against a full mailbox).
///
/// Lifecycle mirrors rt::Runtime: construct -> Bind() -> assemble the
/// node fragment via runtime().ContextFor() -> Start() -> WaitConnected()
/// -> drive load -> cluster-level quiesce -> Shutdown().
class NetNode {
 public:
  NetNode(const Topology& topology, const Endpoint& self,
          rt::RuntimeOptions runtime_options = {},
          SocketTransportOptions transport_options = {});

  NetNode(const NetNode&) = delete;
  NetNode& operator=(const NetNode&) = delete;
  ~NetNode();

  /// Binds the listening socket. Call on every endpoint before any
  /// Start() so no first dial can race an unbound listener.
  Status Bind();

  /// Starts the runtime workers, then the transport's poll loop.
  void Start();

  bool WaitConnected(std::chrono::milliseconds timeout);

  /// True when this endpoint contributes nothing to cluster work: the
  /// runtime is quiet and no outbound frame is held, queued or unacked.
  bool LooksQuiet() const;
  /// This endpoint's share of the cluster admission counter.
  int64_t AdmittedWork() const;

  /// Transport first (stop inbound), then runtime. Idempotent.
  void Shutdown();

  rt::Runtime& runtime() { return runtime_; }
  const rt::Runtime& runtime() const { return runtime_; }
  SocketTransport& transport() { return *transport_; }
  const Endpoint& self() const { return transport_->self(); }

 private:
  rt::Runtime runtime_;
  std::unique_ptr<SocketTransport> transport_;
  bool started_ = false;
  bool shut_down_ = false;
};

}  // namespace crew::net

#endif  // CREW_NET_NODE_H_
