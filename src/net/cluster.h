#ifndef CREW_NET_CLUSTER_H_
#define CREW_NET_CLUSTER_H_

#include <chrono>
#include <memory>
#include <vector>

#include "net/node.h"
#include "net/topology.h"
#include "sim/metrics.h"

namespace crew::net {

/// In-process harness: one NetNode per distinct endpoint of a Topology,
/// talking over real sockets (loopback tests, benches). Gives socket
/// transport coverage without process management; crew_node/crew_launch
/// are the one-process-per-endpoint deployment of the same pieces.
class Cluster {
 public:
  explicit Cluster(Topology topology,
                   rt::RuntimeOptions runtime_options = {},
                   SocketTransportOptions transport_options = {});

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster();

  /// Binds every endpoint (all listeners up before any dial).
  Status Bind();
  /// Starts every runtime and transport.
  void Start();
  /// Waits until every endpoint is connected to every other.
  bool WaitConnected(std::chrono::milliseconds timeout);

  /// Cluster-wide quiescence: every runtime quiet AND every transport
  /// idle, swept twice around an unchanged total admission count — the
  /// distributed analogue of rt::Runtime::Quiesce. Requires external
  /// load to have stopped and all nodes up.
  void Quiesce();

  void Shutdown();

  NetNode* At(const Endpoint& endpoint);
  std::vector<NetNode*> nodes();

  /// Sum of every runtime's merged metrics. Call only after Quiesce()
  /// or Shutdown(). Because remote sends are counted in the *sender's*
  /// shard only, this equals the single-runtime metrics for the same
  /// workload.
  sim::Metrics MergedMetrics() const;

  const Topology& topology() const { return topology_; }

 private:
  Topology topology_;
  std::vector<std::unique_ptr<NetNode>> nodes_;
};

}  // namespace crew::net

#endif  // CREW_NET_CLUSTER_H_
