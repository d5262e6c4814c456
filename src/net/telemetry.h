#ifndef CREW_NET_TELEMETRY_H_
#define CREW_NET_TELEMETRY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/socket_transport.h"
#include "obs/trace.h"
#include "rt/runtime.h"
#include "sim/metrics.h"

namespace crew::net {

/// One node process's telemetry document: the full sim::Metrics JSON
/// plus transport/runtime health gauges, as produced by
/// NodeTelemetryJson below and returned (prefixed with the schedule
/// state) by crew_node's `status` and `telemetry` control verbs.
struct NodeTelemetry {
  std::string endpoint;  ///< listening address of the node process
  std::string json;      ///< its NodeTelemetryJson document
};

/// Serializes one process's health into a single JSON object:
///
///   {"endpoint":…,"incarnation":…,
///    "transport":{frames_*, bytes_sent, write_syscalls,
///                 mean_frames_per_batch, bytes_per_syscall, connects,
///                 reconnects,
///                 retained_bytes_total, held_bytes_total,
///                 "peers":[{peer, connected, ack_lag_frames, …}]},
///    "runtime":{messages_delivered, messages_parked, timers_fired,
///               mailbox_parks, mailbox_depth, max_mailbox_depth},
///    "metrics":<sim::Metrics::ReportJson()>}
///
/// Every key is emitted in a fixed order, so two documents from the
/// same state are byte-identical (diffable, like ReportJson itself).
std::string NodeTelemetryJson(
    const std::string& endpoint, uint64_t incarnation,
    const sim::Metrics& metrics, const rt::RuntimeStats& runtime_stats,
    const SocketTransportStats& transport_stats,
    const std::vector<SocketTransportPeerStats>& peer_stats);

/// Finds the literal substring `anchor` in `json` and parses the
/// (possibly negative) integer immediately following it. Not a JSON
/// parser: callers pass anchors unique within the document, e.g.
/// "\"frames_replayed\":" or the two-level "\"messages\":{\"total\":".
/// Returns `fallback` when the anchor is absent or no digits follow.
int64_t ExtractJsonInt(const std::string& json, const std::string& anchor,
                       int64_t fallback = 0);

/// Cluster-level sums scraped out of a set of NodeTelemetry documents.
struct ClusterAggregate {
  int nodes = 0;  ///< documents aggregated
  // sim::Metrics sums (sender-side counting: no double count).
  int64_t messages_total = 0;
  int64_t message_bytes = 0;
  int64_t load_total = 0;
  // Transport sums.
  int64_t frames_sent = 0;
  int64_t frames_delivered = 0;
  int64_t frames_deduped = 0;
  int64_t frames_replayed = 0;
  int64_t frames_batched = 0;  ///< DATA frames that rode inside a batch
  int64_t batches_sent = 0;    ///< kBatch superframes emitted
  int64_t write_syscalls = 0;  ///< successful write() calls
  int64_t connects = 0;    ///< first connections to a peer
  int64_t reconnects = 0;  ///< later connections to a peer
  int64_t retained_bytes = 0;  ///< gauge, summed over nodes
  int64_t held_bytes = 0;      ///< gauge, summed over nodes
  // Runtime sums.
  int64_t messages_delivered = 0;
  int64_t messages_parked = 0;
  int64_t mailbox_parks = 0;
  int64_t mailbox_depth = 0;   ///< gauge, summed over nodes
  // Workflow outcome sums (the "wf.committed"/"wf.aborted" counters
  // bumped by the coordination authority at each terminal transition).
  int64_t wf_committed = 0;
  int64_t wf_aborted = 0;
};

ClusterAggregate AggregateTelemetry(const std::vector<NodeTelemetry>& nodes);

/// One-line rolling summary for the live --status-interval view:
///   "cluster n=3 msgs=1234 frames: sent=… dlv=… replay=… conn=… reconn=… …"
std::string AggregateSummaryLine(const ClusterAggregate& a);

/// Per-node one-liner (transport health) for the live view, scraped
/// from that node's telemetry document.
std::string NodeSummaryLine(const NodeTelemetry& node);

/// Merged cluster snapshot document:
///   {"aggregate":{…sums…},"placement":{…imbalance…},
///    "nodes":[<per-node documents verbatim>]}
std::string ClusterTelemetryJson(const std::vector<NodeTelemetry>& nodes);

/// Instances-placed-per-node, scraped from the "placement.wf.n<id>"
/// counters the workflow authorities bump at instance start. Nodes that
/// never hosted an instance do not appear.
std::map<NodeId, int64_t> PlacementCounts(
    const std::vector<NodeTelemetry>& nodes);

/// Load-imbalance summary of a PlacementCounts map. `expected_nodes` is
/// the number of nodes that *could* host instances (>= counts.size());
/// the mean divides by it so idle nodes count against balance. Pass 0
/// to use counts.size().
struct PlacementImbalance {
  int nodes = 0;        ///< nodes the mean divides by
  int64_t total = 0;    ///< instances placed cluster-wide
  int64_t max_count = 0;
  double mean = 0.0;
  double max_over_mean = 0.0;  ///< 1.0 = perfectly balanced; 0 = no data
};
PlacementImbalance ComputeImbalance(
    const std::map<NodeId, int64_t>& counts, int expected_nodes = 0);

/// Pools one named latency histogram across the documents into a single
/// exact merge, via the sparse [index,count] bucket pairs ReportJson
/// emits under "latencies". Percentiles of the result equal those of a
/// single histogram fed every sample.
obs::LatencyHistogram PooledLatency(const std::vector<NodeTelemetry>& nodes,
                                    const std::string& name);

}  // namespace crew::net

#endif  // CREW_NET_TELEMETRY_H_
