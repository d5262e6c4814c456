#include "net/telemetry.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "obs/trace.h"

namespace crew::net {

namespace {

/// Fixed two-decimal ratio (as a JSON number), 0.00 when divisor is 0.
std::string Ratio2(int64_t numer, int64_t denom) {
  char buf[32];
  double v = denom > 0 ? static_cast<double>(numer) / denom : 0.0;
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

}  // namespace

std::string NodeTelemetryJson(
    const std::string& endpoint, uint64_t incarnation,
    const sim::Metrics& metrics, const rt::RuntimeStats& runtime_stats,
    const SocketTransportStats& transport_stats,
    const std::vector<SocketTransportPeerStats>& peer_stats) {
  std::ostringstream os;
  os << "{\"endpoint\":\"" << obs::JsonEscape(endpoint) << "\""
     << ",\"incarnation\":" << incarnation;
  os << ",\"transport\":{"
     << "\"frames_sent\":" << transport_stats.frames_sent
     << ",\"frames_delivered\":" << transport_stats.frames_delivered
     << ",\"frames_deduped\":" << transport_stats.frames_deduped
     << ",\"frames_replayed\":" << transport_stats.frames_replayed
     << ",\"frames_batched\":" << transport_stats.frames_batched
     << ",\"batches_sent\":" << transport_stats.batches_sent
     << ",\"bytes_sent\":" << transport_stats.bytes_sent
     << ",\"write_syscalls\":" << transport_stats.write_syscalls
     << ",\"mean_frames_per_batch\":"
     << Ratio2(transport_stats.frames_batched, transport_stats.batches_sent)
     << ",\"bytes_per_syscall\":"
     << Ratio2(transport_stats.bytes_sent, transport_stats.write_syscalls)
     << ",\"connects\":" << transport_stats.connects
     << ",\"reconnects\":" << transport_stats.reconnects
     << ",\"retained_bytes_total\":" << transport_stats.retained_bytes
     << ",\"held_bytes_total\":" << transport_stats.held_bytes
     << ",\"peers\":[";
  bool first = true;
  for (const auto& p : peer_stats) {
    if (!first) os << ",";
    first = false;
    os << "{\"peer\":\"" << obs::JsonEscape(p.peer) << "\""
       << ",\"connected\":" << (p.connected ? "true" : "false")
       << ",\"next_seq\":" << p.next_seq
       << ",\"ack_lag_frames\":" << p.ack_lag_frames
       << ",\"retained_bytes\":" << p.retained_bytes
       << ",\"held_bytes\":" << p.held_bytes << "}";
  }
  os << "]}";
  os << ",\"runtime\":{"
     << "\"messages_delivered\":" << runtime_stats.messages_delivered
     << ",\"messages_parked\":" << runtime_stats.messages_parked
     << ",\"timers_fired\":" << runtime_stats.timers_fired
     << ",\"mailbox_parks\":" << runtime_stats.mailbox_parks
     << ",\"mailbox_depth\":" << runtime_stats.mailbox_depth
     << ",\"max_mailbox_depth\":" << runtime_stats.max_mailbox_depth
     << ",\"num_workers\":" << runtime_stats.num_workers << "}";
  os << ",\"metrics\":" << metrics.ReportJson() << "}";
  return os.str();
}

int64_t ExtractJsonInt(const std::string& json, const std::string& anchor,
                       int64_t fallback) {
  size_t pos = json.find(anchor);
  if (pos == std::string::npos) return fallback;
  pos += anchor.size();
  while (pos < json.size() &&
         (json[pos] == ' ' || json[pos] == '\t')) {
    ++pos;
  }
  bool negative = false;
  if (pos < json.size() && json[pos] == '-') {
    negative = true;
    ++pos;
  }
  if (pos >= json.size() || !std::isdigit(static_cast<unsigned char>(json[pos]))) {
    return fallback;
  }
  int64_t v = 0;
  while (pos < json.size() &&
         std::isdigit(static_cast<unsigned char>(json[pos]))) {
    v = v * 10 + (json[pos] - '0');
    ++pos;
  }
  return negative ? -v : v;
}

ClusterAggregate AggregateTelemetry(const std::vector<NodeTelemetry>& nodes) {
  ClusterAggregate a;
  for (const auto& node : nodes) {
    const std::string& j = node.json;
    ++a.nodes;
    a.messages_total += ExtractJsonInt(j, "\"messages\":{\"total\":");
    a.message_bytes += ExtractJsonInt(j, "\"bytes\":");
    a.load_total += ExtractJsonInt(j, "\"load\":{\"total\":");
    a.frames_sent += ExtractJsonInt(j, "\"frames_sent\":");
    a.frames_delivered += ExtractJsonInt(j, "\"frames_delivered\":");
    a.frames_deduped += ExtractJsonInt(j, "\"frames_deduped\":");
    a.frames_replayed += ExtractJsonInt(j, "\"frames_replayed\":");
    a.frames_batched += ExtractJsonInt(j, "\"frames_batched\":");
    a.batches_sent += ExtractJsonInt(j, "\"batches_sent\":");
    a.write_syscalls += ExtractJsonInt(j, "\"write_syscalls\":");
    a.connects += ExtractJsonInt(j, "\"connects\":");
    a.reconnects += ExtractJsonInt(j, "\"reconnects\":");
    a.retained_bytes += ExtractJsonInt(j, "\"retained_bytes_total\":");
    a.held_bytes += ExtractJsonInt(j, "\"held_bytes_total\":");
    a.messages_delivered += ExtractJsonInt(j, "\"messages_delivered\":");
    a.messages_parked += ExtractJsonInt(j, "\"messages_parked\":");
    a.mailbox_parks += ExtractJsonInt(j, "\"mailbox_parks\":");
    a.mailbox_depth += ExtractJsonInt(j, "\"mailbox_depth\":");
    a.wf_committed += ExtractJsonInt(j, "\"wf.committed\":");
    a.wf_aborted += ExtractJsonInt(j, "\"wf.aborted\":");
  }
  return a;
}

std::map<NodeId, int64_t> PlacementCounts(
    const std::vector<NodeTelemetry>& nodes) {
  static const std::string kAnchor = "\"placement.wf.n";
  std::map<NodeId, int64_t> counts;
  for (const auto& node : nodes) {
    const std::string& j = node.json;
    size_t pos = 0;
    while ((pos = j.find(kAnchor, pos)) != std::string::npos) {
      pos += kAnchor.size();
      size_t id_end = pos;
      while (id_end < j.size() &&
             std::isdigit(static_cast<unsigned char>(j[id_end]))) {
        ++id_end;
      }
      // Expect the counter's `":<value>` tail right after the node id.
      if (id_end == pos || j.compare(id_end, 2, "\":") != 0) continue;
      NodeId id = std::atoi(j.c_str() + pos);
      counts[id] += std::atoll(j.c_str() + id_end + 2);
      pos = id_end;
    }
  }
  return counts;
}

PlacementImbalance ComputeImbalance(const std::map<NodeId, int64_t>& counts,
                                    int expected_nodes) {
  PlacementImbalance im;
  im.nodes = std::max(expected_nodes, static_cast<int>(counts.size()));
  for (const auto& [id, n] : counts) {
    im.total += n;
    im.max_count = std::max(im.max_count, n);
  }
  if (im.nodes > 0 && im.total > 0) {
    im.mean = static_cast<double>(im.total) / im.nodes;
    im.max_over_mean = static_cast<double>(im.max_count) / im.mean;
  }
  return im;
}

obs::LatencyHistogram PooledLatency(const std::vector<NodeTelemetry>& nodes,
                                    const std::string& name) {
  obs::LatencyHistogram pooled(name);
  const std::string head = "\"" + name + "\":{";
  for (const auto& node : nodes) {
    const std::string& j = node.json;
    size_t pos = j.find(head);
    if (pos == std::string::npos) continue;
    size_t b = j.find("\"buckets\":[", pos);
    if (b == std::string::npos) continue;
    b += std::strlen("\"buckets\":[");
    // Sparse pairs: [index,count],[index,count],... up to the closing ]
    while (b < j.size() && j[b] == '[') {
      ++b;
      int index = std::atoi(j.c_str() + b);
      size_t comma = j.find(',', b);
      size_t close = j.find(']', b);
      if (comma == std::string::npos || close == std::string::npos ||
          comma > close) {
        break;
      }
      pooled.AddBucket(index, std::atoll(j.c_str() + comma + 1));
      b = close + 1;
      if (b < j.size() && j[b] == ',') ++b;
    }
  }
  return pooled;
}

std::string AggregateSummaryLine(const ClusterAggregate& a) {
  std::ostringstream os;
  os << "cluster n=" << a.nodes << " msgs=" << a.messages_total
     << " load=" << a.load_total << " frames: sent=" << a.frames_sent
     << " dlv=" << a.frames_delivered << " dup=" << a.frames_deduped
     << " replay=" << a.frames_replayed << " batch=" << a.frames_batched
     << "/" << a.batches_sent << " conn=" << a.connects
     << " reconn=" << a.reconnects
     << " retained=" << a.retained_bytes << "B held=" << a.held_bytes
     << "B mbox=" << a.mailbox_depth << " wf=" << a.wf_committed << "/"
     << a.wf_aborted;
  return os.str();
}

std::string NodeSummaryLine(const NodeTelemetry& node) {
  const std::string& j = node.json;
  std::ostringstream os;
  os << "  " << node.endpoint << ": sent="
     << ExtractJsonInt(j, "\"frames_sent\":")
     << " dlv=" << ExtractJsonInt(j, "\"frames_delivered\":")
     << " dup=" << ExtractJsonInt(j, "\"frames_deduped\":")
     << " replay=" << ExtractJsonInt(j, "\"frames_replayed\":")
     << " batch=" << ExtractJsonInt(j, "\"frames_batched\":")
     << "/" << ExtractJsonInt(j, "\"batches_sent\":")
     << " conn=" << ExtractJsonInt(j, "\"connects\":")
     << " reconn=" << ExtractJsonInt(j, "\"reconnects\":")
     << " retained=" << ExtractJsonInt(j, "\"retained_bytes_total\":")
     << "B held=" << ExtractJsonInt(j, "\"held_bytes_total\":")
     << "B mbox=" << ExtractJsonInt(j, "\"mailbox_depth\":")
     << " parks=" << ExtractJsonInt(j, "\"mailbox_parks\":");
  return os.str();
}

std::string ClusterTelemetryJson(const std::vector<NodeTelemetry>& nodes) {
  ClusterAggregate a = AggregateTelemetry(nodes);
  std::ostringstream os;
  os << "{\"aggregate\":{"
     << "\"nodes\":" << a.nodes
     << ",\"messages_total\":" << a.messages_total
     << ",\"message_bytes\":" << a.message_bytes
     << ",\"load_total\":" << a.load_total
     << ",\"frames_sent\":" << a.frames_sent
     << ",\"frames_delivered\":" << a.frames_delivered
     << ",\"frames_deduped\":" << a.frames_deduped
     << ",\"frames_replayed\":" << a.frames_replayed
     << ",\"frames_batched\":" << a.frames_batched
     << ",\"batches_sent\":" << a.batches_sent
     << ",\"write_syscalls\":" << a.write_syscalls
     << ",\"connects\":" << a.connects
     << ",\"reconnects\":" << a.reconnects
     << ",\"retained_bytes\":" << a.retained_bytes
     << ",\"held_bytes\":" << a.held_bytes
     << ",\"messages_delivered\":" << a.messages_delivered
     << ",\"messages_parked\":" << a.messages_parked
     << ",\"mailbox_parks\":" << a.mailbox_parks
     << ",\"mailbox_depth\":" << a.mailbox_depth
     << ",\"wf_committed\":" << a.wf_committed
     << ",\"wf_aborted\":" << a.wf_aborted << "}";
  PlacementImbalance im = ComputeImbalance(PlacementCounts(nodes));
  os << ",\"placement\":{\"nodes\":" << im.nodes
     << ",\"total\":" << im.total << ",\"max\":" << im.max_count
     << ",\"mean\":" << Ratio2(im.total, im.nodes)
     << ",\"max_over_mean\":"
     << Ratio2(static_cast<int64_t>(im.max_over_mean * 100), 100) << "}";
  os << ",\"nodes\":[";
  bool first = true;
  for (const auto& node : nodes) {
    if (!first) os << ",";
    first = false;
    os << node.json;
  }
  os << "]}";
  return os.str();
}

}  // namespace crew::net
