#include "shared.h"

#include <algorithm>

namespace perfbench {

namespace sim = crew::sim;

namespace {
double PerWf(double value, int64_t started) {
  return started > 0 ? value / static_cast<double>(started) : 0;
}
}  // namespace

void AddCountMetrics(const sim::Metrics& metrics, int64_t started,
                     int64_t l, Outcome* out) {
  out->Add("msgs_per_wf", PerWf(metrics.TotalMessages(), started), "msgs");
  out->Add("wire_bytes_per_wf", PerWf(metrics.TotalBytes(), started),
           "bytes");
  out->Add("max_node_load_per_wf",
           PerWf(static_cast<double>(metrics.MaxNodeLoad()) / l, started),
           "l");
}

void AddCategoryMetrics(const sim::Metrics& metrics, int64_t started,
                        int64_t l, Outcome* out) {
  static const char* kMsgNames[sim::kNumMsgCategories] = {
      "normal", "failure", "input_change", "abort",
      "coordination", "election", "admin"};
  for (int c = 0; c < sim::kNumMsgCategories; ++c) {
    out->Add(std::string("msgs.") + kMsgNames[c] + "_per_wf",
             PerWf(metrics.MessagesIn(static_cast<sim::MsgCategory>(c)),
                   started),
             "msgs");
  }
  static const char* kLoadNames[sim::kNumLoadCategories] = {
      "navigation", "failure", "input_change", "abort", "coordination",
      "program"};
  for (int c = 0; c < sim::kNumLoadCategories; ++c) {
    int64_t busiest = 0;
    for (crew::NodeId node : metrics.LoadedNodes()) {
      busiest = std::max(
          busiest, metrics.LoadAt(node, static_cast<sim::LoadCategory>(c)));
    }
    out->Add(std::string("load.") + kLoadNames[c] + "_max_per_wf",
             PerWf(static_cast<double>(busiest) / l, started), "l");
  }
}

void AddHandlerMetrics(
    const std::map<crew::NodeId, NodeLedger>& ledgers,
    const std::function<std::string(crew::NodeId)>& role_of,
    int64_t started, Outcome* out) {
  // role ("central.engine") -> ns; layer ("central") -> type -> ns.
  std::map<std::string, int64_t> by_role = {{"central.engine", 0},
                                            {"central.agent", 0},
                                            {"dist.agent", 0},
                                            {"dist.frontend", 0}};
  std::map<std::string, std::map<std::string, int64_t>> by_type;
  for (const auto& [node, ledger] : ledgers) {
    std::string role = role_of(node);
    std::string layer = role.substr(0, role.find('.'));
    for (const auto& [type, cost] : ledger.handlers) {
      by_role[role] += cost.ns;
      by_type[layer][type] += cost.ns;
    }
  }
  for (const auto& [role, ns] : by_role) {
    out->Add(role + "_us_per_wf", PerWf(ns / 1e3, started), "us/wf");
  }
  for (const char* layer : {"central", "dist"}) {
    for (const std::string& type : WireTypes()) {
      out->Add(std::string(layer) + ".handler_us." + type,
               PerWf(by_type[layer][type] / 1e3, started), "us/wf");
    }
  }
}

double PlacementImbalance(const sim::Metrics& metrics, int candidates) {
  static const std::string kPrefix = "placement.wf.n";
  int64_t total = 0, busiest = 0;
  for (const auto& [name, count] : metrics.counters()) {
    if (name.compare(0, kPrefix.size(), kPrefix) != 0) continue;
    total += count;
    busiest = std::max(busiest, count);
  }
  if (total == 0 || candidates <= 0) return 0;
  return static_cast<double>(busiest) /
         (static_cast<double>(total) / candidates);
}

void AddCodecMetrics(const CodecStats& codec, Outcome* out) {
  out->Add("runtime.codec.parse_ns_per_msg", codec.parse_ns_per_msg, "ns");
  out->Add("runtime.codec.serialize_ns_per_msg", codec.serialize_ns_per_msg,
           "ns");
  out->Add("runtime.codec.bytes_per_msg",
           codec.messages > 0
               ? static_cast<double>(codec.bytes) / codec.messages
               : 0,
           "bytes");
  if (codec.unreplayed > 0) {
    out->errors.push_back("codec replay: " +
                          std::to_string(codec.unreplayed) +
                          " payloads did not parse");
  }
  if (codec.mismatched > 0) {
    out->errors.push_back("codec replay: " +
                          std::to_string(codec.mismatched) +
                          " payloads re-serialized to different bytes");
  }
}

}  // namespace perfbench
