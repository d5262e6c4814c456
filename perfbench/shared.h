// Metric groups every workload reports the same way.
#ifndef PERFBENCH_SHARED_H_
#define PERFBENCH_SHARED_H_

#include <functional>
#include <map>
#include <string>

#include "layers.h"
#include "probe.h"
#include "sim/metrics.h"
#include "workloads.h"

namespace perfbench {

/// The end-to-end counts from the program's own metrics ledger:
/// messages, payload bytes and the busiest node's load per started
/// instance (load in units of `l`).
void AddCountMetrics(const crew::sim::Metrics& metrics, int64_t started,
                     int64_t l, Outcome* out);

/// Per-category messages and per-category busiest-node load per started
/// instance (the paper's Tables 4-7 breakdown).
void AddCategoryMetrics(const crew::sim::Metrics& metrics, int64_t started,
                        int64_t l, Outcome* out);

/// Handler time per started instance, by node role and by wire type,
/// for the `central` and `dist` layers. `layer_of` names the layer and
/// role of a node ("central.engine", "dist.agent", ...).
void AddHandlerMetrics(
    const std::map<crew::NodeId, NodeLedger>& ledgers,
    const std::function<std::string(crew::NodeId)>& role_of,
    int64_t started, Outcome* out);

/// Max over mean of the placement.wf.n<id> counters, the mean taken over
/// `candidates` nodes that could coordinate an instance.
double PlacementImbalance(const crew::sim::Metrics& metrics,
                          int candidates);

void AddCodecMetrics(const CodecStats& codec, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_SHARED_H_
