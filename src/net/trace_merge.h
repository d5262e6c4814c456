#ifndef CREW_NET_TRACE_MERGE_H_
#define CREW_NET_TRACE_MERGE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/socket_transport.h"
#include "obs/trace.h"
#include "runtime/codec.h"

namespace crew::net {

/// One process incarnation's trace output: every record its ring sink
/// captured, the node display names it registered, and the clock
/// samples its transport collected from peer HELLOs. The (endpoint,
/// incarnation) pair identifies one *clock* — a restarted process is a
/// new shard even at the same address, because its tick counter
/// restarts from its own process start.
///
/// A shard file is one binary payload of the field-list codec
/// (runtime/fields.h) under BinMsgId::kTraceShard; clock samples and
/// records are section entries. Each node writes its shard on its own
/// and the merge step only reads them.
struct TraceShard {
  std::string endpoint;
  uint64_t incarnation = 1;
  int64_t tick_us = 50;  ///< wall µs per tick in this shard's records
  std::vector<ClockSample> clocks;
  std::map<NodeId, std::string> node_names;
  std::vector<obs::TraceRecord> records;
  static constexpr runtime::BinMsgId kWireId = runtime::BinMsgId::kTraceShard;
  template <class M, class F>
  static void Fields(M& m, F& f) {
    f.Str(1, m.endpoint, runtime::kRequired);
    f.Int(2, m.incarnation);
    f.Int(3, m.tick_us);
    f.List(4, m.clocks);
    f.Map(5, m.node_names);
    f.List(6, m.records);
  }
  std::string Serialize() const;
  static Result<TraceShard> Parse(const std::string& payload);
};

/// Snapshots a ring sink (plus the owning transport's clock samples)
/// into a shard. Call after the runtime is shut down.
TraceShard ShardFromRing(const obs::RingBufferTracer& ring,
                         std::string endpoint, uint64_t incarnation,
                         int64_t tick_us, std::vector<ClockSample> clocks);

/// Serializes a shard to `path` / reads one back; a file that does not
/// parse, or has a tick_us that is not positive, is kCorruption.
Status WriteTraceShard(const TraceShard& shard, const std::string& path);
Result<TraceShard> LoadTraceShard(const std::string& path);

/// What the merge did — exposed for tests and the tool's stderr line.
struct MergeStats {
  size_t shards = 0;
  size_t events = 0;        ///< trace events emitted (excl. metadata)
  size_t flow_begins = 0;   ///< kFlowBegin records across all shards
  size_t flow_ends = 0;
  size_t matched_flows = 0; ///< begin/end pairs joined by flow id
  std::string reference;    ///< "endpoint#inc" anchoring the timeline
  /// Estimated clock offset (µs, relative to the reference) applied to
  /// each shard, keyed "endpoint#inc".
  std::map<std::string, int64_t> offsets_us;
};

/// Merges shards onto one timeline and renders Chrome trace_event JSON
/// (Perfetto-loadable): one pid per shard, one tid per node, process
/// and thread name metadata, and cross-process kMessage spans rendered
/// as async "b"/"e" pairs joined by flow id.
///
/// Clock alignment: for each shard pair with HELLO samples in both
/// directions, the offset estimate is the NTP midpoint
/// (min_delta_fwd - min_delta_rev) / 2 of the minimum observed
/// one-way gaps; one-direction pairs fall back to that direction's
/// minimum gap (assumes zero latency); shards unreachable from the
/// reference by either kind of edge get offset 0. The reference shard
/// is the lexicographically smallest (endpoint, incarnation). All
/// timestamps are shifted so the merged timeline starts at 0.
std::string MergeTraceShards(const std::vector<TraceShard>& shards,
                             MergeStats* stats = nullptr);

Status WriteMergedTrace(const std::vector<TraceShard>& shards,
                        const std::string& path,
                        MergeStats* stats = nullptr);

/// JSONL counterpart: one line per merged record, timestamps aligned,
/// tagged with "endpoint" and "incarnation".
std::string MergedJsonl(const std::vector<TraceShard>& shards,
                        MergeStats* stats = nullptr);

}  // namespace crew::net

#endif  // CREW_NET_TRACE_MERGE_H_
