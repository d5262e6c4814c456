#include "net/trace_merge.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

#include "runtime/fields.h"

namespace crew::obs {

// A trace record as a section entry of a shard file.
template <runtime::Is<TraceRecord> R, class F>
void EntryFields(R& r, F&& f) {
  f(r.time);
  f(r.dur);
  f(r.phase);
  f(r.kind);
  f(r.node);
  f(r.instance);
  f(r.step);
  f(r.category);
  f(r.value);
  f(r.flow);
  f(r.name);
  f(r.detail);
}

}  // namespace crew::obs

namespace crew::net {

template <runtime::Is<ClockSample> C, class F>
void EntryFields(C& c, F&& f) {
  f(c.peer);
  f(c.peer_incarnation);
  f(c.remote_sent_ticks);
  f(c.local_recv_ticks);
  f(c.count);
}

using runtime::DecodeFields;
using runtime::EncodeFields;
CREW_FIELD_CODEC(TraceShard)

namespace {

std::string ShardLabel(const TraceShard& shard) {
  return shard.endpoint + "#inc" + std::to_string(shard.incarnation);
}

/// Estimated per-shard clock offsets (µs relative to the reference),
/// shared by the Chrome and JSONL renderers.
std::vector<int64_t> EstimateOffsets(const std::vector<TraceShard>& shards,
                                     MergeStats* stats) {
  size_t n = shards.size();
  // delta[i][j]: minimum observed (recv_at_i - sent_by_j) in µs, from
  // shard i's HELLO samples of shard j. INT64_MAX = no sample.
  constexpr int64_t kNone = std::numeric_limits<int64_t>::max();
  std::vector<std::vector<int64_t>> delta(n, std::vector<int64_t>(n, kNone));
  for (size_t i = 0; i < n; ++i) {
    for (const ClockSample& sample : shards[i].clocks) {
      for (size_t j = 0; j < n; ++j) {
        if (j == i || shards[j].endpoint != sample.peer ||
            shards[j].incarnation != sample.peer_incarnation) {
          continue;
        }
        int64_t d = sample.local_recv_ticks * shards[i].tick_us -
                    sample.remote_sent_ticks * shards[j].tick_us;
        delta[i][j] = std::min(delta[i][j], d);
      }
    }
  }

  // Reference: lexicographically smallest (endpoint, incarnation).
  size_t ref = 0;
  for (size_t i = 1; i < n; ++i) {
    const TraceShard& a = shards[i];
    const TraceShard& b = shards[ref];
    if (a.endpoint < b.endpoint ||
        (a.endpoint == b.endpoint && a.incarnation < b.incarnation)) {
      ref = i;
    }
  }

  // BFS from the reference over every shard pair with at least one
  // directional sample. offset[i] = clock_i - clock_ref in µs; for an
  // edge i -> j, clock_j - clock_i is the NTP midpoint when both
  // directions were sampled, the single direction's minimum gap
  // otherwise (zero-latency assumption).
  std::vector<int64_t> offset(n, 0);
  std::vector<bool> placed(n, false);
  placed[ref] = true;
  std::vector<size_t> frontier{ref};
  while (!frontier.empty()) {
    std::vector<size_t> next;
    for (size_t i : frontier) {
      for (size_t j = 0; j < n; ++j) {
        if (placed[j]) continue;
        int64_t fwd = delta[j][i];  // j received from i: clock_j - clock_i
        int64_t rev = delta[i][j];  // i received from j
        int64_t edge;
        if (fwd != kNone && rev != kNone) {
          edge = (fwd - rev) / 2;
        } else if (fwd != kNone) {
          edge = fwd;
        } else if (rev != kNone) {
          edge = -rev;
        } else {
          continue;
        }
        offset[j] = offset[i] + edge;
        placed[j] = true;
        next.push_back(j);
      }
    }
    frontier = std::move(next);
  }

  if (stats != nullptr) {
    stats->shards = n;
    stats->reference = n == 0 ? "" : ShardLabel(shards[ref]);
    for (size_t i = 0; i < n; ++i) {
      stats->offsets_us[ShardLabel(shards[i])] = offset[i];
    }
  }
  return offset;
}

/// One record placed on the merged timeline.
struct Placed {
  size_t shard = 0;
  const obs::TraceRecord* rec = nullptr;
  int64_t ts_us = 0;  ///< aligned, pre-shift
};

/// Aligns every record and computes the flow pairing + the shift that
/// puts the earliest event at t=0.
std::vector<Placed> PlaceRecords(const std::vector<TraceShard>& shards,
                                 const std::vector<int64_t>& offset,
                                 MergeStats* stats) {
  std::vector<Placed> placed;
  std::map<uint64_t, int64_t> flow_begin_ts;
  std::map<uint64_t, bool> flow_has_end;
  for (size_t i = 0; i < shards.size(); ++i) {
    for (const obs::TraceRecord& r : shards[i].records) {
      Placed p;
      p.shard = i;
      p.rec = &r;
      p.ts_us = r.time * shards[i].tick_us - offset[i];
      if (r.phase == obs::TracePhase::kFlowBegin) {
        if (stats != nullptr) ++stats->flow_begins;
        auto it = flow_begin_ts.find(r.flow);
        if (it == flow_begin_ts.end() || p.ts_us < it->second) {
          flow_begin_ts[r.flow] = p.ts_us;
        }
      } else if (r.phase == obs::TracePhase::kFlowEnd) {
        if (stats != nullptr) ++stats->flow_ends;
        flow_has_end[r.flow] = true;
      }
      placed.push_back(p);
    }
  }
  // Clock estimation is approximate: clamp a flow end that aligned
  // before its begin up to the begin, so no span renders negative.
  for (Placed& p : placed) {
    if (p.rec->phase != obs::TracePhase::kFlowEnd) continue;
    auto it = flow_begin_ts.find(p.rec->flow);
    if (it != flow_begin_ts.end() && p.ts_us < it->second) {
      p.ts_us = it->second;
    }
  }
  if (stats != nullptr) {
    for (const auto& [flow, begin_ts] : flow_begin_ts) {
      if (flow_has_end.count(flow) != 0) ++stats->matched_flows;
    }
    stats->events = placed.size();
  }
  int64_t min_ts = 0;
  bool any = false;
  for (const Placed& p : placed) {
    if (!any || p.ts_us < min_ts) min_ts = p.ts_us;
    any = true;
  }
  for (Placed& p : placed) p.ts_us -= min_ts;
  std::stable_sort(placed.begin(), placed.end(),
                   [](const Placed& a, const Placed& b) {
                     return a.ts_us < b.ts_us;
                   });
  return placed;
}

/// Each shard's records carry its endpoint and incarnation as extra
/// export args.
std::vector<std::string> ShardArgs(const std::vector<TraceShard>& shards) {
  std::vector<std::string> args;
  args.reserve(shards.size());
  for (const TraceShard& shard : shards) {
    args.push_back("\"endpoint\":\"" + obs::JsonEscape(shard.endpoint) +
                   "\",\"incarnation\":" +
                   std::to_string(shard.incarnation));
  }
  return args;
}

int64_t DurationUs(const Placed& p, const std::vector<TraceShard>& shards) {
  return std::max<int64_t>(p.rec->dur, 0) * shards[p.shard].tick_us;
}

}  // namespace

TraceShard ShardFromRing(const obs::RingBufferTracer& ring,
                         std::string endpoint, uint64_t incarnation,
                         int64_t tick_us, std::vector<ClockSample> clocks) {
  TraceShard shard;
  shard.endpoint = std::move(endpoint);
  shard.incarnation = incarnation;
  shard.tick_us = tick_us;
  shard.clocks = std::move(clocks);
  shard.node_names = ring.node_names();
  shard.records.assign(ring.records().begin(), ring.records().end());
  return shard;
}

Status WriteTraceShard(const TraceShard& shard, const std::string& path) {
  return obs::WriteFile(path, shard.Serialize());
}

Result<TraceShard> LoadTraceShard(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Unavailable("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<TraceShard> shard = TraceShard::Parse(buffer.str());
  if (!shard.ok()) {
    return Status::Corruption("shard " + path + ": " +
                              shard.status().ToString());
  }
  if (shard.value().tick_us <= 0) {
    return Status::Corruption("shard " + path + " has bad tick_us");
  }
  return shard;
}

std::string MergeTraceShards(const std::vector<TraceShard>& shards,
                             MergeStats* stats) {
  if (stats != nullptr) *stats = MergeStats{};
  std::vector<int64_t> offset = EstimateOffsets(shards, stats);
  std::vector<Placed> placed = PlaceRecords(shards, offset, stats);
  std::vector<std::string> args = ShardArgs(shards);

  obs::ChromeTraceWriter writer({}, placed.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    writer.Process(static_cast<int64_t>(i) + 1, ShardLabel(shards[i]),
                   shards[i].node_names, shards[i].records);
  }
  for (const Placed& p : placed) {
    writer.Event(*p.rec, p.ts_us, DurationUs(p, shards),
                 static_cast<int64_t>(p.shard) + 1, args[p.shard]);
  }
  return writer.Finish();
}

Status WriteMergedTrace(const std::vector<TraceShard>& shards,
                        const std::string& path, MergeStats* stats) {
  return obs::WriteFile(path, MergeTraceShards(shards, stats));
}

std::string MergedJsonl(const std::vector<TraceShard>& shards,
                        MergeStats* stats) {
  if (stats != nullptr) *stats = MergeStats{};
  std::vector<int64_t> offset = EstimateOffsets(shards, stats);
  std::vector<Placed> placed = PlaceRecords(shards, offset, stats);
  std::vector<std::string> args = ShardArgs(shards);
  std::string out;
  out.reserve(placed.size() * 160);
  for (const Placed& p : placed) {
    obs::AppendJsonlLine(&out, *p.rec, p.ts_us, DurationUs(p, shards),
                         args[p.shard], obs::kMergedJsonl);
  }
  return out;
}

}  // namespace crew::net
