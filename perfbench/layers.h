// Layer measurements taken by replaying what a run produced through the
// program's public functions: captured payloads through the wire codec,
// and the agents' write-ahead logs through storage::Wal.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "probe.h"

namespace perfbench {

struct CodecStats {
  int64_t messages = 0;
  int64_t bytes = 0;
  double parse_ns_per_msg = 0;
  double serialize_ns_per_msg = 0;
  /// Payloads whose type has no codec entry here, or that failed Parse.
  int64_t unreplayed = 0;
  /// Parsed payloads that did not re-serialize to the same bytes.
  int64_t mismatched = 0;
};

/// Every wire type the programs send, in a fixed order.
const std::vector<std::string>& WireTypes();

/// Parses every captured payload with its wire type's Parse, then
/// serializes the results again, timing each pass per type group.
/// Takes the fastest of `passes` replays.
CodecStats ReplayCodec(const std::vector<Captured>& captured, int passes);

struct WalStats {
  int64_t records = 0;
  int64_t bytes = 0;
  double append_us = 0;  ///< per record, into a scratch log
  bool ok = true;
};

/// Replays the logs at `paths` with Wal::Replay, then appends every
/// record again through Wal::Append into `scratch_path`.
WalStats ReplayWals(const std::vector<std::string>& paths,
                    const std::string& scratch_path);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
