#ifndef CREW_COMMON_IDS_H_
#define CREW_COMMON_IDS_H_

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>

namespace crew {

/// Index of a step within a workflow schema, 1-based (step 0 is invalid;
/// the paper numbers steps S1..Sn).
using StepId = int32_t;
inline constexpr StepId kInvalidStep = 0;

/// Identifies a node in the system: an agent or an engine. Nodes are the
/// unit of message exchange and of load accounting.
using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;
/// The front-end database is modelled as a distinguished node.
inline constexpr NodeId kFrontEndNode = 0;

/// A workflow *class* (schema) is identified by name; instances by a
/// system-wide unique number paired with the class name.
struct InstanceId {
  std::string workflow;   ///< schema (class) name, e.g. "OrderProcessing"
  int64_t number = 0;     ///< unique instance number

  bool operator==(const InstanceId& o) const {
    return number == o.number && workflow == o.workflow;
  }
  bool operator!=(const InstanceId& o) const { return !(*this == o); }
  bool operator<(const InstanceId& o) const {
    if (workflow != o.workflow) return workflow < o.workflow;
    return number < o.number;
  }

  /// "WF2#4" style rendering used in logs and packets.
  std::string ToString() const {
    return workflow + "#" + std::to_string(number);
  }
  /// Inverse of ToString; an empty workflow name for a malformed key.
  static InstanceId Parse(const std::string& key) {
    size_t hash = key.rfind('#');
    if (hash == std::string::npos || hash == 0) return {};
    return {key.substr(0, hash), std::atoll(key.c_str() + hash + 1)};
  }
};

struct InstanceIdHash {
  size_t operator()(const InstanceId& id) const {
    return std::hash<std::string>()(id.workflow) * 1315423911u ^
           std::hash<int64_t>()(id.number);
  }
};

}  // namespace crew

#endif  // CREW_COMMON_IDS_H_
