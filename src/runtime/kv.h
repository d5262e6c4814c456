#ifndef CREW_RUNTIME_KV_H_
#define CREW_RUNTIME_KV_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace crew::runtime {

/// Line-oriented key=value text format, used for trace-shard files
/// (net/trace_merge.h). Repeated keys are allowed (lists). Values
/// containing newlines must be escaped by the caller (Value::ToString
/// already does).
class KvWriter {
 public:
  KvWriter& Add(std::string_view key, std::string_view raw);
  KvWriter& AddInt(std::string_view key, int64_t v);
  KvWriter& AddValue(std::string_view key, const Value& v);

  std::string Finish() const { return buffer_; }

 private:
  std::string buffer_;
};

class KvReader {
 public:
  /// Parses the payload; malformed lines yield kCorruption.
  static Result<KvReader> Parse(const std::string& payload);

  /// First occurrence of key; nullopt if absent.
  std::optional<std::string> Get(const std::string& key) const;
  /// All occurrences, in order.
  std::vector<std::string> GetAll(const std::string& key) const;

  Result<int64_t> GetInt(const std::string& key) const;
  /// Missing key => `fallback`.
  int64_t GetIntOr(const std::string& key, int64_t fallback) const;
  Result<Value> GetValue(const std::string& key) const;
  Result<std::string> GetRequired(const std::string& key) const;

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace crew::runtime

#endif  // CREW_RUNTIME_KV_H_
