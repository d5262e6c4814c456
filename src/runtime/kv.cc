#include "runtime/kv.h"

#include <charconv>
#include <cstdlib>

#include "common/strings.h"

namespace crew::runtime {

KvWriter& KvWriter::Add(std::string_view key, std::string_view raw) {
  buffer_ += key;
  buffer_ += '=';
  buffer_ += raw;
  buffer_ += '\n';
  return *this;
}

KvWriter& KvWriter::AddInt(std::string_view key, int64_t v) {
  char buf[24];
  char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  return Add(key, std::string_view(buf, static_cast<size_t>(end - buf)));
}

KvWriter& KvWriter::AddValue(std::string_view key, const Value& v) {
  return Add(key, v.ToString());
}

Result<KvReader> KvReader::Parse(const std::string& payload) {
  KvReader reader;
  size_t start = 0;
  while (start < payload.size()) {
    size_t end = payload.find('\n', start);
    if (end == std::string::npos) end = payload.size();
    std::string line = payload.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::Corruption("kv line without '=': " + line);
    }
    reader.entries_.emplace_back(line.substr(0, eq), line.substr(eq + 1));
  }
  return reader;
}

std::optional<std::string> KvReader::Get(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return v;
  }
  return std::nullopt;
}

std::vector<std::string> KvReader::GetAll(const std::string& key) const {
  std::vector<std::string> out;
  for (const auto& [k, v] : entries_) {
    if (k == key) out.push_back(v);
  }
  return out;
}

Result<int64_t> KvReader::GetInt(const std::string& key) const {
  std::optional<std::string> raw = Get(key);
  if (!raw.has_value()) return Status::Corruption("missing key: " + key);
  char* end = nullptr;
  long long v = strtoll(raw->c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    return Status::Corruption("non-integer value for " + key + ": " + *raw);
  }
  return static_cast<int64_t>(v);
}

int64_t KvReader::GetIntOr(const std::string& key, int64_t fallback) const {
  Result<int64_t> v = GetInt(key);
  return v.ok() ? v.value() : fallback;
}

Result<Value> KvReader::GetValue(const std::string& key) const {
  std::optional<std::string> raw = Get(key);
  if (!raw.has_value()) return Status::Corruption("missing key: " + key);
  return Value::Parse(*raw);
}

Result<std::string> KvReader::GetRequired(const std::string& key) const {
  std::optional<std::string> raw = Get(key);
  if (!raw.has_value()) return Status::Corruption("missing key: " + key);
  return *raw;
}

}  // namespace crew::runtime
