#include "storage/table.h"

namespace crew::storage {

void Row::Set(const std::string& field, Value value) {
  fields_[field] = std::move(value);
}

std::optional<Value> Row::Get(const std::string& field) const {
  auto it = fields_.find(field);
  if (it == fields_.end()) return std::nullopt;
  return it->second;
}

bool Row::Has(const std::string& field) const {
  return fields_.count(field) > 0;
}

size_t FieldsBound(const std::map<std::string, Value>& fields) {
  size_t n = kMaxVarintBytes;
  for (const auto& [name, value] : fields) {
    n += BytesBound(name) + ValueBound(value);
  }
  return n;
}

void WriteFields(BinWriter& w, const std::map<std::string, Value>& fields) {
  w.Varint(fields.size());
  for (const auto& [name, value] : fields) {
    w.Bytes(name);
    WriteValue(w, value);
  }
}

bool ReadFields(BinReader& r, std::map<std::string, Value>* fields) {
  fields->clear();
  uint64_t count = 0;
  if (!r.Varint(&count)) return false;
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view name;
    Value value;
    if (!r.Bytes(&name) || !ReadValue(r, &value)) return false;
    (*fields)[std::string(name)] = std::move(value);
  }
  return true;
}

std::string Row::Serialize() const {
  std::string out;
  BinWriter w(&out, EncodedBound());
  Write(w);
  w.Finish();
  return out;
}

Result<Row> Row::Deserialize(std::string_view bytes) {
  Row row;
  BinReader r(bytes);
  if (!row.Read(r) || !r.done()) return Status::Corruption("malformed row");
  return row;
}

void Table::Put(const std::string& key, Row row) {
  rows_[key] = std::move(row);
  Journal(key, &rows_[key]);
}

void Table::Update(const std::string& key, const Row& fields) {
  Row& row = rows_[key];
  for (const auto& [name, value] : fields.fields()) {
    row.Set(name, value);
  }
  Journal(key, &row);
}

const Row* Table::Get(const std::string& key) const {
  auto it = rows_.find(key);
  return it == rows_.end() ? nullptr : &it->second;
}

bool Table::Delete(const std::string& key) {
  auto it = rows_.find(key);
  if (it == rows_.end()) return false;
  rows_.erase(it);
  Journal(key, nullptr);
  return true;
}

bool Table::Contains(const std::string& key) const {
  return rows_.count(key) > 0;
}

std::vector<const Row*> Table::Select(const std::string& field,
                                      const Value& value) const {
  std::vector<const Row*> out;
  for (const auto& [key, row] : rows_) {
    std::optional<Value> v = row.Get(field);
    if (v.has_value() && *v == value) out.push_back(&row);
  }
  return out;
}

void Table::ApplyRaw(const std::string& key, const Row* row) {
  if (row == nullptr) {
    rows_.erase(key);
  } else {
    rows_[key] = *row;
  }
}

void Table::Journal(const std::string& key, const Row* row) {
  if (hook_) hook_(name_, key, row);
}

}  // namespace crew::storage
