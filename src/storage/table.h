#ifndef CREW_STORAGE_TABLE_H_
#define CREW_STORAGE_TABLE_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/binio.h"
#include "common/status.h"
#include "common/value.h"

namespace crew::storage {

/// A row's encoding for any name->Value map: [count]([name][Value])... in
/// name order, in the binary primitives of common/binio.h.
size_t FieldsBound(const std::map<std::string, Value>& fields);
void WriteFields(BinWriter& w, const std::map<std::string, Value>& fields);
/// Replaces `*fields` with the ones read; false on bytes that do not
/// decode.
bool ReadFields(BinReader& r, std::map<std::string, Value>* fields);

/// One row: named, typed fields. Rows are schemaless — the workflow tables
/// the paper names (class table, instance table, step table, coordination
/// instance summary table) are all row sets keyed by a string primary key.
class Row {
 public:
  void Set(const std::string& field, Value value);
  std::optional<Value> Get(const std::string& field) const;
  bool Has(const std::string& field) const;
  size_t size() const { return fields_.size(); }

  const std::map<std::string, Value>& fields() const { return fields_; }

  /// WriteFields/ReadFields of the row's fields.
  size_t EncodedBound() const { return FieldsBound(fields_); }
  void Write(BinWriter& w) const { WriteFields(w, fields_); }
  bool Read(BinReader& r) { return ReadFields(r, &fields_); }

  std::string Serialize() const;
  static Result<Row> Deserialize(std::string_view bytes);

 private:
  std::map<std::string, Value> fields_;
};

/// An ordered key->Row table with a change journal hook so the owning
/// Database can WAL every mutation.
class Table {
 public:
  using MutationHook =
      std::function<void(const std::string& table, const std::string& key,
                         const Row* row /*null == delete*/)>;

  explicit Table(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Inserts or fully replaces a row.
  void Put(const std::string& key, Row row);
  /// Merges fields into an existing row (creating it if absent).
  void Update(const std::string& key, const Row& fields);
  const Row* Get(const std::string& key) const;
  bool Delete(const std::string& key);
  bool Contains(const std::string& key) const;
  size_t size() const { return rows_.size(); }

  const std::map<std::string, Row>& rows() const { return rows_; }

  /// Rows whose field `field` equals `value` (full scan).
  std::vector<const Row*> Select(const std::string& field,
                                 const Value& value) const;

  void set_mutation_hook(MutationHook hook) { hook_ = std::move(hook); }

  /// Applies a journaled mutation without re-journaling (recovery path).
  void ApplyRaw(const std::string& key, const Row* row);

  /// Drops every row without journaling. Recovery-only: used to reset
  /// in-memory state before replaying the log after a crash-restart.
  void ClearRaw() { rows_.clear(); }

 private:
  void Journal(const std::string& key, const Row* row);

  std::string name_;
  std::map<std::string, Row> rows_;
  MutationHook hook_;
};

}  // namespace crew::storage

#endif  // CREW_STORAGE_TABLE_H_
