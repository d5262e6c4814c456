#include "storage/database.h"

#include "common/logging.h"

namespace crew::storage {
namespace {

enum JournalOp : uint8_t { kDelete = 0, kPut = 1 };

}  // namespace

void EncodeJournalRecord(const std::string& table, const std::string& key,
                         const Row* row, std::string* out) {
  BinWriter w(out, BytesBound(table) + BytesBound(key) + 1 +
                       (row != nullptr ? row->EncodedBound() : 0));
  w.Bytes(table);
  w.Bytes(key);
  w.U8(row != nullptr ? kPut : kDelete);
  if (row != nullptr) row->Write(w);
  w.Finish();
}

Result<JournalRecord> DecodeJournalRecord(std::string_view record) {
  BinReader r(record);
  std::string_view table;
  std::string_view key;
  uint8_t op = 0;
  JournalRecord out;
  if (!r.Bytes(&table) || !r.Bytes(&key) || !r.U8(&op) || op > kPut ||
      (op == kPut && !out.row.emplace().Read(r)) || !r.done()) {
    return Status::Corruption("malformed journal record");
  }
  out.table = table;
  out.key = key;
  return out;
}

Status Database::OpenDurable(const std::string& dir) {
  return wal_.Open(dir + "/" + name_ + ".wal");
}

Status Database::LoadSnapshot(const std::string& dir) {
  Wal snapshot_reader;
  return snapshot_reader.Replay(
      dir + "/" + name_ + ".snap",
      [this](const std::string& record) { ApplyWalRecord(record); });
}

void Database::ApplyWalRecord(const std::string& record) {
  Result<JournalRecord> mutation = DecodeJournalRecord(record);
  if (!mutation.ok()) {
    CREW_LOG(Warn) << "skipping malformed WAL record in " << name_;
    return;
  }
  JournalRecord& m = mutation.value();
  table(m.table).ApplyRaw(m.key, m.row.has_value() ? &*m.row : nullptr);
}

Status Database::Recover(const std::string& dir) {
  // Load the checkpoint snapshot first (if any); the WAL holds only the
  // mutations after it.
  CREW_RETURN_IF_ERROR(LoadSnapshot(dir));
  Wal reader;
  return reader.Replay(
      dir + "/" + name_ + ".wal",
      [this](const std::string& record) { ApplyWalRecord(record); });
}

Result<int64_t> Database::RestartRecover(const std::string& dir) {
  if (!wal_.is_open()) {
    return Status::FailedPrecondition(
        "restart recovery requires a durable database");
  }
  // Simulate the process boundary: drop the handle and every in-memory
  // row, exactly as a killed process would, then come back up from disk.
  wal_.Close();
  for (auto& [table_name, t] : tables_) t->ClearRaw();
  CREW_RETURN_IF_ERROR(LoadSnapshot(dir));
  Result<int64_t> replayed = Wal::Recover(
      dir + "/" + name_ + ".wal",
      [this](const std::string& record) { ApplyWalRecord(record); });
  CREW_RETURN_IF_ERROR(replayed.status());
  CREW_RETURN_IF_ERROR(OpenDurable(dir));
  return replayed;
}

Status Database::Checkpoint(const std::string& dir) {
  if (!wal_.is_open()) {
    return Status::FailedPrecondition(
        "checkpoint requires a durable database");
  }
  const std::string snap_path = dir + "/" + name_ + ".snap";
  const std::string tmp_path = snap_path + ".tmp";
  {
    Wal snapshot;
    CREW_RETURN_IF_ERROR(snapshot.Open(tmp_path));
    for (const auto& [table_name, table] : tables_) {
      for (const auto& [key, row] : table->rows()) {
        EncodeJournalRecord(table_name, key, &row, &record_);
        CREW_RETURN_IF_ERROR(snapshot.Append(record_));
      }
    }
  }
  if (std::rename(tmp_path.c_str(), snap_path.c_str()) != 0) {
    return Status::Unavailable("cannot publish snapshot " + snap_path);
  }
  return wal_.Truncate();
}

Table& Database::table(const std::string& table_name) {
  auto it = tables_.find(table_name);
  if (it == tables_.end()) {
    auto t = std::make_unique<Table>(table_name);
    t->set_mutation_hook([this](const std::string& table,
                                const std::string& key, const Row* row) {
      JournalMutation(table, key, row);
    });
    it = tables_.emplace(table_name, std::move(t)).first;
  }
  return *it->second;
}

const Table* Database::FindTable(const std::string& table_name) const {
  auto it = tables_.find(table_name);
  return it == tables_.end() ? nullptr : it->second.get();
}

void Database::JournalMutation(const std::string& table,
                               const std::string& key, const Row* row) {
  ++journaled_;
  if (!wal_.is_open()) return;
  EncodeJournalRecord(table, key, row, &record_);
  Status status = wal_.Append(record_);
  if (!status.ok()) {
    CREW_LOG(Error) << "WAL append failed for " << name_ << ": "
                    << status.ToString();
  }
}

}  // namespace crew::storage
