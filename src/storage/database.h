#ifndef CREW_STORAGE_DATABASE_H_
#define CREW_STORAGE_DATABASE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "storage/table.h"
#include "storage/wal.h"

namespace crew::storage {

/// One journaled mutation as a WAL or snapshot record holds it:
/// [table][key][op] and, for a put, the row (Row::Write), in the binary
/// primitives of common/binio.h. A snapshot is a log of puts.
struct JournalRecord {
  std::string table;
  std::string key;
  std::optional<Row> row;  ///< nullopt: the key was deleted
};

/// Replaces `*out` with the record (keeping its capacity); `row` null
/// encodes a delete.
void EncodeJournalRecord(const std::string& table, const std::string& key,
                         const Row* row, std::string* out);
Result<JournalRecord> DecodeJournalRecord(std::string_view record);

/// A named collection of Tables with optional WAL-backed durability.
/// Instantiated once per engine (WFDB) and once per agent (AGDB).
///
/// In-memory mode (no Open) journals nothing. Durable mode WALs every
/// mutation; Recover() rebuilds the tables from the log, giving the
/// forward-recovery behaviour the paper attributes to the WFDB (§2) and
/// the AGDB (§4.1).
class Database {
 public:
  explicit Database(std::string name) : name_(std::move(name)) {}

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Enables durability: mutations append to `<dir>/<name>.wal`.
  Status OpenDurable(const std::string& dir);

  /// Restores state into the (empty) tables: loads the last checkpoint
  /// snapshot if one exists, then replays the WAL tail. Call before
  /// OpenDurable's first mutation after a crash.
  Status Recover(const std::string& dir);

  /// Crash-restart recovery for a *live* database: closes the WAL,
  /// discards all in-memory rows, reloads the snapshot, replays the log
  /// through Wal::Recover (truncating any torn tail), and reopens for
  /// appending. This is what a killed-and-restarted node runs before
  /// rejoining — and what the rt backend's recovery hook runs so the
  /// in-process crash path exercises the same code. Returns the number
  /// of WAL records replayed. Precondition: the database is durable.
  Result<int64_t> RestartRecover(const std::string& dir);

  /// Writes a full snapshot of every table to `<dir>/<name>.snap` and
  /// truncates the WAL, bounding recovery time. Crash-safe: the snapshot
  /// is written to a temporary file and renamed into place before the
  /// WAL is truncated.
  Status Checkpoint(const std::string& dir);

  /// Returns the table, creating it on first use.
  Table& table(const std::string& table_name);
  const Table* FindTable(const std::string& table_name) const;

  const std::string& name() const { return name_; }
  bool durable() const { return wal_.is_open(); }

  /// Number of journaled mutations since open (for tests/metrics).
  int64_t journaled_mutations() const { return journaled_; }

 private:
  void JournalMutation(const std::string& table, const std::string& key,
                       const Row* row);
  Status LoadSnapshot(const std::string& dir);
  void ApplyWalRecord(const std::string& record);

  std::string name_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
  Wal wal_;
  std::string record_;  ///< reused by every WAL append
  int64_t journaled_ = 0;
};

}  // namespace crew::storage

#endif  // CREW_STORAGE_DATABASE_H_
