#ifndef TABULA_INGEST_INGEST_JOURNAL_H_
#define TABULA_INGEST_INGEST_JOURNAL_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"
#include "storage/value.h"

namespace tabula {

/// Outcome of replaying a journal into a base table.
struct JournalReplayStats {
  /// Intact batch records found in the file.
  size_t batches = 0;
  /// Rows those batches carry (including rows the table already had).
  size_t rows = 0;
  /// Rows actually appended (journal rows beyond the table's tail).
  size_t appended_rows = 0;
  /// True when the file ended mid-record (crash mid-write); everything
  /// before the torn record replayed normally.
  bool truncated_tail = false;
};

/// \brief Write-ahead batch journal for streaming ingestion.
///
/// The base table is an in-memory column store, so rows appended after
/// the last durable cube Save() would be lost on a crash. The Ingestor
/// writes every accepted batch here BEFORE touching the table: on
/// restart, Replay() re-appends the journaled rows the base data does
/// not cover, then the cube is loaded with `resume_partial` and one
/// Refresh()/ingest cycle catches it up.
///
/// Format (version 2, little-endian, via common/binary_io.h):
///   header:  magic "TBLJ" · version · base_rows · schema (field name +
///            type per column)
///   record:  one checked record per batch — u32 payload length · u32
///            CRC32C of the payload · payload: row count · row-major
///            values (typed per the schema; categoricals as strings)
///
/// Each record is flushed after it is written; a record that fails to
/// write (disk error, or the `ingest.journal.write` fault seam) is
/// truncated back off the file, so the journal always ends on a record
/// boundary from the writer's point of view. Replay additionally
/// tolerates a torn tail record (crash mid-flush): a record that fails
/// its length or checksum, or a zero-filled tail (an empty record), is
/// dropped with everything after it. Recovery reads one record at a
/// time. A journal of any other version is kParseError naming the
/// version.
///
/// Thread-safety: externally serialized (the Ingestor appends from one
/// cycle at a time).
class IngestJournal {
 public:
  /// Opens `path` for appending. A missing/empty file is initialized
  /// with a fresh header at `table.num_rows()` base rows. An existing
  /// file must carry a matching schema and must already be replayed
  /// into `table` (its intact rows must all be <= the table's tail);
  /// a torn tail record is truncated off before appending resumes.
  static Result<std::unique_ptr<IngestJournal>> Open(const std::string& path,
                                                     const Table& table);

  /// Replays the journal at `path` into `table`: rows the table already
  /// holds (row index < num_rows) are skipped, the rest are appended in
  /// journal order. A missing file replays zero batches successfully.
  /// The table must hold at least the journal's base row count.
  static Result<JournalReplayStats> Replay(const std::string& path,
                                           Table* table);

  /// Appends one batch record and flushes it. `rows` must match the
  /// schema (the Ingestor validates before calling). On failure —
  /// including the `ingest.journal.write` fault seam — the partial
  /// record is truncated back off and the journal is unchanged.
  Status AppendBatch(const std::vector<std::vector<Value>>& rows);

  /// Restarts the journal with a fresh header at `base_rows` (after the
  /// cube + base data were checkpointed durably, the old records are
  /// dead weight).
  Status Reset(uint64_t base_rows);

  const std::string& path() const { return path_; }
  uint64_t base_rows() const { return base_rows_; }
  /// Rows recorded across the journal's intact records (diagnostics).
  uint64_t journaled_rows() const { return journaled_rows_; }

 private:
  IngestJournal() = default;

  Status WriteHeader(uint64_t base_rows);

  std::string path_;
  std::ofstream out_;
  /// Schema snapshot (field name + type) the journal was opened with.
  std::vector<std::pair<std::string, DataType>> fields_;
  uint64_t base_rows_ = 0;
  uint64_t journaled_rows_ = 0;
};

}  // namespace tabula

#endif  // TABULA_INGEST_INGEST_JOURNAL_H_
