// WriteAheadLog: append-only persistence of engine events.
//
// Records are JSON values framed as "<lsn>:<length>:<json>\n". This
// framing replaces the pre-LSN "<length>:<json>\n" format wholesale; old
// logs are not readable (checkpoint via SaveSnapshot before upgrading —
// snapshots stay compatible, a missing "wal_lsn" simply replays
// everything). The LSN
// (log sequence number) is strictly monotonic per log path and survives
// Truncate(), so a snapshot that records the LSN it covers makes replay
// unambiguous even when a checkpoint is interrupted between the snapshot
// write and the log truncation.
//
// Durability contract: Append() only buffers the frame in the stdio
// buffer; data reaches the OS (or the disk) when Sync() runs:
//
//   SyncMode::kNone    no explicit flush. Fastest; an exiting process
//                      still flushes via fclose, but a crash loses every
//                      buffered record.
//   SyncMode::kFlush   fflush to the OS page cache. Survives a process
//                      crash, not an OS crash or power failure.
//   SyncMode::kFsync   fflush + fsync. Survives OS/power failure, at the
//                      price of a disk round trip.
//
// Group commit lives one layer up: storage/wal_writer.h batches frames
// from concurrent appenders into a single write + Sync() per batch.
//
// ReadRecords/ReadAll tolerate a truncated or corrupt tail (crash
// mid-append, forged headers): they return every complete, parsable,
// LSN-ordered record and stop at the first damaged one. Opening a log
// whose tail is damaged truncates the file back to the last good frame so
// new appends are never hidden behind unreadable bytes.
//
// Failure hardening: a failed write, flush, or truncation kills the file
// handle; every later Append/Sync on the dead handle returns kCorruption
// instead of touching a poisoned tail (or a null FILE*). Truncate() may
// be retried and revives the handle when the reopen succeeds.

#ifndef ADEPT_STORAGE_WAL_H_
#define ADEPT_STORAGE_WAL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace adept {

// How far Sync() pushes buffered records toward stable storage.
enum class SyncMode {
  kNone = 0,   // stdio buffer only; lost on process crash
  kFlush = 1,  // OS page cache; lost on OS crash / power failure
  kFsync = 2,  // stable storage
};

// "none", "flush", or "fsync".
const char* SyncModeToString(SyncMode mode);

// One decoded log record: payload plus its log sequence number.
struct WalRecord {
  uint64_t lsn = 0;
  JsonValue value;
};

// One raw (undecoded) frame: the serialized payload bytes plus their LSN.
// The unit the replication layer ships — raw so a replica appends exactly
// the bytes the primary persisted, without a JSON parse/re-dump round trip.
struct WalFrame {
  uint64_t lsn = 0;
  std::string payload;
};

// What ReadTail() learns about a log: the raw frames above a caller-given
// LSN plus the framing facts a replication catch-up needs to tell "behind
// but resumable" from "the prefix was truncated away by a checkpoint".
struct WalTail {
  // Every complete frame with lsn > the requested after_lsn, in order.
  std::vector<WalFrame> frames;
  // LSN of the first complete frame in the file (0 for an empty/absent
  // log). Frames inside one file are contiguous (the writer never skips a
  // ticket), so first_lsn > after_lsn + 1 means the gap (after_lsn,
  // first_lsn) was checkpoint-truncated and the caller must fall back to a
  // snapshot transfer.
  uint64_t first_lsn = 0;
  // LSN of the last complete frame in the file (0 when empty/absent).
  uint64_t last_lsn = 0;
  // False when no file existed at the path.
  bool exists = false;
};

// Everything one full parse pass over a log file learns. Produced by
// Scan(); consumers that need both the records (replay) and the framing
// facts (resuming appends, tail repair) hand the same WalScan to
// OpenScanned() so the file is parsed exactly once per recovery.
struct WalScan {
  std::vector<WalRecord> records;
  // Offset one past the last complete frame; bytes beyond it are a
  // damaged (crash-truncated or corrupt) tail.
  size_t valid_bytes = 0;
  // Total bytes read from the file.
  size_t total_bytes = 0;
  // LSN of the last complete frame (0 for an empty/absent log).
  uint64_t last_lsn = 0;
  // False when no file existed at the path.
  bool exists = false;
};

class WriteAheadLog {
 public:
  // Opens (creating or appending) the log at `path`. Scans any existing
  // frames to resume LSN numbering and truncates a damaged tail back to
  // the last complete frame.
  static Result<std::unique_ptr<WriteAheadLog>> Open(const std::string& path);

  // Parses every complete frame of the log at `path` in one pass. A
  // missing file yields an empty scan (exists == false); a damaged tail
  // ends the scan without error (valid_bytes < total_bytes).
  static Result<WalScan> Scan(const std::string& path);

  // Open() without re-reading the file: trusts `scan` (from Scan() on the
  // same, since-unmodified path) for LSN resumption and tail repair.
  // Recovery replays scan.records and then opens the log through this —
  // one parse pass instead of two.
  static Result<std::unique_ptr<WriteAheadLog>> OpenScanned(
      const std::string& path, const WalScan& scan);

  // Number of full parse passes performed by this process (Scan() calls,
  // including those made by Open/ReadRecords/ReadAll). Regression
  // instrumentation for the single-pass recovery contract.
  static uint64_t scan_count();

  ~WriteAheadLog();
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  // Appends one record under the next LSN and returns that LSN. The frame
  // is buffered; call Sync() to make it durable (see SyncMode above).
  Result<uint64_t> Append(const JsonValue& record);

  // Appends a pre-serialized payload under a caller-assigned LSN, which
  // must exceed last_lsn(). Used by WalWriter, whose appenders draw LSN
  // tickets before the background thread performs the write.
  Status AppendFrame(uint64_t lsn, const std::string& payload);

  // Pushes buffered frames toward stable storage per `mode`.
  Status Sync(SyncMode mode);

  // Discards all records (checkpoint compaction after a snapshot). The
  // LSN counter intentionally survives: LSNs are never reused for a path,
  // so a snapshot's recorded coverage stays unambiguous.
  Status Truncate();

  const std::string& path() const { return path_; }
  size_t records_written() const { return records_written_; }
  // Highest LSN ever appended to (or recovered from) this log.
  uint64_t last_lsn() const { return last_lsn_; }
  // True once an I/O failure killed the handle; Append/Sync then return
  // kCorruption until a successful Truncate() revives it.
  bool dead() const { return file_ == nullptr; }

  // Resumable raw read for replication catch-up: every complete frame
  // with an LSN above `after_lsn`, as the exact payload bytes on disk. A
  // damaged tail ends the read without error (same contract as Scan); a
  // missing file yields an empty tail (exists == false). Safe against a
  // concurrent appender: the parse stops at the first incomplete frame,
  // so the caller sees some durable prefix.
  static Result<WalTail> ReadTail(const std::string& path, uint64_t after_lsn);

  // Reads all complete records with their LSNs; a truncated/corrupt tail
  // ends the scan without error. Missing file yields an empty vector.
  static Result<std::vector<WalRecord>> ReadRecords(const std::string& path);

  // Convenience wrapper over ReadRecords that drops the LSNs.
  static Result<std::vector<JsonValue>> ReadAll(const std::string& path);

 private:
  WriteAheadLog(std::string path, std::FILE* file, uint64_t last_lsn)
      : path_(std::move(path)), file_(file), last_lsn_(last_lsn) {}

  std::string path_;
  std::FILE* file_;
  uint64_t last_lsn_ = 0;
  size_t records_written_ = 0;
};

}  // namespace adept

#endif  // ADEPT_STORAGE_WAL_H_
