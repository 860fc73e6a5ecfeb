// WalWriter: leader-based group-commit front end for WriteAheadLog.
//
// Concurrent appenders call Enqueue() and immediately receive a monotonic
// LSN ticket. Durability is leader-driven: the first WaitDurable caller
// whose LSN is not yet durable becomes the *leader* and drains the queue
// inline on its own thread — one stdio write burst, one Sync per batch —
// while followers sleep until their LSN is covered; when the leader's
// batch completes, the next unsatisfied follower takes over the leader
// role for whatever queued up meanwhile. Under N concurrent appenders
// that turns N flushes/fsyncs into one (the classic group-commit
// amortization, cf. realm-core's group writer); under ONE appender the
// append-wait-drain path runs entirely on the caller's thread, so group
// commit no longer pays the writer-thread handoff (two context switches
// per append) that historically kept kFlush group commit behind plain
// per-append flushing at low appender counts.
//
// A background thread still exists, but only as the drain of last resort
// for records nobody waits on — fire-and-forget Enqueue()s (the cluster's
// defer_wal_sync pipelining, the release record of a rolled-back claim).
// It wakes only when the queue is non-empty and no waiter is present, so
// it never races a leader for the log.
//
// Threading: Enqueue/WaitDurable/Append are safe from any thread. The
// underlying WriteAheadLog is touched only while `writing_` is held (by
// the current leader or the background thread) or under mu_ with a
// drained queue (Truncate).
//
// Failure model: an I/O error is sticky. The failing batch and every later
// WaitDurable whose LSN is not yet durable return the error; already-durable
// LSNs keep reporting OK. A successful Truncate() — the checkpoint path,
// called after a snapshot covering all enqueued LSNs was written — starts a
// fresh file and clears the sticky error.

#ifndef ADEPT_STORAGE_WAL_WRITER_H_
#define ADEPT_STORAGE_WAL_WRITER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "storage/wal.h"

namespace adept {

// Observer of locally durable batches, used to extend WaitDurable's
// meaning from "on this disk" to "on a quorum" (repl/replication.h).
//
//   * OnDurableBatch runs on the draining thread (a leader or the
//     background thread) right after the batch's Sync succeeded, with the
//     writer mutex released but the drain token still held — batches are
//     delivered one at a time, in LSN order. It must not block: hand the
//     frames to a buffer and return (network I/O happens on peer threads).
//   * WaitRemote runs on the WaitDurable caller's thread with no writer
//     lock held, only after the LSN is locally durable. Its error becomes
//     the WaitDurable result (local durability is not undone).
//
// Lifetime: the hook must outlive every in-flight Enqueue/WaitDurable and
// stay attached until the writer is idle; detach (SetCommitHook(nullptr))
// only with no concurrent appenders, then destroy the hook.
class WalCommitHook {
 public:
  virtual ~WalCommitHook() = default;
  virtual void OnDurableBatch(const std::vector<WalFrame>& frames) = 0;
  virtual Status WaitRemote(uint64_t lsn) = 0;
};

struct WalWriterOptions {
  // Durability applied once per drained batch (see SyncMode in wal.h).
  SyncMode sync = SyncMode::kFlush;
  // LSN tickets start above max(this, the log's persisted last LSN).
  // Recovery seeds it with the snapshot's covered LSN: after a checkpoint
  // truncated the log, the file alone no longer remembers how far
  // numbering got, and a restart that restarted at 1 would make the next
  // recovery skip genuinely new records as "already covered".
  uint64_t min_last_lsn = 0;
};

class WalWriter {
 public:
  // Opens (creating or appending) the log at `path` and starts the writer
  // thread. LSN numbering resumes from the existing frames. When the
  // caller already parsed the log (recovery replays it first), pass that
  // pass's WalScan as `prescan` so the file is not read a second time
  // (WriteAheadLog::OpenScanned).
  static Result<std::unique_ptr<WalWriter>> Open(
      const std::string& path, const WalWriterOptions& options = {},
      const WalScan* prescan = nullptr);

  // Drains every enqueued record, then stops and joins the writer thread.
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Serializes `record`, enqueues it, and returns its LSN ticket. Never
  // blocks on I/O; write/sync errors surface in WaitDurable.
  uint64_t Enqueue(const JsonValue& record);

  // Blocks until every record with an LSN <= `lsn` is durable per the
  // configured SyncMode, or returns the sticky writer error. The calling
  // thread may be drafted as the group-commit leader and perform the
  // write+sync itself (see the header comment).
  Status WaitDurable(uint64_t lsn);

  // Synchronous append: Enqueue + WaitDurable. Still benefits from group
  // commit when other threads append concurrently.
  Status Append(const JsonValue& record);

  // Checkpoint compaction: drains the queue, truncates the underlying log,
  // and (on success) clears any sticky error. Contract: the caller must
  // (a) have persisted a snapshot covering last_enqueued_lsn() and
  // (b) exclude concurrent Enqueue/Append for the duration — a record
  // enqueued mid-truncation could be deleted while its waiter is told it
  // is durable. AdeptSystem satisfies both (single-threaded engine turn;
  // the cluster checkpoints, and records claims, under the shard lock).
  Status Truncate();

  // Attaches (or, with nullptr, detaches) the commit hook; see
  // WalCommitHook above for the delivery and lifetime contract. Frames
  // drained before the attach are not replayed through the hook — the
  // replication layer reads them from the file (WriteAheadLog::ReadTail).
  void SetCommitHook(WalCommitHook* hook);

  const std::string& path() const { return path_; }
  SyncMode sync_mode() const { return options_.sync; }
  // Highest LSN ticket handed out so far.
  uint64_t last_enqueued_lsn() const;
  // Highest LSN known durable per the configured SyncMode.
  uint64_t durable_lsn() const;

 private:
  struct Pending {
    uint64_t lsn;
    std::string payload;
  };

  WalWriter(std::string path, const WalWriterOptions& options,
            std::unique_ptr<WriteAheadLog> log);

  // Takes one batch off the queue and writes+syncs it with mu_ released
  // (`lock` must hold mu_; writing_ is set for the duration). Runs on a
  // leader's thread or the background thread.
  void DrainBatchLocked(std::unique_lock<std::mutex>& lock);
  // The leader/follower wait loop; `lock` must hold mu_.
  Status WaitDurableLocked(uint64_t lsn, std::unique_lock<std::mutex>& lock);
  void WriterLoop();

  const std::string path_;
  const WalWriterOptions options_;
  // Touched only while writing_ is held, or under mu_ after a drain
  // (Truncate).
  std::unique_ptr<WriteAheadLog> log_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;     // wakes the background thread
  std::condition_variable durable_cv_;  // wakes WaitDurable/Truncate callers
  std::deque<Pending> queue_;           // guarded by mu_
  uint64_t next_lsn_ = 0;               // guarded by mu_; last ticket issued
  uint64_t durable_lsn_ = 0;            // guarded by mu_
  WalCommitHook* hook_ = nullptr;       // guarded by mu_ (pointer itself)
  Status error_;                        // guarded by mu_; sticky
  size_t waiters_ = 0;                  // guarded by mu_; WaitDurable callers
  bool writing_ = false;                // guarded by mu_; batch in flight
  bool stopping_ = false;               // guarded by mu_
  bool stopped_ = false;                // guarded by mu_; loop exited
  std::thread writer_;
};

}  // namespace adept

#endif  // ADEPT_STORAGE_WAL_WRITER_H_
