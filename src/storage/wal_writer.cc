#include "storage/wal_writer.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace adept {

// Cap on frames coalesced into one write+sync cycle; bounds the latency a
// single huge backlog can impose on the oldest waiter.
constexpr size_t kMaxBatchRecords = 4096;

Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    const std::string& path, const WalWriterOptions& options,
    const WalScan* prescan) {
  std::unique_ptr<WriteAheadLog> log;
  if (prescan != nullptr) {
    ADEPT_ASSIGN_OR_RETURN(log, WriteAheadLog::OpenScanned(path, *prescan));
  } else {
    ADEPT_ASSIGN_OR_RETURN(log, WriteAheadLog::Open(path));
  }
  return std::unique_ptr<WalWriter>(
      new WalWriter(path, options, std::move(log)));
}

WalWriter::WalWriter(std::string path, const WalWriterOptions& options,
                     std::unique_ptr<WriteAheadLog> log)
    : path_(std::move(path)), options_(options), log_(std::move(log)) {
  next_lsn_ = std::max(log_->last_lsn(), options_.min_last_lsn);
  durable_lsn_ = next_lsn_;
  writer_ = std::thread([this] { WriterLoop(); });
}

WalWriter::~WalWriter() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
}

uint64_t WalWriter::Enqueue(const JsonValue& record) {
  std::string payload = record.Dump();  // serialize outside the lock
  uint64_t lsn;
  bool background = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    lsn = ++next_lsn_;
    queue_.push_back({lsn, std::move(payload)});
    // With a waiter around, that waiter (or the current leader's handover)
    // drains the record; only a fire-and-forget append with nobody waiting
    // needs the background thread.
    background = waiters_ == 0;
  }
  if (background) work_cv_.notify_one();
  return lsn;
}

Status WalWriter::WaitDurableLocked(uint64_t lsn,
                                    std::unique_lock<std::mutex>& lock) {
  ++waiters_;
  while (durable_lsn_ < lsn && error_.ok() && !stopped_) {
    if (!writing_ && !queue_.empty()) {
      // Leader election is implicit: whoever observes an idle log with a
      // backlog drains it inline. Followers sleep below; when this batch
      // lands, any follower whose LSN is still pending becomes the next
      // leader for what queued up during the I/O.
      DrainBatchLocked(lock);
    } else {
      durable_cv_.wait(lock);
    }
  }
  --waiters_;
  if (waiters_ == 0 && !queue_.empty()) {
    // Records arrived while the last waiter was finishing up; hand the
    // remainder to the background drain.
    work_cv_.notify_one();
  }
  if (durable_lsn_ >= lsn) return Status::OK();
  if (!error_.ok()) return error_;
  return Status::Corruption("WAL writer stopped before LSN became durable");
}

Status WalWriter::WaitDurable(uint64_t lsn) {
  WalCommitHook* hook = nullptr;
  {
    std::unique_lock<std::mutex> lock(mu_);
    ADEPT_RETURN_IF_ERROR(WaitDurableLocked(lsn, lock));
    hook = hook_;
  }
  // Remote durability (quorum acks) is awaited with mu_ released: the wait
  // blocks on the network, and holding mu_ here would stall every local
  // appender behind a slow replica.
  if (hook != nullptr) return hook->WaitRemote(lsn);
  return Status::OK();
}

Status WalWriter::Append(const JsonValue& record) {
  // One lock acquisition covers enqueue + lead + wait: the solo-appender
  // path is append, inline write+sync, return — no handoff, no second
  // mutex round trip.
  std::string payload = record.Dump();  // serialize outside the lock
  uint64_t lsn;
  WalCommitHook* hook = nullptr;
  {
    std::unique_lock<std::mutex> lock(mu_);
    lsn = ++next_lsn_;
    queue_.push_back({lsn, std::move(payload)});
    ADEPT_RETURN_IF_ERROR(WaitDurableLocked(lsn, lock));
    hook = hook_;
  }
  if (hook != nullptr) return hook->WaitRemote(lsn);
  return Status::OK();
}

void WalWriter::SetCommitHook(WalCommitHook* hook) {
  std::lock_guard<std::mutex> lock(mu_);
  hook_ = hook;
}

Status WalWriter::Truncate() {
  std::unique_lock<std::mutex> lock(mu_);
  // Drain: once the queue is empty and no batch is in flight, the writer
  // thread is parked on work_cv_ and cannot touch log_ while we hold mu_.
  durable_cv_.wait(lock,
                   [&] { return (queue_.empty() && !writing_) || stopped_; });
  if (!queue_.empty() || writing_) {
    return Status::Corruption("WAL writer stopped with a pending backlog");
  }
  Status st = log_->Truncate();
  if (st.ok()) {
    // Fresh file: a prior I/O failure is repaired, and every LSN handed out
    // so far is covered by the caller's snapshot.
    error_ = Status::OK();
    durable_lsn_ = next_lsn_;
    durable_cv_.notify_all();
  }
  return st;
}

uint64_t WalWriter::last_enqueued_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_;
}

uint64_t WalWriter::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_lsn_;
}

void WalWriter::DrainBatchLocked(std::unique_lock<std::mutex>& lock) {
  std::vector<Pending> batch;
  batch.reserve(std::min(queue_.size(), kMaxBatchRecords));
  while (!queue_.empty() && batch.size() < kMaxBatchRecords) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  writing_ = true;
  WalCommitHook* hook = hook_;
  lock.unlock();

  // Group commit: one frame write per record, one Sync per batch.
  Status st;
  for (const Pending& pending : batch) {
    st = log_->AppendFrame(pending.lsn, pending.payload);
    if (!st.ok()) break;
  }
  if (st.ok()) st = log_->Sync(options_.sync);

  if (st.ok() && hook != nullptr) {
    // Still inside the drain token (writing_), so hooks see batches one at
    // a time in LSN order; the contract says this only buffers.
    std::vector<WalFrame> frames;
    frames.reserve(batch.size());
    for (const Pending& pending : batch) {
      frames.push_back({pending.lsn, pending.payload});
    }
    hook->OnDurableBatch(frames);
  }

  lock.lock();
  writing_ = false;
  if (st.ok()) {
    durable_lsn_ = batch.back().lsn;
  } else if (error_.ok()) {
    error_ = st;
  }
  // Wake followers (one of them leads the next batch if the queue refilled
  // during the I/O) and Truncate drains.
  durable_cv_.notify_all();
  if (!queue_.empty() && waiters_ == 0) work_cv_.notify_one();
}

void WalWriter::WriterLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Drain of last resort: only runs for records nobody waits on
    // (defer_wal_sync pipelining, a rolled-back claim's release) — an
    // active waiter is always the preferred leader. On shutdown the
    // backlog is drained here regardless.
    work_cv_.wait(lock, [&] {
      if (writing_) return false;  // a leader owns the log
      if (!queue_.empty()) return stopping_ || waiters_ == 0;
      return stopping_;
    });
    if (queue_.empty()) break;  // stopping_ with a drained queue
    DrainBatchLocked(lock);
  }
  stopped_ = true;
  durable_cv_.notify_all();
}

}  // namespace adept
