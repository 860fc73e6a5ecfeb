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
}

WalWriter::~WalWriter() {
  std::unique_lock<std::mutex> lock(mu_);
  DrainQueueLocked(lock);
}

uint64_t WalWriter::Enqueue(const JsonValue& record) {
  std::string payload = record.Dump();  // serialize outside the lock
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t lsn = ++next_lsn_;
  queue_.push_back({lsn, std::move(payload)});
  return lsn;
}

Status WalWriter::WaitDurable(uint64_t lsn) {
  WalCommitHook* hook = nullptr;
  {
    std::unique_lock<std::mutex> lock(mu_);
    while (durable_lsn_ < lsn && error_.ok()) {
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
    if (durable_lsn_ < lsn) return error_;
    hook = hook_;
  }
  // Remote durability (quorum acks) is awaited with mu_ released: the wait
  // blocks on the network, and holding mu_ here would stall every local
  // appender behind a slow replica.
  if (hook != nullptr) return hook->WaitRemote(lsn);
  return Status::OK();
}

Status WalWriter::Append(const JsonValue& record) {
  return WaitDurable(Enqueue(record));
}

void WalWriter::SetCommitHook(WalCommitHook* hook) {
  std::lock_guard<std::mutex> lock(mu_);
  hook_ = hook;
}

Status WalWriter::Truncate() {
  std::unique_lock<std::mutex> lock(mu_);
  // Once the queue is drained and no batch is in flight, nothing touches
  // log_ while we hold mu_ (the contract excludes concurrent appenders).
  DrainQueueLocked(lock);
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
  // during the I/O) and a Truncate or destructor waiting out this batch.
  durable_cv_.notify_all();
}

void WalWriter::DrainQueueLocked(std::unique_lock<std::mutex>& lock) {
  while (writing_ || !queue_.empty()) {
    if (writing_) {
      durable_cv_.wait(lock);  // a leader's batch is in flight
    } else {
      DrainBatchLocked(lock);
    }
  }
}

}  // namespace adept
