// WorkerPool: a small fixed-size thread pool for shard-parallel execution.
//
// Deliberately minimal: FIFO task queue, no work stealing, no futures.
// Callers that need to join on a set of tasks submit them together with a
// shared BlockingCounter. The pool is owned by AdeptCluster and sized to
// the shard count (more threads cannot help: one mutex per shard).

#ifndef ADEPT_CLUSTER_THREAD_POOL_H_
#define ADEPT_CLUSTER_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace adept {

// Counts down to zero; Wait() blocks until it gets there.
class BlockingCounter {
 public:
  explicit BlockingCounter(size_t count) : count_(count) {}

  void DecrementCount() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--count_ == 0) done_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [&] { return count_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable done_;
  size_t count_;
};

class WorkerPool {
 public:
  explicit WorkerPool(size_t threads) {
    if (threads == 0) threads = 1;
    workers_.reserve(threads);
    for (size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  void Submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(task));
    }
    wake_.notify_one();
  }

 private:
  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ and drained
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  std::mutex mu_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace adept

#endif  // ADEPT_CLUSTER_THREAD_POOL_H_
