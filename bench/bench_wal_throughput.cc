// WAL durability scaling: appenders × sync mode ("async durability"
// trajectory).
//
//   BM_WalPerAppendSync   baseline: one mutex-serialized WriteAheadLog and
//                         one Sync per append — the discipline the engine
//                         used before group commit (every shard-locked
//                         append flushed on its own)
//   BM_WalGroupCommit     WalWriter::Append: enqueue, then WaitDurable;
//                         the first waiter leads the batch inline (leader-
//                         based group commit), coalescing every concurrent
//                         append into a single write burst + one Sync
//   BM_WalFlushCrossover  the low-appender-count crossover, measured
//                         head-to-head in one run: per iteration it times
//                         the same kFlush append load through both
//                         disciplines and reports the speedup. With the
//                         old writer-thread handoff, group commit paid two
//                         context switches per append and lost below ~4
//                         appenders on one core; leader commit runs the
//                         solo append entirely on the caller's thread, so
//                         the speedup should be >= ~1 from 1 appender up.
//
// Append is the library's own commit pattern: an engine call enqueues its
// record (under the cluster's shard lock) and the same thread later waits
// for it, and the writer has no thread of its own, so whoever waits writes
// the batch. BENCH_wal.json therefore prices the WAL share of a cluster
// write.
//
// Arg(0) selects the SyncMode (0 none, 1 flush, 2 fsync); ->Threads(N)
// sets the number of concurrent appenders. Expected shape: comparable at
// one appender (leader commit = append + flush inline), group commit
// pulling ahead as appenders grow on the durable modes (kFlush/kFsync),
// because N syncs collapse into one per batch.
//
// Emit machine-readable results like every other bench:
//   ./build/bench_wal_throughput --benchmark_format=json

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "storage/wal.h"
#include "storage/wal_writer.h"

namespace adept {
namespace {

std::string BenchPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// A realistic activity-completion record (the hot WAL payload in practice).
JsonValue SampleRecord() {
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("act"));
  record.Set("ev", JsonValue("complete"));
  record.Set("id", JsonValue(123456789));
  record.Set("node", JsonValue(42));
  record.Set("writes", JsonValue::MakeArray());
  return record;
}

// Shared across the benchmark's worker threads; created/destroyed by the
// Setup/Teardown hooks, which run outside the threads.
std::unique_ptr<WriteAheadLog> g_log;
std::mutex g_log_mu;
std::unique_ptr<WalWriter> g_writer;

void SetUpPerAppendLog(const benchmark::State&) {
  std::string path = BenchPath("adept_bench_wal_baseline.log");
  std::remove(path.c_str());
  auto log = WriteAheadLog::Open(path);
  if (log.ok()) g_log = std::move(log).value();
}

void TearDownPerAppendLog(const benchmark::State&) {
  std::string path = g_log != nullptr ? g_log->path() : std::string();
  g_log.reset();
  if (!path.empty()) std::remove(path.c_str());
}

void BM_WalPerAppendSync(benchmark::State& state) {
  const SyncMode mode = static_cast<SyncMode>(state.range(0));
  if (g_log == nullptr) {
    state.SkipWithError("WAL setup failed");
    return;
  }
  const JsonValue record = SampleRecord();
  for (auto _ : state) {
    std::lock_guard<std::mutex> lock(g_log_mu);
    auto lsn = g_log->Append(record);
    benchmark::DoNotOptimize(lsn);
    Status st = g_log->Sync(mode);
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sync"] = benchmark::Counter(
      static_cast<double>(mode), benchmark::Counter::kAvgThreads);
  state.counters["appenders"] = benchmark::Counter(
      state.threads(), benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_WalPerAppendSync)
    ->Setup(SetUpPerAppendLog)
    ->Teardown(TearDownPerAppendLog)
    ->Arg(static_cast<int>(SyncMode::kNone))
    ->Arg(static_cast<int>(SyncMode::kFlush))
    ->Arg(static_cast<int>(SyncMode::kFsync))
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void SetUpGroupCommit(const benchmark::State& state) {
  std::string path = BenchPath("adept_bench_wal_group.log");
  std::remove(path.c_str());
  WalWriterOptions options;
  options.sync = static_cast<SyncMode>(state.range(0));
  auto writer = WalWriter::Open(path, options);
  if (writer.ok()) g_writer = std::move(writer).value();
}

void TearDownGroupCommit(const benchmark::State&) {
  std::string path = g_writer != nullptr ? g_writer->path() : std::string();
  g_writer.reset();
  if (!path.empty()) std::remove(path.c_str());
}

void BM_WalGroupCommit(benchmark::State& state) {
  if (g_writer == nullptr) {
    state.SkipWithError("WalWriter setup failed");
    return;
  }
  const JsonValue record = SampleRecord();
  for (auto _ : state) {
    Status st = g_writer->Append(record);
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sync"] = benchmark::Counter(
      static_cast<double>(state.range(0)), benchmark::Counter::kAvgThreads);
  state.counters["appenders"] = benchmark::Counter(
      state.threads(), benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_WalGroupCommit)
    ->Setup(SetUpGroupCommit)
    ->Teardown(TearDownGroupCommit)
    ->Arg(static_cast<int>(SyncMode::kNone))
    ->Arg(static_cast<int>(SyncMode::kFlush))
    ->Arg(static_cast<int>(SyncMode::kFsync))
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// --- The kFlush crossover, head-to-head --------------------------------------

// Runs `appenders` threads each performing `ops` calls of `append`,
// returning the wall time of the whole run. A start gate keeps thread
// spawn cost out of the measured window.
double TimedAppendRun(int appenders, int ops,
                      const std::function<void()>& append) {
  std::atomic<bool> go{false};
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(appenders));
  for (int t = 0; t < appenders; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int k = 0; k < ops; ++k) append();
    });
  }
  while (ready.load(std::memory_order_acquire) < appenders) {
    std::this_thread::yield();
  }
  auto begin = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - begin).count();
}

// One iteration = the same kFlush append load pushed through the
// per-append-sync baseline and through the leader-commit WalWriter; the
// reported (manual) time is the group-commit side, the counters carry
// both throughputs and the speedup. Arg(0) = appender count — the
// interesting region is 1..4, where the old writer-thread handoff kept
// group commit behind plain flushing on one core.
void BM_WalFlushCrossover(benchmark::State& state) {
  const int appenders = static_cast<int>(state.range(0));
  const int kOps = 256;
  const JsonValue record = SampleRecord();
  double per_append_seconds = 0;
  double group_seconds = 0;
  size_t total_ops = 0;
  for (auto _ : state) {
    const std::string base_path = BenchPath("adept_bench_wal_crossover");
    std::remove((base_path + ".baseline").c_str());
    std::remove((base_path + ".group").c_str());
    double per_append = 0;
    {
      auto log = WriteAheadLog::Open(base_path + ".baseline");
      if (!log.ok()) {
        state.SkipWithError("baseline WAL setup failed");
        return;
      }
      std::mutex mu;
      per_append = TimedAppendRun(appenders, kOps, [&] {
        std::lock_guard<std::mutex> lock(mu);
        (void)(*log)->Append(record);
        (void)(*log)->Sync(SyncMode::kFlush);
      });
    }
    double group = 0;
    {
      WalWriterOptions options;
      options.sync = SyncMode::kFlush;
      auto writer = WalWriter::Open(base_path + ".group", options);
      if (!writer.ok()) {
        state.SkipWithError("WalWriter setup failed");
        return;
      }
      group = TimedAppendRun(appenders, kOps,
                             [&] { (void)(*writer)->Append(record); });
    }
    std::remove((base_path + ".baseline").c_str());
    std::remove((base_path + ".group").c_str());
    per_append_seconds += per_append;
    group_seconds += group;
    total_ops += static_cast<size_t>(appenders) * kOps;
    state.SetIterationTime(group);
  }
  state.SetItemsProcessed(static_cast<int64_t>(total_ops));
  state.counters["appenders"] = appenders;
  state.counters["per_append_ops_per_s"] =
      per_append_seconds > 0 ? total_ops / per_append_seconds : 0;
  state.counters["group_ops_per_s"] =
      group_seconds > 0 ? total_ops / group_seconds : 0;
  // > 1: leader-based group commit beats per-append flushing.
  state.counters["group_speedup"] =
      group_seconds > 0 ? per_append_seconds / group_seconds : 0;
}
BENCHMARK(BM_WalFlushCrossover)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime();

}  // namespace
}  // namespace adept

BENCHMARK_MAIN();
