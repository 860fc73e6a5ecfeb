// E8 (ablation): design choices of the storage layer.
//
//   BM_OverlayVsDeltaSize   overlay resolution cost as the substitution
//                           block grows (is "minimal block" worth it?)
//   BM_WalAppend            WAL record append+flush throughput
//   BM_Recovery             full recovery time vs. WAL length
//   BM_SnapshotCheckpoint   snapshot write + WAL truncation cost, with
//                           every instance cached or every one changed
//
// Expected shape: overlay lookups degrade gracefully with delta size
// (hash lookups); recovery is linear in WAL records; checkpointing turns
// long recoveries into O(state) loads, and a cached instance costs a copy
// of its text.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <vector>

#include "bench/bench_util.h"
#include "core/adept.h"
#include "storage/overlay_schema.h"
#include "storage/wal.h"

namespace adept {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void BM_OverlayVsDeltaSize(benchmark::State& state) {
  auto base = bench::ScaledSchema(200, 31, "ablation");
  // Build a bias with `k` serial inserts before the end node.
  int k = static_cast<int>(state.range(0));
  Delta bias;
  NodeId end = base->end_node();
  NodeId last = base->Predecessors(end, EdgeType::kControl)[0];
  for (int i = 0; i < k; ++i) {
    NewActivitySpec spec;
    spec.name = "pad" + std::to_string(i);
    bias.Add(std::make_unique<SerialInsertOp>(spec, last, end));
    // Chain: next insert goes between the new node and end; resolve after
    // first application below.
  }
  BiasIdAllocator alloc;
  // Apply ops one by one, rewiring the anchor to keep the chain valid.
  auto current = base->Clone();
  (void)current->Freeze();
  std::shared_ptr<ProcessSchema> biased;
  {
    Delta chained;
    NodeId anchor = last;
    for (int i = 0; i < k; ++i) {
      NewActivitySpec spec;
      spec.name = "pad" + std::to_string(i);
      auto* op = chained.Add(
          std::make_unique<SerialInsertOp>(spec, anchor, end));
      auto applied = chained.ApplyRaw(*base, base->version(), &alloc);
      if (!applied.ok()) {
        state.SkipWithError(applied.status().message().c_str());
        return;
      }
      biased = *applied;
      anchor = static_cast<SerialInsertOp*>(op)->inserted_node();
    }
  }
  auto block = std::make_shared<const SubstitutionBlock>(
      ComputeSubstitutionBlock(*base, *biased));
  OverlaySchema overlay(base, block);

  std::vector<NodeId> nodes = overlay.NodeIds();
  size_t cursor = 0;
  for (auto _ : state) {
    NodeId id = nodes[cursor++ % nodes.size()];
    const Node* n = overlay.FindNode(id);
    benchmark::DoNotOptimize(n);
    auto succs = overlay.Successors(id, EdgeType::kControl);
    benchmark::DoNotOptimize(succs);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["block_nodes"] = static_cast<double>(block->nodes.size());
  state.counters["block_bytes"] =
      static_cast<double>(block->MemoryFootprint());
}
BENCHMARK(BM_OverlayVsDeltaSize)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kNanosecond);

void BM_WalAppend(benchmark::State& state) {
  std::string path = TempPath("adept_bench_wal.log");
  std::remove(path.c_str());
  auto wal = std::move(WriteAheadLog::Open(path)).value();
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("act"));
  record.Set("ev", JsonValue("complete"));
  record.Set("id", JsonValue(12345));
  record.Set("node", JsonValue(17));
  for (auto _ : state) {
    // Append + flush reproduces the historical per-append durability cost;
    // bench_wal_throughput covers the group-commit path.
    auto lsn = wal->Append(record);
    benchmark::DoNotOptimize(lsn);
    Status st = wal->Sync(SyncMode::kFlush);
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(state.iterations());
  wal.reset();
  std::remove(path.c_str());
}
BENCHMARK(BM_WalAppend)->Unit(benchmark::kMicrosecond);

// Recovery time as a function of logged history length.
void BM_Recovery(benchmark::State& state) {
  AdeptOptions options;
  options.wal_path = TempPath("adept_bench_recovery.wal");
  options.snapshot_path = TempPath("adept_bench_recovery.snap");
  std::remove(options.wal_path.c_str());
  std::remove(options.snapshot_path.c_str());
  {
    auto system = std::move(AdeptSystem::Create(options)).value();
    (void)system->DeployProcessType(bench::OnlineOrderV1());
    SimulationDriver driver({.seed = 1});
    int instances = static_cast<int>(state.range(0));
    for (int i = 0; i < instances; ++i) {
      auto id = *system->CreateInstance("online_order");
      (void)system->DriveToCompletion(id, driver);
    }
  }
  for (auto _ : state) {
    auto recovered = AdeptSystem::Recover(options);
    benchmark::DoNotOptimize(recovered);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["wal_bytes"] = static_cast<double>(
      std::filesystem::file_size(options.wal_path));
  std::remove(options.wal_path.c_str());
  std::remove(options.snapshot_path.c_str());
}
BENCHMARK(BM_Recovery)
    ->Arg(10)
    ->Arg(100)
    ->Arg(500)
    ->Unit(benchmark::kMillisecond);

// A checkpoint of range(0) instances, range(1) percent of which changed
// since the previous checkpoint. A changed instance is exported, evicted
// and re-imported untimed: the file's bytes stay the same, but the
// checkpoint serializes it afresh instead of copying its cached text.
void BM_SnapshotCheckpoint(benchmark::State& state) {
  AdeptOptions options;
  options.wal_path = TempPath("adept_bench_snap.wal");
  options.snapshot_path = TempPath("adept_bench_snap.snap");
  std::remove(options.wal_path.c_str());
  std::remove(options.snapshot_path.c_str());
  auto system = std::move(AdeptSystem::Create(options)).value();
  (void)system->DeployProcessType(bench::OnlineOrderV1());
  SimulationDriver driver({.seed = 2});
  std::vector<InstanceId> ids;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    auto id = *system->CreateInstance("online_order");
    (void)system->DriveToCompletion(id, driver);
    ids.push_back(id);
  }
  ids.resize(ids.size() * static_cast<size_t>(state.range(1)) / 100);
  (void)system->SaveSnapshot();
  for (auto _ : state) {
    state.PauseTiming();
    for (InstanceId id : ids) {
      auto exported = system->ExportInstance(id);
      (void)system->EvictInstance(id);
      (void)system->ImportInstance(*exported);
    }
    state.ResumeTiming();
    Status st = system->SaveSnapshot();
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["snapshot_bytes"] = static_cast<double>(
      std::filesystem::file_size(options.snapshot_path));
  std::remove(options.wal_path.c_str());
  std::remove(options.snapshot_path.c_str());
}
BENCHMARK(BM_SnapshotCheckpoint)
    ->ArgsProduct({{100, 500}, {0, 100}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace adept

BENCHMARK_MAIN();
