// E7: engine execution throughput ("adaptive, high-performance process
// management").
//
//   BM_ActivityThroughput   start+complete cycles per second on a pool of
//                           concurrent instances
//   BM_UnbiasedVsBiased     the same workload where half the instances are
//                           ad-hoc modified and execute through overlay
//                           views — the paper's claim is that unchanged
//                           instances pay nothing and changed ones little
//   BM_DriveStep/A/C        one AdeptSystem::DriveStep (start + complete of
//                           one activity and its marking propagation) on
//                           instances of ScaledSchema(A) that each took C
//                           ad-hoc changes before stepping
//
// Expected shape: biased execution within a small factor of unbiased;
// throughput independent of the number of co-resident instances; a step
// costs the nodes it touches, not the schema. Propagation used to re-scan
// every node until a pass changed nothing. Measured (Release, GCC 12,
// shared 4 vCPU), BM_DriveStep/400/8 against BM_DriveStep/20/8 took
// 901 us against 28 us (32x) then and takes 18-26 us against 9.5-10.5 us
// (1.9-2.5x) now; CI gates the ratio at <= 3x (tools/bench_gates.py).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/adept.h"

namespace adept {
namespace {

using bench::MakePopulation;
using bench::PopulationOptions;

void BM_ActivityThroughput(benchmark::State& state) {
  PopulationOptions options;
  options.instances = static_cast<int>(state.range(0));
  options.max_progress = 0.0;  // fresh instances
  auto pop = MakePopulation(options);
  SimulationDriver driver({.seed = 99});

  size_t executed = 0;
  size_t cursor = 0;
  for (auto _ : state) {
    // Round-robin one activity per instance; recycle finished instances.
    InstanceId id = pop->ids[cursor++ % pop->ids.size()];
    ProcessInstance* inst = pop->engine.Find(id);
    if (inst->Finished()) {
      state.PauseTiming();
      ProcessInstance* fresh =
          *pop->engine.CreateInstance(pop->v1, pop->v1_id);
      (void)pop->store->Register(fresh->id(), pop->v1_id);
      (void)fresh->Start();
      pop->ids[(cursor - 1) % pop->ids.size()] = fresh->id();
      state.ResumeTiming();
      inst = fresh;
    }
    auto progressed = driver.Step(*inst);
    benchmark::DoNotOptimize(progressed);
    ++executed;
  }
  state.SetItemsProcessed(static_cast<int64_t>(executed));
}
BENCHMARK(BM_ActivityThroughput)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

void BM_UnbiasedVsBiased(benchmark::State& state) {
  const bool biased = state.range(0) != 0;
  PopulationOptions options;
  options.instances = 200;
  options.biased_fraction = biased ? 1.0 : 0.0;
  options.max_progress = 0.0;
  auto pop = MakePopulation(options);
  SimulationDriver driver({.seed = 5});

  size_t cursor = 0;
  size_t executed = 0;
  for (auto _ : state) {
    InstanceId id = pop->ids[cursor++ % pop->ids.size()];
    ProcessInstance* inst = pop->engine.Find(id);
    if (inst->Finished()) {
      state.PauseTiming();
      ProcessInstance* fresh =
          *pop->engine.CreateInstance(pop->v1, pop->v1_id);
      (void)pop->store->Register(fresh->id(), pop->v1_id);
      (void)fresh->Start();
      if (biased) {
        (void)ApplyAdHocChange(*fresh, *pop->store,
                               bench::DisjointBias(*pop->v1));
      }
      pop->ids[(cursor - 1) % pop->ids.size()] = fresh->id();
      state.ResumeTiming();
      inst = fresh;
    }
    auto progressed = driver.Step(*inst);
    benchmark::DoNotOptimize(progressed);
    ++executed;
  }
  state.SetLabel(biased ? "100% biased (overlay views)" : "unbiased");
  state.SetItemsProcessed(static_cast<int64_t>(executed));
}
BENCHMARK(BM_UnbiasedVsBiased)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// Instance creation + start cost (activation of the first activities).
void BM_InstanceCreation(benchmark::State& state) {
  auto pop = MakePopulation({.instances = 0});
  for (auto _ : state) {
    ProcessInstance* inst = *pop->engine.CreateInstance(pop->v1, pop->v1_id);
    (void)pop->store->Register(inst->id(), pop->v1_id);
    Status st = inst->Start();
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InstanceCreation)->Unit(benchmark::kMicrosecond);

// A serial insert into a random control edge whose target has not started
// yet, so the change's state conditions hold.
Delta FreshSerialInsert(const InstanceSnapshot& snapshot, Rng& rng, int n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  snapshot.schema->VisitEdges([&](const Edge& e) {
    if (e.type == EdgeType::kControl &&
        snapshot.marking.node(e.dst) == NodeState::kNotActivated) {
      edges.emplace_back(e.src, e.dst);
    }
  });
  Delta delta;
  if (edges.empty()) return delta;
  auto [pred, succ] = edges[rng.NextIndex(edges.size())];
  NewActivitySpec spec;
  spec.name = "bias" + std::to_string(n);
  delta.Add(std::make_unique<SerialInsertOp>(spec, pred, succ));
  return delta;
}

void BM_DriveStep(benchmark::State& state) {
  const int activities = static_cast<int>(state.range(0));
  const int changes = static_cast<int>(state.range(1));
  auto adept = std::move(AdeptSystem::Create()).value();
  (void)adept->DeployProcessType(
      bench::ScaledSchema(activities, /*seed=*/7, "drive"));
  Rng rng(17);
  SimulationDriver driver({.seed = 19});
  auto fresh = [&] {
    InstanceId id = *adept->CreateInstance("drive");
    for (int c = 0; c < changes; ++c) {
      (void)adept->ApplyAdHocChange(
          id, FreshSerialInsert(*adept->SnapshotOf(id), rng, c));
    }
    return id;
  };
  std::vector<InstanceId> pool;
  for (int i = 0; i < 64; ++i) pool.push_back(fresh());

  size_t cursor = 0;
  for (auto _ : state) {
    InstanceId& id = pool[cursor++ % pool.size()];
    auto progressed = adept->DriveStep(id, driver);
    if (!progressed.ok() || !*progressed) {
      // Finished (or blocked): replace it, untimed.
      state.PauseTiming();
      (void)adept->EvictInstance(id);
      id = fresh();
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(progressed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DriveStep)
    ->ArgsProduct({{20, 400}, {0, 8}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace adept

BENCHMARK_MAIN();
