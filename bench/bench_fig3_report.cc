// E4 (paper Fig. 3): end-to-end schema evolution with migration report,
// "the concomitant migration of thousands of instances ... on-the-fly".
//
//   BM_EvolutionEndToEnd  derive V2, classify + migrate every instance,
//                         adapt states, render the Fig. 3 report
//   BM_LazyVsEager        eager full migration vs. lazy planning (dry-run
//                         classification now, per-instance migration later)
//   BM_MigrateToLatestAfterVersions
//                         one MigrateToLatest round of 20,000 instances
//                         after a history of N versions
//
// Expected shape: ~linear in N up to 10^4+ instances; lazy classification
// is cheaper up front, and the deferred per-instance migrations cost the
// same total work. A round costs what it examines and migrates, not how
// many versions the type has: CI gates /41 at 1.3x /2.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>

#include "bench/bench_util.h"
#include "core/adept.h"
#include "monitor/monitor.h"

namespace adept {
namespace {

using bench::Fig1TypeChange;
using bench::MakePopulation;
using bench::PopulationOptions;

void BM_EvolutionEndToEnd(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    PopulationOptions options;
    options.instances = static_cast<int>(state.range(0));
    options.biased_fraction = 0.1;
    options.conflicting_fraction = 0.3;
    auto pop = MakePopulation(options);
    state.ResumeTiming();

    SchemaId v2 =
        *pop->repo.DeriveVersion(pop->v1_id, Fig1TypeChange(*pop->v1));
    auto report = pop->manager->MigrateAll(pop->v1_id, v2);
    std::string rendered = RenderMigrationReport(*report);
    benchmark::DoNotOptimize(rendered);

    state.counters["migrated"] = static_cast<double>(report->MigratedTotal());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EvolutionEndToEnd)
    ->Arg(1000)
    ->Arg(5000)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

void BM_LazyVsEager(benchmark::State& state) {
  const bool lazy = state.range(1) != 0;
  for (auto _ : state) {
    state.PauseTiming();
    PopulationOptions options;
    options.instances = static_cast<int>(state.range(0));
    options.biased_fraction = 0.1;
    auto pop = MakePopulation(options);
    SchemaId v2 =
        *pop->repo.DeriveVersion(pop->v1_id, Fig1TypeChange(*pop->v1));
    state.ResumeTiming();

    if (lazy) {
      // Upfront: classification only (what the user sees immediately).
      MigrationOptions dry;
      dry.dry_run = true;
      auto plan = pop->manager->MigrateAll(pop->v1_id, v2, dry);
      benchmark::DoNotOptimize(plan);
      // Deferred: instances migrate one by one on next access.
      const Delta* delta = *pop->repo.DeltaFor(v2);
      for (InstanceId id : pop->ids) {
        TraceNotePool notes;  // one migration per access: nothing shared
        auto r =
            pop->manager->MigrateOne(id, pop->v1_id, v2, *delta, {}, notes);
        benchmark::DoNotOptimize(r);
      }
    } else {
      auto report = pop->manager->MigrateAll(pop->v1_id, v2);
      benchmark::DoNotOptimize(report);
    }
  }
  state.SetLabel(lazy ? "lazy (classify + on-demand)" : "eager");
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LazyVsEager)
    ->ArgsProduct({{2000}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// A standalone system with a flushed WAL and 20,000 online orders
// (0-3 steps of progress, 10% disjoint bias) evolves round after round,
// alternately inserting and deleting "audit", and migrates to the latest
// version after each round. Untimed set-up rounds bring the type to N - 1
// versions; each of the four timed iterations evolves once more (untimed)
// and times the MigrateToLatest, the first at N versions. Instances that
// stay behind are re-examined in every round, so each round examines all
// 20,000 (items); the older version pairs hold only those.
void BM_MigrateToLatestAfterVersions(benchmark::State& state) {
  constexpr int kInstances = 20000;
  AdeptOptions options;
  options.wal_path = (std::filesystem::temp_directory_path() /
                      "adept_bench_migrate_history.wal")
                         .string();
  options.sync = SyncMode::kFlush;
  auto system = std::move(AdeptSystem::Create(options)).value();
  std::shared_ptr<const ProcessSchema> v1 = bench::OnlineOrderV1();
  (void)system->DeployProcessType(v1);
  Rng rng(7);
  SimulationDriver driver({.seed = 8});
  for (int i = 0; i < kInstances; ++i) {
    InstanceId id = *system->CreateInstance("online_order");
    if (rng.NextDouble() < 0.1) {
      (void)system->ApplyAdHocChange(id, bench::DisjointBias(*v1));
    }
    for (uint64_t step = rng.NextBelow(4); step > 0; --step) {
      (void)system->DriveStep(id, driver);
    }
  }
  int rounds = 0;
  auto evolve = [&] {
    SchemaId latest = *system->LatestVersion("online_order");
    std::shared_ptr<const ProcessSchema> schema = *system->Schema(latest);
    (void)system->EvolveProcessType(latest, rounds++ % 2 == 0
                                                ? bench::InsertAudit(*schema)
                                                : bench::DeleteAudit(*schema));
  };
  for (int64_t versions = 2; versions < state.range(0); ++versions) {
    evolve();
    (void)system->MigrateToLatest("online_order");
  }

  size_t examined = 0;
  for (auto _ : state) {
    state.PauseTiming();
    evolve();
    state.ResumeTiming();
    auto report = system->MigrateToLatest("online_order");
    benchmark::DoNotOptimize(report);
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      break;
    }
    examined += report->results.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(examined));
  system.reset();
  std::remove(options.wal_path.c_str());
}
BENCHMARK(BM_MigrateToLatestAfterVersions)
    ->Arg(2)
    ->Arg(41)
    ->Iterations(4)
    ->Unit(benchmark::kMillisecond);

// Report rendering alone (the monitoring component's share).
void BM_ReportRendering(benchmark::State& state) {
  PopulationOptions options;
  options.instances = static_cast<int>(state.range(0));
  options.biased_fraction = 0.2;
  options.conflicting_fraction = 0.5;
  auto pop = MakePopulation(options);
  SchemaId v2 = *pop->repo.DeriveVersion(pop->v1_id, Fig1TypeChange(*pop->v1));
  MigrationOptions dry;
  dry.dry_run = true;
  auto report = *pop->manager->MigrateAll(pop->v1_id, v2, dry);

  for (auto _ : state) {
    std::string rendered = RenderMigrationReport(report);
    benchmark::DoNotOptimize(rendered);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReportRendering)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace adept

BENCHMARK_MAIN();
