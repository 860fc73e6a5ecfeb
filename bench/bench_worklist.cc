// WorklistService scaling: offer fan-out, concurrent claim contention,
// and the revocation storm of a bulk migration.
//
//   BM_WorklistOfferFanout     OffersFor() against a pool of open items
//                              spread over 8 roles — exercises the
//                              per-role offer index (no full-table scan);
//                              Arg(0) = total open items
//   BM_WorklistClaimContention N threads race Claim()+Release() over a
//                              shared pool — exercises the exactly-once
//                              compare-and-swap and the group commit of
//                              the claim records on the shard WALs;
//                              Arg(0) = the shard WALs' SyncMode (0 none,
//                              1 flush, 2 fsync), ->Threads(N) sets the
//                              claimer count
//   BM_WorklistRevocationStorm one bulk MigrateToLatest() that demotes
//                              the offered/claimed activity of every
//                              instance — Arg(0) instances, half claimed
//   BM_WorklistTaskAfterHistory one Claim+Start+Complete task on a 1-shard
//                              cluster that already ran Arg(0) tasks —
//                              the cost of a task must not grow with the
//                              history (CI gates /20000 <= 2x /0)
//
// Emit machine-readable results like every other bench:
//   ./build/bench_worklist --benchmark_format=json

#include <benchmark/benchmark.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "change/change_op.h"
#include "cluster/adept_cluster.h"
#include "model/schema_builder.h"
#include "worklist/worklist_service.h"

namespace adept {
namespace {

constexpr int kRoles = 8;
constexpr int kShards = 4;

std::string BenchPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void RemoveBenchFiles(const std::string& base) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::temp_directory_path(), ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(base, 0) == 0) std::filesystem::remove(entry.path(), ec);
  }
}

// One role-carrying activity per role, in sequence; instance k offers its
// first activity to role (k % kRoles).
std::shared_ptr<const ProcessSchema> BenchSchema(
    const std::vector<RoleId>& roles, int first_role) {
  SchemaBuilder b("bench_wl_" + std::to_string(first_role), 1);
  b.Activity("work", {.role = roles[static_cast<size_t>(first_role)]});
  b.Activity("finish", {.role = roles[0]});
  auto schema = b.Build();
  return schema.ok() ? *schema : nullptr;
}

struct BenchCluster {
  std::unique_ptr<AdeptCluster> cluster;
  std::vector<RoleId> roles;
  std::vector<UserId> users;  // user u holds role (u % kRoles)
  std::vector<WorkItem> items;

  // A user authorized to claim `item` (role r's first member).
  UserId UserFor(const WorkItem& item) const {
    for (size_t r = 0; r < roles.size(); ++r) {
      if (roles[r] == item.role) return users[r];
    }
    return users[0];
  }
};

// items = open offers, one per instance, spread round-robin over roles.
std::unique_ptr<BenchCluster> MakeBenchCluster(int items, int users,
                                               const std::string& wal_base,
                                               SyncMode sync) {
  auto bc = std::make_unique<BenchCluster>();
  ClusterOptions options;
  options.shards = kShards;
  options.sync = sync;
  if (!wal_base.empty()) {
    RemoveBenchFiles(wal_base);
    options.wal_path = BenchPath(wal_base + ".wal");
    options.snapshot_path = BenchPath(wal_base + ".snapshot");
  }
  auto cluster = AdeptCluster::Create(options);
  if (!cluster.ok()) return nullptr;
  bc->cluster = std::move(cluster).value();
  OrgModel& org = bc->cluster->org();
  for (int r = 0; r < kRoles; ++r) {
    bc->roles.push_back(*org.AddRole("role" + std::to_string(r)));
  }
  for (int u = 0; u < users; ++u) {
    UserId user = *org.AddUser("user" + std::to_string(u));
    (void)org.AssignRole(user, bc->roles[static_cast<size_t>(u % kRoles)]);
    bc->users.push_back(user);
  }
  for (int r = 0; r < kRoles; ++r) {
    if (bc->cluster->DeployProcessType(BenchSchema(bc->roles, r)).ok() ==
        false) {
      return nullptr;
    }
  }
  for (int i = 0; i < items; ++i) {
    auto id = bc->cluster->CreateInstance("bench_wl_" +
                                          std::to_string(i % kRoles));
    if (!id.ok()) return nullptr;
  }
  // Collect every open item (via each role's first member).
  for (int r = 0; r < kRoles && r < users; ++r) {
    for (const WorkItem& item :
         bc->cluster->Worklist().OffersFor(bc->users[static_cast<size_t>(r)])) {
      bc->items.push_back(item);
    }
  }
  return bc;
}

std::unique_ptr<BenchCluster> g_bench;

// --- Offer fan-out -----------------------------------------------------------

void SetUpOfferFanout(const benchmark::State& state) {
  g_bench = MakeBenchCluster(static_cast<int>(state.range(0)), kRoles,
                             std::string(), SyncMode::kNone);
}

void TearDownOfferFanout(const benchmark::State&) { g_bench.reset(); }

void BM_WorklistOfferFanout(benchmark::State& state) {
  if (g_bench == nullptr) {
    state.SkipWithError("cluster setup failed");
    return;
  }
  WorklistService& worklist = g_bench->cluster->Worklist();
  size_t user_index = 0;
  size_t returned = 0;
  for (auto _ : state) {
    auto offers = worklist.OffersFor(
        g_bench->users[user_index++ % g_bench->users.size()]);
    returned += offers.size();
    benchmark::DoNotOptimize(offers);
  }
  state.SetItemsProcessed(static_cast<int64_t>(returned));
  state.counters["open_items"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_WorklistOfferFanout)
    ->Setup(SetUpOfferFanout)
    ->Teardown(TearDownOfferFanout)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

// --- Concurrent claim contention ---------------------------------------------

std::atomic<uint64_t> g_cursor{0};

void SetUpClaimContention(const benchmark::State& state) {
  g_cursor.store(0);
  g_bench = MakeBenchCluster(1024, 8, "adept_bench_worklist",
                             static_cast<SyncMode>(state.range(0)));
}

void TearDownClaimContention(const benchmark::State&) {
  g_bench.reset();
  RemoveBenchFiles("adept_bench_worklist");
}

void BM_WorklistClaimContention(benchmark::State& state) {
  if (g_bench == nullptr || g_bench->items.empty()) {
    state.SkipWithError("cluster setup failed");
    return;
  }
  // Every thread claims with a user that holds the item's role, so each
  // attempt is authorized and any failure is a genuine lost CAS against
  // a concurrent claimer. Claim+Release keeps the pool at steady state.
  WorklistService& worklist = g_bench->cluster->Worklist();
  size_t won = 0, lost = 0;
  for (auto _ : state) {
    const WorkItem& item = g_bench->items[static_cast<size_t>(
        g_cursor.fetch_add(1, std::memory_order_relaxed) %
        g_bench->items.size())];
    UserId user = g_bench->UserFor(item);
    Status st = worklist.Claim(item.id, user);
    if (st.ok()) {
      ++won;
      benchmark::DoNotOptimize(worklist.Release(item.id, user));
    } else {
      ++lost;  // a concurrent claimer won the compare-and-swap
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(won));
  state.counters["claimers"] =
      benchmark::Counter(state.threads(), benchmark::Counter::kAvgThreads);
  state.counters["sync_mode"] = benchmark::Counter(
      static_cast<double>(state.range(0)), benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_WorklistClaimContention)
    ->Setup(SetUpClaimContention)
    ->Teardown(TearDownClaimContention)
    ->Arg(0)  // SyncMode::kNone
    ->Arg(1)  // SyncMode::kFlush
    ->Arg(2)  // SyncMode::kFsync
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// --- Revocation storm --------------------------------------------------------

void BM_WorklistRevocationStorm(benchmark::State& state) {
  const int instances = static_cast<int>(state.range(0));
  size_t revoked = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto bench = MakeBenchCluster(instances, kRoles, std::string(),
                                  SyncMode::kNone);
    if (bench == nullptr) {
      state.SkipWithError("cluster setup failed");
      return;
    }
    WorklistService& worklist = bench->cluster->Worklist();
    // Claim half the pool (with authorized users) so the storm retracts
    // offered and claimed items alike.
    for (size_t i = 0; i < bench->items.size(); i += 2) {
      (void)worklist.Claim(bench->items[i].id,
                           bench->UserFor(bench->items[i]));
    }
    // One evolution per type: insert a gate before the offered activity.
    for (int r = 0; r < kRoles; ++r) {
      const std::string type = "bench_wl_" + std::to_string(r);
      auto v1 = bench->cluster->LatestVersion(type);
      auto schema = bench->cluster->Schema(*v1);
      Delta delta;
      NewActivitySpec spec;
      spec.name = "gate";
      spec.role = bench->roles[0];
      delta.Add(std::make_unique<SerialInsertOp>(
          spec, (*schema)->FindNodeByName("start"),
          (*schema)->FindNodeByName("work")));
      if (!bench->cluster->EvolveProcessType(*v1, std::move(delta)).ok()) {
        state.SkipWithError("evolve failed");
        return;
      }
    }
    state.ResumeTiming();
    // The storm: shard-parallel migration demotes "work" on every
    // instance; every open item is revoked and "gate" offered instead.
    for (int r = 0; r < kRoles; ++r) {
      auto report =
          bench->cluster->MigrateToLatest("bench_wl_" + std::to_string(r));
      benchmark::DoNotOptimize(report);
    }
    revoked += bench->cluster->Worklist().Stats().revoked_total;
    state.PauseTiming();
    bench.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(revoked));
  state.counters["instances"] = static_cast<double>(instances);
}
BENCHMARK(BM_WorklistRevocationStorm)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

// --- Task cost against history -----------------------------------------------

void BM_WorklistTaskAfterHistory(benchmark::State& state) {
  const int history = static_cast<int>(state.range(0));
  ClusterOptions options;
  options.shards = 1;
  auto cluster = AdeptCluster::Create(options);
  if (!cluster.ok()) {
    state.SkipWithError("cluster setup failed");
    return;
  }
  AdeptCluster& adept = **cluster;
  RoleId role = *adept.org().AddRole("clerk");
  UserId user = *adept.org().AddUser("clerk0");
  (void)adept.org().AssignRole(user, role);
  SchemaBuilder b("bench_wl_task", 1);
  b.Activity("task", {.role = role});
  auto schema = b.Build();
  if (!schema.ok() || !adept.DeployProcessType(*schema).ok()) {
    state.SkipWithError("deploy failed");
    return;
  }
  WorklistService& worklist = adept.Worklist();
  // Creates a case and returns its one offered task.
  auto next_item = [&]() -> Result<WorkItem> {
    ADEPT_RETURN_IF_ERROR(adept.CreateInstance("bench_wl_task").status());
    std::vector<WorkItem> offers = worklist.OffersFor(user);
    if (offers.size() != 1) return Status::Internal("expected one offer");
    return offers[0];
  };
  auto run_task = [&](const WorkItem& item) {
    Status st = worklist.Claim(item.id, user);
    if (st.ok()) st = worklist.Start(item.id, user);
    if (st.ok()) st = worklist.Complete(item.id, user);
    return st;
  };
  for (int i = 0; i < history; ++i) {
    Result<WorkItem> item = next_item();
    if (!item.ok() || !run_task(*item).ok()) {
      state.SkipWithError("history task failed");
      return;
    }
  }
  for (auto _ : state) {
    state.PauseTiming();
    Result<WorkItem> item = next_item();
    state.ResumeTiming();
    Status st = item.ok() ? run_task(*item) : item.status();
    if (!st.ok()) {
      state.SkipWithError("task failed");
      break;
    }
    benchmark::DoNotOptimize(st);
  }
  state.counters["history"] = static_cast<double>(history);
}
BENCHMARK(BM_WorklistTaskAfterHistory)
    ->Arg(0)
    ->Arg(20000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace adept

BENCHMARK_MAIN();
