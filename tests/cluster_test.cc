#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <set>
#include <thread>
#include <vector>

#include "change/change_op.h"
#include "cluster/adept_cluster.h"
#include "tests/test_fixtures.h"

namespace adept {
namespace {

using testing_fixtures::OnlineOrderV1;
using testing_fixtures::SequenceSchema;

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("adept_cluster_test_" + std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string File(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  static int counter_;
  std::filesystem::path path_;
};

int TempDir::counter_ = 0;

ClusterOptions DurableOptions(const TempDir& dir, int shards) {
  ClusterOptions options;
  options.shards = shards;
  options.wal_path = dir.File("cluster.wal");
  options.snapshot_path = dir.File("cluster.snapshot");
  return options;
}

TEST(AdeptClusterTest, ShardRoutingStability) {
  auto cluster = AdeptCluster::Create({.shards = 4});
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->DeployProcessType(OnlineOrderV1()).ok());

  std::set<InstanceId> ids;
  std::vector<size_t> per_shard(4, 0);
  for (int i = 0; i < 40; ++i) {
    auto id = (*cluster)->CreateInstance("online_order");
    ASSERT_TRUE(id.ok()) << id.status();
    EXPECT_TRUE(ids.insert(*id).second) << "duplicate id " << *id;
    size_t owner = (*cluster)->ShardOf(*id);
    // The shard key is a pure function of the id.
    EXPECT_EQ(owner, (id->value() - 1) % 4);
    per_shard[owner]++;
    // The instance lives on its owning shard and nowhere else.
    for (size_t s = 0; s < 4; ++s) {
      const ProcessInstance* found = (*cluster)->shard(s).engine().Find(*id);
      EXPECT_EQ(found != nullptr, s == owner);
    }
    // Routed lock-free reads resolve through the facade.
    EXPECT_NE((*cluster)->SnapshotOf(*id), nullptr);
  }
  // Round-robin placement keeps shards balanced.
  for (size_t s = 0; s < 4; ++s) EXPECT_EQ(per_shard[s], 10u);
}

TEST(AdeptClusterTest, CrossShardSchemaVisibility) {
  auto cluster = AdeptCluster::Create({.shards = 4});
  ASSERT_TRUE(cluster.ok());
  auto v1 = (*cluster)->DeployProcessType(SequenceSchema(3));
  ASSERT_TRUE(v1.ok()) << v1.status();
  for (size_t s = 0; s < 4; ++s) {
    auto latest = (*cluster)->shard(s).LatestVersion("seq");
    ASSERT_TRUE(latest.ok());
    EXPECT_EQ(*latest, *v1);
  }

  // Evolution is visible on every shard under the same id.
  auto base = (*cluster)->Schema(*v1);
  ASSERT_TRUE(base.ok());
  Delta delta;
  NewActivitySpec spec;
  spec.name = "audit";
  delta.Add(std::make_unique<SerialInsertOp>(
      spec, (*base)->FindNodeByName("a1"), (*base)->FindNodeByName("a2")));
  auto v2 = (*cluster)->EvolveProcessType(*v1, std::move(delta));
  ASSERT_TRUE(v2.ok()) << v2.status();
  for (size_t s = 0; s < 4; ++s) {
    auto latest = (*cluster)->shard(s).LatestVersion("seq");
    ASSERT_TRUE(latest.ok());
    EXPECT_EQ(*latest, *v2);
    auto schema = (*cluster)->shard(s).Schema(*v2);
    ASSERT_TRUE(schema.ok());
    EXPECT_TRUE((*schema)->FindNodeByName("audit").valid());
  }

  // New instances on any shard start on the evolved version.
  for (int i = 0; i < 8; ++i) {
    auto id = (*cluster)->CreateInstance("seq");
    ASSERT_TRUE(id.ok());
    EXPECT_EQ((*cluster)->SnapshotOf(*id)->schema_ref, *v2);
  }
}

TEST(AdeptClusterTest, ConcurrentCompleteActivityOnDistinctShards) {
  constexpr int kShards = 4;
  constexpr int kPerShard = 8;
  auto cluster = AdeptCluster::Create({.shards = kShards});
  ASSERT_TRUE(cluster.ok());
  auto v1 = (*cluster)->DeployProcessType(SequenceSchema(12));
  ASSERT_TRUE(v1.ok());
  auto schema = (*cluster)->Schema(*v1);
  ASSERT_TRUE(schema.ok());
  std::vector<NodeId> order;
  for (int i = 1; i <= 12; ++i) {
    order.push_back((*schema)->FindNodeByName("a" + std::to_string(i)));
    ASSERT_TRUE(order.back().valid());
  }

  std::vector<std::vector<InstanceId>> ids(kShards);
  for (int i = 0; i < kShards * kPerShard; ++i) {
    auto id = (*cluster)->CreateInstance("seq");
    ASSERT_TRUE(id.ok());
    ids[(*cluster)->ShardOf(*id)].push_back(*id);
  }
  for (int s = 0; s < kShards; ++s) {
    ASSERT_EQ(ids[s].size(), static_cast<size_t>(kPerShard));
  }

  // One worker per shard completes every activity of its instances through
  // the shared facade; per-shard locks make this race-free.
  std::vector<std::thread> workers;
  std::vector<int> failures(kShards, 0);
  for (int s = 0; s < kShards; ++s) {
    workers.emplace_back([&, s] {
      for (InstanceId id : ids[s]) {
        for (NodeId node : order) {
          if (!(*cluster)->StartActivity(id, node).ok() ||
              !(*cluster)->CompleteActivity(id, node).ok()) {
            failures[s]++;
          }
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();

  for (int s = 0; s < kShards; ++s) {
    EXPECT_EQ(failures[s], 0) << "shard " << s;
    for (InstanceId id : ids[s]) {
      bool finished = false;
      ASSERT_TRUE((*cluster)
                      ->WithInstance(id, [&](const ProcessInstance& inst) {
                        finished = inst.Finished();
                      })
                      .ok());
      EXPECT_TRUE(finished);
    }
  }
}

// Readers race writers on the same shards: WithInstance takes the owning
// shard's lock, so the callback observes a consistent instance even while
// other threads complete activities (the ASan job turns a use-after-free
// of the bare Instance() pointer into a failure).
TEST(AdeptClusterTest, WithInstanceIsSafeAgainstConcurrentWriters) {
  constexpr int kShards = 4;
  auto cluster = AdeptCluster::Create({.shards = kShards});
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->DeployProcessType(SequenceSchema(6)).ok());
  std::vector<InstanceId> ids;
  for (int i = 0; i < kShards * 4; ++i) {
    auto id = (*cluster)->CreateInstance("seq");
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }

  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (InstanceId id : ids) {
          Status st = (*cluster)->WithInstance(
              id, [](const ProcessInstance& inst) {
                // Touch state a concurrent mutation would tear.
                (void)inst.Finished();
                (void)inst.trace().events().size();
              });
          if (!st.ok()) reader_errors.fetch_add(1);
        }
      }
    });
  }

  std::vector<AdeptCluster::BatchOp> batch;
  for (int round = 0; round < 32; ++round) {
    batch.clear();
    for (InstanceId id : ids) {
      batch.push_back(AdeptCluster::BatchOp::DriveStep(id));
    }
    (void)(*cluster)->SubmitBatch(batch);
  }
  stop.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(reader_errors.load(), 0);
}

// Durable batch execution with the strictest sync mode: every op the batch
// reported as successful must survive recovery (its WAL record was fsynced
// before SubmitBatch returned).
TEST(AdeptClusterTest, PipelinedFsyncBatchesSurviveRecovery) {
  TempDir dir;
  ClusterOptions options = DurableOptions(dir, 4);
  options.sync = SyncMode::kFsync;
  std::vector<InstanceId> ids;
  size_t steps_acknowledged = 0;
  {
    auto cluster = AdeptCluster::Create(options);
    ASSERT_TRUE(cluster.ok());
    ASSERT_TRUE((*cluster)->DeployProcessType(SequenceSchema(4)).ok());
    std::vector<AdeptCluster::BatchOp> creates(
        8, AdeptCluster::BatchOp::Create("seq"));
    for (const auto& result : (*cluster)->SubmitBatch(creates)) {
      ASSERT_TRUE(result.status.ok()) << result.status;
      ids.push_back(result.id);
    }
    std::vector<AdeptCluster::BatchOp> steps;
    for (InstanceId id : ids) {
      steps.push_back(AdeptCluster::BatchOp::DriveStep(id));
    }
    for (int round = 0; round < 3; ++round) {
      for (const auto& result : (*cluster)->SubmitBatch(steps)) {
        if (result.status.ok() && result.progressed) ++steps_acknowledged;
      }
    }
  }  // destroyed without SaveSnapshot: recovery replays the WAL alone
  ASSERT_GT(steps_acknowledged, 0u);

  auto recovered = AdeptCluster::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  size_t events_recovered = 0;
  for (InstanceId id : ids) {
    ASSERT_TRUE((*recovered)
                    ->WithInstance(id,
                                   [&](const ProcessInstance& inst) {
                                     events_recovered +=
                                         inst.trace().events().size();
                                   })
                    .ok())
        << "instance " << id << " lost";
  }
  // Each acknowledged DriveStep logged a start + completion.
  EXPECT_GE(events_recovered, steps_acknowledged * 2);
}

TEST(AdeptClusterTest, SubmitBatchGroupsByShardAndReportsPerOp) {
  auto cluster = AdeptCluster::Create({.shards = 4});
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->DeployProcessType(OnlineOrderV1()).ok());

  // Heterogeneous batch: 8 creates up front.
  std::vector<AdeptCluster::BatchOp> creates(
      8, AdeptCluster::BatchOp::Create("online_order"));
  auto created = (*cluster)->SubmitBatch(creates);
  ASSERT_EQ(created.size(), 8u);
  std::vector<InstanceId> ids;
  for (const auto& result : created) {
    ASSERT_TRUE(result.status.ok()) << result.status;
    ASSERT_TRUE(result.id.valid());
    ids.push_back(result.id);
  }

  // Synthetic steps progress every instance; a bogus op fails only its slot.
  std::vector<AdeptCluster::BatchOp> steps;
  for (InstanceId id : ids) {
    steps.push_back(AdeptCluster::BatchOp::DriveStep(id));
  }
  steps.push_back(
      AdeptCluster::BatchOp::Start(InstanceId(999983), NodeId(1)));
  auto stepped = (*cluster)->SubmitBatch(steps);
  ASSERT_EQ(stepped.size(), 9u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(stepped[i].status.ok());
    EXPECT_TRUE(stepped[i].progressed);
  }
  EXPECT_EQ(stepped[8].status.code(), StatusCode::kNotFound);

  // Batches drive instances to completion eventually.
  for (int round = 0; round < 64; ++round) {
    std::vector<AdeptCluster::BatchOp> batch;
    for (InstanceId id : ids) {
      if (!(*cluster)->SnapshotOf(id)->finished) {
        batch.push_back(AdeptCluster::BatchOp::DriveStep(id));
      }
    }
    if (batch.empty()) break;
    (*cluster)->SubmitBatch(batch);
  }
  for (InstanceId id : ids) {
    EXPECT_TRUE((*cluster)->SnapshotOf(id)->finished);
  }
}

TEST(AdeptClusterTest, RecoverRestoresAllShards) {
  TempDir dir;
  ClusterOptions options = DurableOptions(dir, 4);
  std::vector<InstanceId> ids;
  SchemaId v1;
  NodeId a1;
  {
    auto cluster = AdeptCluster::Create(options);
    ASSERT_TRUE(cluster.ok());
    auto deployed = (*cluster)->DeployProcessType(SequenceSchema(4));
    ASSERT_TRUE(deployed.ok());
    v1 = *deployed;
    auto schema = (*cluster)->Schema(v1);
    a1 = (*schema)->FindNodeByName("a1");
    for (int i = 0; i < 4; ++i) {
      auto id = (*cluster)->CreateInstance("seq");
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    // Half the history goes into the snapshot, the rest stays WAL-only.
    ASSERT_TRUE((*cluster)->SaveSnapshot().ok());
    for (int i = 0; i < 4; ++i) {
      auto id = (*cluster)->CreateInstance("seq");
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    ASSERT_TRUE((*cluster)->StartActivity(ids[0], a1).ok());
    ASSERT_TRUE((*cluster)->CompleteActivity(ids[0], a1).ok());
  }

  auto recovered = AdeptCluster::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  for (InstanceId id : ids) {
    ASSERT_NE((*recovered)->SnapshotOf(id), nullptr)
        << "instance " << id << " lost";
    // Still reachable on the shard the id hashes to.
    EXPECT_NE(
        (*recovered)->shard((*recovered)->ShardOf(id)).engine().Find(id),
        nullptr);
  }
  EXPECT_EQ((*recovered)->SnapshotOf(ids[0])->marking.node(a1),
            NodeState::kCompleted);
  auto latest = (*recovered)->LatestVersion("seq");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, v1);

  // Post-recovery id allocation continues without collisions.
  for (int i = 0; i < 8; ++i) {
    auto fresh = (*recovered)->CreateInstance("seq");
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(std::count(ids.begin(), ids.end(), *fresh), 0);
  }
}

// Recovering with a different shard count is the supported resize path
// (formerly a kCorruption dead end): instances are redistributed onto the
// requested routing and the surplus shard files are retired.
TEST(AdeptClusterTest, RecoverWithDifferentShardCountRedistributes) {
  TempDir dir;
  std::vector<InstanceId> ids;
  {
    auto cluster = AdeptCluster::Create(DurableOptions(dir, 4));
    ASSERT_TRUE(cluster.ok());
    ASSERT_TRUE((*cluster)->DeployProcessType(SequenceSchema(2)).ok());
    for (int i = 0; i < 8; ++i) {
      auto id = (*cluster)->CreateInstance("seq");
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
  }
  auto resized = AdeptCluster::Recover(DurableOptions(dir, 3));
  ASSERT_TRUE(resized.ok()) << resized.status();
  EXPECT_EQ((*resized)->shard_count(), 3u);
  for (InstanceId id : ids) {
    size_t owner = (*resized)->ShardOf(id);
    EXPECT_EQ(owner, (id.value() - 1) % 3);
    for (size_t s = 0; s < 3; ++s) {
      EXPECT_EQ((*resized)->shard(s).engine().Find(id) != nullptr,
                s == owner);
    }
  }
  // The retired shard's files are gone.
  EXPECT_FALSE(std::filesystem::exists(dir.File("cluster.wal.shard3")));
  EXPECT_FALSE(std::filesystem::exists(dir.File("cluster.snapshot.shard3")));
  // Post-resize id allocation continues without collisions.
  for (int i = 0; i < 9; ++i) {
    auto fresh = (*resized)->CreateInstance("seq");
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    EXPECT_EQ(std::count(ids.begin(), ids.end(), *fresh), 0);
    ids.push_back(*fresh);
  }
}

TEST(AdeptClusterTest, MigrationFansOutAndMergesReports) {
  auto cluster = AdeptCluster::Create({.shards = 4});
  ASSERT_TRUE(cluster.ok());
  auto v1 = (*cluster)->DeployProcessType(SequenceSchema(3));
  ASSERT_TRUE(v1.ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE((*cluster)->CreateInstance("seq").ok());
  }

  auto base = (*cluster)->Schema(*v1);
  Delta delta;
  NewActivitySpec spec;
  spec.name = "review";
  delta.Add(std::make_unique<SerialInsertOp>(
      spec, (*base)->FindNodeByName("a2"), (*base)->FindNodeByName("a3")));
  auto v2 = (*cluster)->EvolveProcessType(*v1, std::move(delta));
  ASSERT_TRUE(v2.ok());

  auto report = (*cluster)->Migrate(*v1, *v2);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->results.size(), 12u);
  EXPECT_EQ(report->Count(MigrationOutcome::kMigrated), 12u);
  for (const auto& result : report->results) {
    EXPECT_EQ((*cluster)->SnapshotOf(result.id)->schema_ref, *v2);
  }
}

// Deploy and evolve run on every shard at once. A call every shard refuses
// alike is the caller's error: no shard changed, nothing was logged, and
// schema management stays usable.
TEST(AdeptClusterTest, RefusedSchemaChangesLeaveEveryShardUnchanged) {
  TempDir dir;
  auto cluster = AdeptCluster::Create(DurableOptions(dir, 2));
  ASSERT_TRUE(cluster.ok());
  AdeptCluster& c = **cluster;
  auto v1 = c.DeployProcessType(testing_fixtures::XorSchema());
  ASSERT_TRUE(v1.ok()) << v1.status();
  auto base = c.Schema(*v1);
  ASSERT_TRUE(base.ok());
  auto insert = [&] {
    Delta delta;
    NewActivitySpec spec;
    spec.name = "audit";
    delta.Add(std::make_unique<SerialInsertOp>(
        spec, (*base)->FindNodeByName("triage"),
        (*base)->FindNodeByName("xor_split")));
    return delta;
  };
  auto v2 = c.EvolveProcessType(*v1, insert());
  ASSERT_TRUE(v2.ok()) << v2.status();

  // Each shard's repository size and last LSN.
  auto state = [&] {
    std::vector<std::pair<size_t, uint64_t>> shards;
    for (size_t k = 0; k < c.shard_count(); ++k) {
      shards.emplace_back(c.shard(k).repository().size(),
                          c.shard(k).last_enqueued_lsn());
    }
    return shards;
  };
  const auto before = state();

  // A mandatory read nobody writes fails verification.
  SchemaBuilder unsupplied("unsupplied", 1);
  const DataId data = unsupplied.Data("d", DataType::kInt);
  unsupplied.Reads(unsupplied.Activity("reader"), data);
  auto unverifiable = unsupplied.Build();
  ASSERT_TRUE(unverifiable.ok()) << unverifiable.status();
  EXPECT_EQ(c.DeployProcessType(*unverifiable).status().code(),
            StatusCode::kVerificationFailed);
  // The type is deployed already.
  EXPECT_EQ(c.DeployProcessType(testing_fixtures::XorSchema()).status().code(),
            StatusCode::kAlreadyExists);
  // Deleting the writer of the decision element fails verification.
  Delta unsupplying;
  unsupplying.Add(
      std::make_unique<DeleteActivityOp>((*base)->FindNodeByName("triage")));
  EXPECT_EQ(c.EvolveProcessType(*v2, std::move(unsupplying)).status().code(),
            StatusCode::kVerificationFailed);
  // v1 is no longer the latest version.
  EXPECT_EQ(c.EvolveProcessType(*v1, insert()).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(state(), before);

  // Still usable: the next deploy gets the next id on every shard.
  auto next = c.DeployProcessType(SequenceSchema(2));
  ASSERT_TRUE(next.ok()) << next.status();
  for (size_t k = 0; k < c.shard_count(); ++k) {
    EXPECT_EQ(*c.shard(k).LatestVersion("seq"), *next);
  }
}

// Shards that answer one schema call differently disagree for good: the
// call fails kInternal and schema management refuses from then on.
TEST(AdeptClusterTest, DivergentSchemaChangePoisonsSchemaManagement) {
  auto cluster = AdeptCluster::Create({.shards = 2});
  ASSERT_TRUE(cluster.ok());
  AdeptCluster& c = **cluster;
  // Shard 1 alone deploys the type, behind the cluster's back.
  ASSERT_TRUE(c.shard(1).DeployProcessType(SequenceSchema(2)).ok());
  EXPECT_EQ(c.DeployProcessType(SequenceSchema(2)).status().code(),
            StatusCode::kInternal);
  EXPECT_EQ(c.DeployProcessType(testing_fixtures::XorSchema()).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(c.EvolveProcessType(SchemaId(1), Delta()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(AdeptClusterTest, SingleShardDegeneratesToPlainSystem) {
  auto cluster = AdeptCluster::Create({.shards = 1});
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->DeployProcessType(OnlineOrderV1()).ok());
  auto id = (*cluster)->CreateInstance("online_order");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ((*cluster)->ShardOf(*id), 0u);
  SimulationDriver driver({.seed = 11});
  ASSERT_TRUE((*cluster)->DriveToCompletion(*id, driver).ok());
  EXPECT_TRUE((*cluster)->SnapshotOf(*id)->finished);
}

}  // namespace
}  // namespace adept
