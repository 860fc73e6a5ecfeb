// Elastic shard resizing: cross-shard instance migration, Recover() with a
// different shard count as the supported resize path, crash-window
// exactly-one-owner recovery, durable org model, and the named-counts
// error contract for damaged durable state.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "change/change_op.h"
#include "cluster/adept_cluster.h"
#include "model/schema_builder.h"
#include "storage/wal.h"
#include "worklist/worklist_service.h"

namespace adept {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("adept_resize_test_" + std::to_string(counter_++));
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

// start -> prepare(clerk) -> execute(packer) -> end
std::shared_ptr<const ProcessSchema> RoleSchema(RoleId clerk, RoleId packer) {
  SchemaBuilder b("rz_proc", 1);
  b.Activity("prepare", {.role = clerk});
  b.Activity("execute", {.role = packer});
  auto schema = b.Build();
  return schema.ok() ? *schema : nullptr;
}

class ResizeTest : public ::testing::Test {
 protected:
  void PopulateOrg(AdeptCluster& cluster) {
    OrgModel& org = cluster.org();
    clerk_ = *org.AddRole("clerk");
    packer_ = *org.AddRole("packer");
    alice_ = *org.AddUser("alice");
    bob_ = *org.AddUser("bob");
    carol_ = *org.AddUser("carol");
    ASSERT_TRUE(org.AssignRole(alice_, clerk_).ok());
    ASSERT_TRUE(org.AssignRole(bob_, packer_).ok());
    ASSERT_TRUE(org.AssignRole(carol_, clerk_).ok());
  }

  void Init(AdeptCluster& cluster) {
    PopulateOrg(cluster);
    schema_ = RoleSchema(clerk_, packer_);
    ASSERT_NE(schema_, nullptr);
    auto deployed = cluster.DeployProcessType(schema_);
    ASSERT_TRUE(deployed.ok()) << deployed.status();
    v1_ = *deployed;
  }

  // Every instance must live on exactly the shard the routing assigns.
  void ExpectPlacement(AdeptCluster& cluster,
                       const std::vector<InstanceId>& ids) {
    for (InstanceId id : ids) {
      size_t owner = cluster.ShardOf(id);
      ASSERT_LT(owner, cluster.shard_count());
      for (size_t s = 0; s < cluster.shard_count(); ++s) {
        EXPECT_EQ(cluster.shard(s).engine().Find(id) != nullptr, s == owner)
            << "instance " << id << " vs shard " << s;
      }
      EXPECT_TRUE(cluster.WithInstance(id, [](const ProcessInstance&) {}).ok())
          << "instance " << id << " unreachable through the facade";
    }
  }

  RoleId clerk_, packer_;
  UserId alice_, bob_, carol_;
  SchemaId v1_;
  std::shared_ptr<const ProcessSchema> schema_;
};

// The acceptance round trip: a durable 2-shard cluster recovers as 4
// shards and back to 1 with all instances, schema versions, the org
// model, and claimed work items intact.
TEST_F(ResizeTest, RecoverRoundTrip2To4To1) {
  TempDir dir;
  std::vector<InstanceId> ids;
  SchemaId v2;
  InstanceId biased_id, claimed_id, started_id;
  NodeId prepare, execute;

  {  // Phase A: write durable state with 2 shards.
    auto cluster = AdeptCluster::Create(DurableOptions(dir, 2));
    ASSERT_TRUE(cluster.ok());
    Init(**cluster);
    prepare = schema_->FindNodeByName("prepare");
    execute = schema_->FindNodeByName("execute");
    for (int i = 0; i < 6; ++i) {
      auto id = (*cluster)->CreateInstance("rz_proc");
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }

    // Evolve the type (audit step between prepare and execute) and create
    // two instances on the evolved version; older ones stay on v1.
    Delta evolve;
    NewActivitySpec audit;
    audit.name = "audit";
    audit.role = clerk_;
    evolve.Add(std::make_unique<SerialInsertOp>(audit, prepare, execute));
    auto evolved = (*cluster)->EvolveProcessType(v1_, std::move(evolve));
    ASSERT_TRUE(evolved.ok()) << evolved.status();
    v2 = *evolved;
    for (int i = 0; i < 2; ++i) {
      auto id = (*cluster)->CreateInstanceOn(v2);
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }

    // Ad-hoc change one v1 instance: its bias must survive every move.
    biased_id = ids[0];
    Delta adhoc;
    NewActivitySpec extra;
    extra.name = "extra";
    extra.role = clerk_;
    adhoc.Add(std::make_unique<SerialInsertOp>(extra, prepare, execute));
    ASSERT_TRUE((*cluster)->ApplyAdHocChange(biased_id, std::move(adhoc)).ok());

    // Claim one item, claim + start another.
    WorklistService& worklist = (*cluster)->Worklist();
    std::map<uint64_t, WorkItemId> by_instance;
    for (const WorkItem& offer : worklist.OffersFor(alice_)) {
      by_instance[offer.instance.value()] = offer.id;
    }
    claimed_id = ids[1];
    started_id = ids[2];
    ASSERT_TRUE(worklist.Claim(by_instance[claimed_id.value()], alice_).ok());
    ASSERT_TRUE(worklist.Claim(by_instance[started_id.value()], carol_).ok());
    ASSERT_TRUE(worklist.Start(by_instance[started_id.value()], carol_).ok());

    // The checkpoint logs the org model into every shard; the shard
    // snapshots carry it and the claims.
    ASSERT_TRUE((*cluster)->SaveSnapshot().ok());
  }

  {  // Phase B: recover as 4 shards — the supported resize path.
    auto cluster = AdeptCluster::Recover(DurableOptions(dir, 4));
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    EXPECT_EQ((*cluster)->shard_count(), 4u);
    ExpectPlacement(**cluster, ids);

    // Schema versions (and the version chain) survived on every shard.
    auto latest = (*cluster)->LatestVersion("rz_proc");
    ASSERT_TRUE(latest.ok());
    EXPECT_EQ(*latest, v2);
    for (size_t s = 0; s < 4; ++s) {
      auto schema = (*cluster)->shard(s).Schema(v2);
      ASSERT_TRUE(schema.ok()) << "shard " << s;
      EXPECT_TRUE((*schema)->FindNodeByName("audit").valid());
    }

    // The org model was restored from the shards' checkpoint — no
    // repopulation — and the grown shards carry it too.
    EXPECT_EQ((*cluster)->org().user_count(), 3u);
    EXPECT_EQ((*cluster)->org().role_count(), 2u);
    EXPECT_EQ(*(*cluster)->org().UserName(alice_), "alice");
    EXPECT_TRUE((*cluster)->org().UserHasRole(carol_, clerk_));
    for (size_t s = 0; s < 4; ++s) {
      EXPECT_EQ((*cluster)->shard(s).logged_org().Dump(),
                (*cluster)->org().ToJson().Dump())
          << "shard " << s;
    }

    // The bias survived the move.
    bool biased = false;
    ASSERT_TRUE((*cluster)
                    ->WithInstance(biased_id,
                                   [&](const ProcessInstance& inst) {
                                     biased = inst.biased() &&
                                              inst.schema()
                                                  .FindNodeByName("extra")
                                                  .valid();
                                   })
                    .ok());
    EXPECT_TRUE(biased);

    // Claims kept owner and state across the resize.
    WorklistService& worklist = (*cluster)->Worklist();
    auto alice_assigned = worklist.AssignedTo(alice_);
    ASSERT_EQ(alice_assigned.size(), 1u);
    EXPECT_EQ(alice_assigned[0].instance, claimed_id);
    EXPECT_EQ(alice_assigned[0].state, WorkItemState::kClaimed);
    auto carol_assigned = worklist.AssignedTo(carol_);
    ASSERT_EQ(carol_assigned.size(), 1u);
    EXPECT_EQ(carol_assigned[0].instance, started_id);
    EXPECT_EQ(carol_assigned[0].state, WorkItemState::kStarted);

    // The recovered lifecycle works end to end on the new topology.
    ASSERT_TRUE(worklist.Start(alice_assigned[0].id, alice_).ok());
    ASSERT_TRUE(worklist.Complete(alice_assigned[0].id, alice_).ok());
    bool completed = false;
    ASSERT_TRUE((*cluster)
                    ->WithInstance(claimed_id,
                                   [&](const ProcessInstance& inst) {
                                     completed = inst.node_state(prepare) ==
                                                 NodeState::kCompleted;
                                   })
                    .ok());
    EXPECT_TRUE(completed);

    // Fresh ids do not collide with recovered ones.
    for (int i = 0; i < 8; ++i) {
      auto fresh = (*cluster)->CreateInstance("rz_proc");
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      EXPECT_EQ(std::count(ids.begin(), ids.end(), *fresh), 0);
      ids.push_back(*fresh);
    }
    ASSERT_TRUE((*cluster)->SaveSnapshot().ok());
  }

  {  // Phase C: shrink back to a single shard.
    auto cluster = AdeptCluster::Recover(DurableOptions(dir, 1));
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    EXPECT_EQ((*cluster)->shard_count(), 1u);
    ExpectPlacement(**cluster, ids);
    EXPECT_EQ((*cluster)->shard(0).engine().instance_count(), ids.size());

    // Retired shard files are gone.
    for (int k = 1; k < 4; ++k) {
      EXPECT_FALSE(std::filesystem::exists(
          dir.File("cluster.wal.shard" + std::to_string(k))));
      EXPECT_FALSE(std::filesystem::exists(
          dir.File("cluster.snapshot.shard" + std::to_string(k))));
    }

    // Org, schema chain, and carol's started claim are all still here.
    EXPECT_EQ(*(*cluster)->org().UserName(bob_), "bob");
    auto latest = (*cluster)->LatestVersion("rz_proc");
    ASSERT_TRUE(latest.ok());
    EXPECT_EQ(*latest, v2);
    WorklistService& worklist = (*cluster)->Worklist();
    auto carol_assigned = worklist.AssignedTo(carol_);
    ASSERT_EQ(carol_assigned.size(), 1u);
    EXPECT_EQ(carol_assigned[0].instance, started_id);
    EXPECT_EQ(carol_assigned[0].state, WorkItemState::kStarted);
    ASSERT_TRUE(worklist.Complete(carol_assigned[0].id, carol_).ok());
    EXPECT_TRUE(worklist.AssignedTo(carol_).empty());
  }
}

// Live, in-process Resize(): existing claims keep their owner AND their
// WorkItemId across the move (the item table is keyed by instance id,
// which a move never changes).
TEST_F(ResizeTest, LiveResizeKeepsClaimedWorkItemIdsValid) {
  TempDir dir;
  auto cluster = AdeptCluster::Create(DurableOptions(dir, 2));
  ASSERT_TRUE(cluster.ok());
  Init(**cluster);
  std::vector<InstanceId> ids;
  for (int i = 0; i < 8; ++i) {
    auto id = (*cluster)->CreateInstance("rz_proc");
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }

  WorklistService& worklist = (*cluster)->Worklist();
  std::map<uint64_t, WorkItemId> by_instance;
  for (const WorkItem& offer : worklist.OffersFor(alice_)) {
    by_instance[offer.instance.value()] = offer.id;
  }
  ASSERT_EQ(by_instance.size(), ids.size());
  WorkItemId claimed_item = by_instance[ids[0].value()];
  WorkItemId started_item = by_instance[ids[1].value()];
  ASSERT_TRUE(worklist.Claim(claimed_item, alice_).ok());
  ASSERT_TRUE(worklist.Claim(started_item, carol_).ok());
  ASSERT_TRUE(worklist.Start(started_item, carol_).ok());

  // Grow 2 -> 4.
  ASSERT_TRUE((*cluster)->Resize(4).ok());
  EXPECT_EQ((*cluster)->shard_count(), 4u);
  ExpectPlacement(**cluster, ids);

  // The pre-resize WorkItemIds are still live and owned.
  auto claimed = worklist.Get(claimed_item);
  ASSERT_TRUE(claimed.ok());
  EXPECT_EQ(claimed->state, WorkItemState::kClaimed);
  EXPECT_EQ(claimed->claimed_by, alice_);
  auto started = worklist.Get(started_item);
  ASSERT_TRUE(started.ok());
  EXPECT_EQ(started->state, WorkItemState::kStarted);
  EXPECT_EQ(started->claimed_by, carol_);

  // New instances land on the grown topology; offers keep flowing.
  for (int i = 0; i < 8; ++i) {
    auto id = (*cluster)->CreateInstance("rz_proc");
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(std::count(ids.begin(), ids.end(), *id), 0);
    ids.push_back(*id);
  }

  // Shrink 4 -> 1 with the claims still open.
  ASSERT_TRUE((*cluster)->Resize(1).ok());
  EXPECT_EQ((*cluster)->shard_count(), 1u);
  ExpectPlacement(**cluster, ids);

  // Drive the claims through the facade on the shrunk topology: Start /
  // Complete route by instance id, so the old item ids keep working.
  ASSERT_TRUE(worklist.Start(claimed_item, alice_).ok());
  ASSERT_TRUE(worklist.Complete(claimed_item, alice_).ok());
  ASSERT_TRUE(worklist.Complete(started_item, carol_).ok());

  // The post-shrink durable state recovers cleanly (claims were
  // checkpoint-compacted during Resize).
  cluster->reset();
  auto recovered = AdeptCluster::Recover(DurableOptions(dir, 1));
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ExpectPlacement(**recovered, ids);
  EXPECT_EQ(*(*recovered)->org().UserName(alice_), "alice");
}

// Crash window between a durable import and its evict: the instance is
// durable on BOTH shards. Recovery must dedup back to exactly one owner
// (the routed shard) and stay fully functional.
TEST_F(ResizeTest, CrashBetweenImportAndEvictRecoversExactlyOneOwner) {
  TempDir dir;
  InstanceId victim;
  size_t events_before = 0;
  std::vector<InstanceId> ids;
  {
    auto cluster = AdeptCluster::Create(DurableOptions(dir, 2));
    ASSERT_TRUE(cluster.ok());
    Init(**cluster);
    for (int i = 0; i < 4; ++i) {
      auto id = (*cluster)->CreateInstance("rz_proc");
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    // Progress the victim so the duplicate carries real state.
    victim = ids[0];
    ASSERT_EQ((*cluster)->ShardOf(victim), 0u);
    NodeId prepare = schema_->FindNodeByName("prepare");
    ASSERT_TRUE((*cluster)->StartActivity(victim, prepare).ok());
    ASSERT_TRUE((*cluster)->CompleteActivity(victim, prepare).ok());
    ASSERT_TRUE((*cluster)
                    ->WithInstance(victim,
                                   [&](const ProcessInstance& inst) {
                                     events_before =
                                         inst.trace().events().size();
                                   })
                    .ok());
  }

  {
    // Forge the crash window with the same export/import handover the
    // cluster uses: shard 1 durably imports the victim, the source-side
    // evict never happens ("crash").
    AdeptOptions src_options;
    src_options.wal_path = dir.File("cluster.wal.shard0");
    src_options.snapshot_path = dir.File("cluster.snapshot.shard0");
    auto src = AdeptSystem::Recover(src_options);
    ASSERT_TRUE(src.ok()) << src.status();
    auto exported = (*src)->ExportInstance(victim);
    ASSERT_TRUE(exported.ok());

    AdeptOptions dst_options;
    dst_options.wal_path = dir.File("cluster.wal.shard1");
    dst_options.snapshot_path = dir.File("cluster.snapshot.shard1");
    auto dst = AdeptSystem::Recover(dst_options);
    ASSERT_TRUE(dst.ok()) << dst.status();
    ASSERT_TRUE((*dst)->ImportInstance(*exported).ok());
  }

  auto recovered = AdeptCluster::Recover(DurableOptions(dir, 2));
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  // Exactly one owner: the routed shard kept the instance, the duplicate
  // was evicted.
  EXPECT_NE((*recovered)->shard(0).engine().Find(victim), nullptr);
  EXPECT_EQ((*recovered)->shard(1).engine().Find(victim), nullptr);
  size_t events_after = 0;
  ASSERT_TRUE((*recovered)
                  ->WithInstance(victim,
                                 [&](const ProcessInstance& inst) {
                                   events_after = inst.trace().events().size();
                                 })
                  .ok());
  EXPECT_EQ(events_after, events_before);
  ExpectPlacement(**recovered, ids);

  // ... and the dedup itself is durable: a second recovery sees one copy.
  recovered->reset();
  auto again = AdeptCluster::Recover(DurableOptions(dir, 2));
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_NE((*again)->shard(0).engine().Find(victim), nullptr);
  EXPECT_EQ((*again)->shard(1).engine().Find(victim), nullptr);
}

// When the durable state is damaged beyond redistribution, the error must
// name the recovered and the requested shard counts and the repair action.
TEST_F(ResizeTest, DamagedDonorShardNamesCountsAndRepairAction) {
  TempDir dir;
  {
    auto cluster = AdeptCluster::Create(DurableOptions(dir, 4));
    ASSERT_TRUE(cluster.ok());
    Init(**cluster);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE((*cluster)->CreateInstance("rz_proc").ok());
    }
  }
  {
    // Damage donor shard 3's WAL with a well-framed record recovery
    // cannot apply (mid-move damage stand-in).
    auto wal = WriteAheadLog::Open(dir.File("cluster.wal.shard3"));
    ASSERT_TRUE(wal.ok());
    JsonValue bogus = JsonValue::MakeObject();
    bogus.Set("t", JsonValue("not-a-record"));
    ASSERT_TRUE((*wal)->Append(bogus).ok());
    ASSERT_TRUE((*wal)->Sync(SyncMode::kFlush).ok());
  }
  auto resized = AdeptCluster::Recover(DurableOptions(dir, 2));
  ASSERT_FALSE(resized.ok());
  EXPECT_EQ(resized.status().code(), StatusCode::kCorruption);
  const std::string message = resized.status().message();
  EXPECT_NE(message.find("4 recovered shard(s)"), std::string::npos)
      << message;
  EXPECT_NE(message.find("2 requested shard(s)"), std::string::npos)
      << message;
  EXPECT_NE(message.find("repair: recover with shards=4"), std::string::npos)
      << message;
}

// Live Resize() 2 -> 3: every claim travels with its instance to the
// owning shard's ledger, the items keep owner, state and id, and the
// Recover() after the resize re-attaches them all from the new shards.
TEST_F(ResizeTest, ClaimsSurviveLiveResizeAndTheRecoverAfterIt) {
  TempDir dir;
  std::vector<InstanceId> ids;
  std::map<uint64_t, WorkItem> claimed;  // by instance id
  {
    auto cluster = AdeptCluster::Create(DurableOptions(dir, 2));
    ASSERT_TRUE(cluster.ok());
    Init(**cluster);
    for (int i = 0; i < 9; ++i) {
      auto id = (*cluster)->CreateInstance("rz_proc");
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    WorklistService& worklist = (*cluster)->Worklist();
    std::vector<WorkItem> offers = worklist.OffersFor(alice_);
    ASSERT_EQ(offers.size(), ids.size());
    for (size_t i = 0; i < 6; ++i) {
      const UserId user = i % 2 == 0 ? alice_ : carol_;
      ASSERT_TRUE(worklist.Claim(offers[i].id, user).ok());
      if (i % 3 == 0) {
        ASSERT_TRUE(worklist.Start(offers[i].id, user).ok());
      }
      auto item = worklist.Get(offers[i].id);
      ASSERT_TRUE(item.ok());
      claimed[item->instance.value()] = *item;
    }

    ASSERT_TRUE((*cluster)->Resize(3).ok());
    ExpectPlacement(**cluster, ids);
    for (const auto& [instance, before] : claimed) {
      auto after = worklist.Get(before.id);
      ASSERT_TRUE(after.ok()) << "instance " << instance;
      EXPECT_EQ(after->claimed_by, before.claimed_by);
      EXPECT_EQ(after->state, before.state);
      // The claim lives in the owning shard's ledger only.
      for (size_t s = 0; s < 3; ++s) {
        const ClaimLedger::Entry* entry =
            (*cluster)->shard(s).claims().Find(before.instance, before.node);
        EXPECT_EQ(entry != nullptr, s == (*cluster)->ShardOf(before.instance))
            << "instance " << instance << " vs shard " << s;
      }
    }
  }

  auto recovered = AdeptCluster::Recover(DurableOptions(dir, 3));
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ExpectPlacement(**recovered, ids);
  WorklistService& worklist = (*recovered)->Worklist();
  size_t attached = 0;
  for (UserId user : {alice_, carol_}) {
    for (const WorkItem& item : worklist.AssignedTo(user)) {
      auto before = claimed.find(item.instance.value());
      ASSERT_NE(before, claimed.end()) << "instance " << item.instance;
      EXPECT_EQ(item.node, before->second.node);
      EXPECT_EQ(item.claimed_by, before->second.claimed_by);
      EXPECT_EQ(item.state, before->second.state);
      ++attached;
    }
  }
  EXPECT_EQ(attached, claimed.size());
  // The three unclaimed offers are re-derived.
  EXPECT_EQ(worklist.OffersFor(alice_).size(), ids.size() - claimed.size());
}

// A fresh Create() at paths a previous, larger cluster wrote must retire
// the surplus ".shard<k>" files, and with them the org the old cluster
// checkpointed into its shards — Recover() probes for shard files and
// would otherwise resurrect the dead cluster's state into the new one.
TEST_F(ResizeTest, CreateRetiresSurplusShardFilesAndTheirOrg) {
  TempDir dir;
  {  // Old 4-shard cluster: instances everywhere, org checkpointed.
    auto cluster = AdeptCluster::Create(DurableOptions(dir, 4));
    ASSERT_TRUE(cluster.ok());
    Init(**cluster);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE((*cluster)->CreateInstance("rz_proc").ok());
    }
    ASSERT_TRUE((*cluster)->SaveSnapshot().ok());
    ASSERT_FALSE((*cluster)->shard(3).logged_org().is_null());
  }
  ASSERT_TRUE(std::filesystem::exists(dir.File("cluster.wal.shard3")));

  {  // New, smaller cluster at the same paths: fresh history.
    auto cluster = AdeptCluster::Create(DurableOptions(dir, 2));
    ASSERT_TRUE(cluster.ok());
    for (int k = 2; k < 4; ++k) {
      EXPECT_FALSE(std::filesystem::exists(
          dir.File("cluster.wal.shard" + std::to_string(k))));
      EXPECT_FALSE(std::filesystem::exists(
          dir.File("cluster.snapshot.shard" + std::to_string(k))));
    }
    Init(**cluster);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE((*cluster)->CreateInstance("rz_proc").ok());
    }
  }  // crash before any checkpoint

  auto recovered = AdeptCluster::Recover(DurableOptions(dir, 2));
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  // Only the new cluster's 4 instances — nothing resurrected from the old
  // 4-shard history, and no stale org restored.
  size_t live = 0;
  (*recovered)->ForEachInstance([&](const ProcessInstance&) { ++live; });
  EXPECT_EQ(live, 4u);
  EXPECT_EQ((*recovered)->org().user_count(), 0u);
}

// The historical repopulate-after-recover contract still works when the
// cluster never checkpointed (no shard logged an org).
TEST_F(ResizeTest, RepopulatePathStillWorksWithoutCheckpoint) {
  TempDir dir;
  InstanceId id;
  {
    auto cluster = AdeptCluster::Create(DurableOptions(dir, 2));
    ASSERT_TRUE(cluster.ok());
    Init(**cluster);
    auto created = (*cluster)->CreateInstance("rz_proc");
    ASSERT_TRUE(created.ok());
    id = *created;
  }  // no SaveSnapshot: the org model dies with the process
  auto recovered = AdeptCluster::Recover(DurableOptions(dir, 2));
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_TRUE((*recovered)->shard(s).logged_org().is_null());
  }
  EXPECT_EQ((*recovered)->org().user_count(), 0u);
  PopulateOrg(**recovered);  // same call order => same ids
  EXPECT_TRUE((*recovered)->org().UserHasRole(alice_, clerk_));
  EXPECT_EQ((*recovered)->Worklist().OffersFor(alice_).size(), 1u);
  EXPECT_NE((*recovered)->SnapshotOf(id), nullptr);
}

}  // namespace
}  // namespace adept
