#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "change/change_op.h"
#include "cluster/adept_cluster.h"
#include "common/fs_util.h"
#include "common/rng.h"
#include "model/schema_builder.h"
#include "storage/wal.h"
#include "worklist/worklist_service.h"

namespace adept {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("adept_worklist_test_" + std::to_string(counter_++));
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

// start -> prepare(clerk) -> execute(packer) -> end
std::shared_ptr<const ProcessSchema> RoleSchema(RoleId clerk, RoleId packer) {
  SchemaBuilder b("wl_proc", 1);
  b.Activity("prepare", {.role = clerk});
  b.Activity("execute", {.role = packer});
  auto schema = b.Build();
  return schema.ok() ? *schema : nullptr;
}

// The shard WAL's frames ("<lsn>:<length>:<json>\n"), one per line.
std::vector<std::string> ReadFrames(const std::string& path) {
  std::vector<std::string> frames;
  auto content = ReadFileToString(path);
  if (!content.ok()) return frames;
  size_t begin = 0;
  for (size_t end; (end = content->find('\n', begin)) != std::string::npos;
       begin = end + 1) {
    frames.push_back(content->substr(begin, end + 1 - begin));
  }
  return frames;
}

// Writes the first `count` frames as the WAL at `path`: a crash that cut
// the log after that frame.
void WriteFramePrefix(const std::vector<std::string>& frames, size_t count,
                      const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (size_t i = 0; i < count; ++i) out << frames[i];
}

// Every claim of `worklist` as (instance, node) -> (user, state).
using Owners = std::map<std::pair<uint64_t, uint32_t>,
                        std::pair<uint32_t, WorkItemState>>;
Owners OwnersOf(const WorklistService& worklist,
                const std::vector<UserId>& users) {
  Owners owners;
  for (UserId user : users) {
    for (const WorkItem& item : worklist.AssignedTo(user)) {
      owners[{item.instance.value(), item.node.value()}] = {user.value(),
                                                            item.state};
    }
  }
  return owners;
}

// Cluster + org scaffold shared by the service tests.
class WorklistServiceTest : public ::testing::Test {
 protected:
  // Org population is repeatable (a cluster that never checkpointed
  // recovers an empty org; re-adding in the same order yields the same
  // ids).
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
    ASSERT_TRUE(deployed.ok());
    v1_id_ = *deployed;
  }

  RoleId clerk_, packer_;
  UserId alice_, bob_, carol_;
  SchemaId v1_id_;
  std::shared_ptr<const ProcessSchema> schema_;
};

TEST_F(WorklistServiceTest, OfferClaimStartCompleteLifecycle) {
  auto cluster = AdeptCluster::Create({.shards = 2});
  ASSERT_TRUE(cluster.ok());
  Init(**cluster);
  WorklistService& worklist = (*cluster)->Worklist();

  InstanceId id = *(*cluster)->CreateInstance("wl_proc");

  // "prepare" is offered to both clerks, not the packer.
  auto alice_offers = worklist.OffersFor(alice_);
  ASSERT_EQ(alice_offers.size(), 1u);
  EXPECT_EQ(alice_offers[0].node, schema_->FindNodeByName("prepare"));
  EXPECT_EQ(worklist.OffersFor(carol_).size(), 1u);
  EXPECT_TRUE(worklist.OffersFor(bob_).empty());

  // Claim: the offer leaves every clerk's view, lands on alice's list.
  WorkItemId item = alice_offers[0].id;
  ASSERT_TRUE(worklist.Claim(item, alice_).ok());
  EXPECT_TRUE(worklist.OffersFor(alice_).empty());
  EXPECT_TRUE(worklist.OffersFor(carol_).empty());
  auto assigned = worklist.AssignedTo(alice_);
  ASSERT_EQ(assigned.size(), 1u);
  EXPECT_EQ(assigned[0].state, WorkItemState::kClaimed);

  // Start requires the claim; the packer cannot start alice's item.
  EXPECT_EQ(worklist.Start(item, bob_).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(worklist.Start(item, alice_).ok());
  assigned = worklist.AssignedTo(alice_);
  ASSERT_EQ(assigned.size(), 1u);
  EXPECT_EQ(assigned[0].state, WorkItemState::kStarted);

  // Completing routes through the cluster and opens the successor offer.
  ASSERT_TRUE(worklist.Complete(item, alice_).ok());
  EXPECT_TRUE(worklist.AssignedTo(alice_).empty());
  auto bob_offers = worklist.OffersFor(bob_);
  ASSERT_EQ(bob_offers.size(), 1u);
  EXPECT_EQ(bob_offers[0].node, schema_->FindNodeByName("execute"));
  EXPECT_EQ(bob_offers[0].instance, id);

  WorklistStats stats = worklist.Stats();
  EXPECT_EQ(stats.offered, 1u);
  EXPECT_EQ(stats.completed_total, 1u);
}

TEST_F(WorklistServiceTest, ClaimAuthorizationAndUnknownItems) {
  auto cluster = AdeptCluster::Create({.shards = 2});
  ASSERT_TRUE(cluster.ok());
  Init(**cluster);
  WorklistService& worklist = (*cluster)->Worklist();
  (void)*(*cluster)->CreateInstance("wl_proc");

  auto offers = worklist.OffersFor(alice_);
  ASSERT_EQ(offers.size(), 1u);
  // bob is no clerk.
  EXPECT_EQ(worklist.Claim(offers[0].id, bob_).code(),
            StatusCode::kFailedPrecondition);
  // Unknown item ids are kNotFound.
  EXPECT_EQ(worklist.Claim(WorkItemId(999999), alice_).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(worklist.Get(WorkItemId(999999)).status().code(),
            StatusCode::kNotFound);
}

TEST_F(WorklistServiceTest, ReleaseAndDelegate) {
  auto cluster = AdeptCluster::Create({.shards = 2});
  ASSERT_TRUE(cluster.ok());
  Init(**cluster);
  WorklistService& worklist = (*cluster)->Worklist();
  (void)*(*cluster)->CreateInstance("wl_proc");

  WorkItemId item = worklist.OffersFor(alice_)[0].id;
  ASSERT_TRUE(worklist.Claim(item, alice_).ok());

  // Release returns the item to every clerk's offers.
  ASSERT_TRUE(worklist.Release(item, alice_).ok());
  EXPECT_TRUE(worklist.AssignedTo(alice_).empty());
  ASSERT_EQ(worklist.OffersFor(carol_).size(), 1u);

  // Carol claims and delegates to alice; bob (wrong role) is rejected.
  ASSERT_TRUE(worklist.Claim(item, carol_).ok());
  EXPECT_EQ(worklist.Delegate(item, carol_, bob_).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(worklist.Delegate(item, carol_, alice_).ok());
  EXPECT_TRUE(worklist.AssignedTo(carol_).empty());
  ASSERT_EQ(worklist.AssignedTo(alice_).size(), 1u);
  // Only the current owner can release or start.
  EXPECT_EQ(worklist.Release(item, carol_).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(worklist.Start(item, alice_).ok());
}

// The acceptance-criteria test: under 8 concurrent claimers every item is
// claimed by exactly one user — no lost claims, no double claims.
TEST_F(WorklistServiceTest, EightThreadConcurrentClaimExactlyOnce) {
  auto cluster = AdeptCluster::Create({.shards = 4});
  ASSERT_TRUE(cluster.ok());
  Init(**cluster);
  OrgModel& org = (*cluster)->org();
  WorklistService& worklist = (*cluster)->Worklist();

  constexpr int kUsers = 8;
  constexpr int kItems = 64;
  std::vector<UserId> users;
  for (int u = 0; u < kUsers; ++u) {
    UserId user = *org.AddUser("claimer" + std::to_string(u));
    ASSERT_TRUE(org.AssignRole(user, clerk_).ok());
    users.push_back(user);
  }
  for (int i = 0; i < kItems; ++i) {
    ASSERT_TRUE((*cluster)->CreateInstance("wl_proc").ok());
  }
  auto offers = worklist.OffersFor(users[0]);
  ASSERT_EQ(offers.size(), static_cast<size_t>(kItems));

  std::atomic<int> successes{0};
  std::atomic<int> losers{0};
  std::atomic<int> unexpected{0};
  std::vector<std::thread> threads;
  for (int u = 0; u < kUsers; ++u) {
    threads.emplace_back([&, u] {
      for (const WorkItem& offer : offers) {
        Status st = worklist.Claim(offer.id, users[u]);
        if (st.ok()) {
          successes.fetch_add(1);
        } else if (st.code() == StatusCode::kFailedPrecondition) {
          losers.fetch_add(1);
        } else {
          unexpected.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Exactly one winner per item, everyone else lost the compare-and-swap.
  EXPECT_EQ(successes.load(), kItems);
  EXPECT_EQ(losers.load(), kItems * (kUsers - 1));
  EXPECT_EQ(unexpected.load(), 0);

  // The item table agrees: every item claimed, each by a valid user,
  // and the per-user assignment lists partition the items.
  std::set<uint64_t> seen;
  size_t assigned_total = 0;
  for (UserId user : users) {
    for (const WorkItem& item : worklist.AssignedTo(user)) {
      EXPECT_EQ(item.state, WorkItemState::kClaimed);
      EXPECT_EQ(item.claimed_by, user);
      EXPECT_TRUE(seen.insert(item.id.value()).second)
          << "item on two assignment lists";
      ++assigned_total;
    }
  }
  EXPECT_EQ(assigned_total, static_cast<size_t>(kItems));
  EXPECT_TRUE(worklist.OffersFor(users[0]).empty());
}

// The acceptance-criteria test: claimed items survive Recover() with owner
// and state intact.
TEST_F(WorklistServiceTest, ClaimedItemsSurviveRecovery) {
  TempDir dir;
  ClusterOptions options;
  options.shards = 2;
  options.wal_path = dir.File("cluster.wal");
  options.snapshot_path = dir.File("cluster.snapshot");

  InstanceId claimed_instance, started_instance, offered_instance;
  NodeId prepare;
  {
    auto cluster = AdeptCluster::Create(options);
    ASSERT_TRUE(cluster.ok());
    Init(**cluster);
    WorklistService& worklist = (*cluster)->Worklist();
    prepare = schema_->FindNodeByName("prepare");

    claimed_instance = *(*cluster)->CreateInstance("wl_proc");
    started_instance = *(*cluster)->CreateInstance("wl_proc");
    offered_instance = *(*cluster)->CreateInstance("wl_proc");

    std::map<uint64_t, WorkItemId> by_instance;
    for (const WorkItem& offer : worklist.OffersFor(alice_)) {
      by_instance[offer.instance.value()] = offer.id;
    }
    ASSERT_EQ(by_instance.size(), 3u);
    ASSERT_TRUE(
        worklist.Claim(by_instance[claimed_instance.value()], alice_).ok());
    ASSERT_TRUE(
        worklist.Claim(by_instance[started_instance.value()], carol_).ok());
    ASSERT_TRUE(
        worklist.Start(by_instance[started_instance.value()], carol_).ok());
  }  // cluster destroyed ("crash")

  auto recovered = AdeptCluster::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  // Never checkpointed: the org is empty; repopulate in the same order
  // (same ids).
  PopulateOrg(**recovered);
  WorklistService& worklist = (*recovered)->Worklist();

  auto alice_assigned = worklist.AssignedTo(alice_);
  ASSERT_EQ(alice_assigned.size(), 1u);
  EXPECT_EQ(alice_assigned[0].instance, claimed_instance);
  EXPECT_EQ(alice_assigned[0].node, prepare);
  EXPECT_EQ(alice_assigned[0].state, WorkItemState::kClaimed);
  EXPECT_EQ(alice_assigned[0].claimed_by, alice_);

  auto carol_assigned = worklist.AssignedTo(carol_);
  ASSERT_EQ(carol_assigned.size(), 1u);
  EXPECT_EQ(carol_assigned[0].instance, started_instance);
  EXPECT_EQ(carol_assigned[0].state, WorkItemState::kStarted);
  EXPECT_EQ(carol_assigned[0].claimed_by, carol_);

  // The unclaimed offer is re-derived from instance state; the claimed
  // ones stay off the offer lists.
  auto offers = worklist.OffersFor(alice_);
  ASSERT_EQ(offers.size(), 1u);
  EXPECT_EQ(offers[0].instance, offered_instance);

  // The recovered lifecycle keeps working end to end.
  ASSERT_TRUE(worklist.Start(alice_assigned[0].id, alice_).ok());
  ASSERT_TRUE(worklist.Complete(alice_assigned[0].id, alice_).ok());
  ASSERT_TRUE(worklist.Complete(carol_assigned[0].id, carol_).ok());
  ASSERT_EQ(worklist.OffersFor(bob_).size(), 2u);
}

TEST_F(WorklistServiceTest, ReleasedThenReclaimedSurvivesRecovery) {
  TempDir dir;
  ClusterOptions options;
  options.shards = 2;
  options.wal_path = dir.File("cluster.wal");
  options.snapshot_path = dir.File("cluster.snapshot");
  {
    auto cluster = AdeptCluster::Create(options);
    ASSERT_TRUE(cluster.ok());
    Init(**cluster);
    WorklistService& worklist = (*cluster)->Worklist();
    (void)*(*cluster)->CreateInstance("wl_proc");
    WorkItemId item = worklist.OffersFor(alice_)[0].id;
    ASSERT_TRUE(worklist.Claim(item, alice_).ok());
    ASSERT_TRUE(worklist.Release(item, alice_).ok());
    ASSERT_TRUE(worklist.Claim(item, carol_).ok());
  }
  auto recovered = AdeptCluster::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  PopulateOrg(**recovered);
  WorklistService& worklist = (*recovered)->Worklist();
  // The shard WAL replays claim -> release -> claim: carol owns the item.
  EXPECT_TRUE(worklist.AssignedTo(alice_).empty());
  auto assigned = worklist.AssignedTo(carol_);
  ASSERT_EQ(assigned.size(), 1u);
  EXPECT_EQ(assigned[0].state, WorkItemState::kClaimed);
}

// A claim ends with its node's run, in the shard WAL's own order: cut the
// WAL after any frame and recovery must never hand the claim of a
// completed loop iteration to the next iteration's fresh offer. Before the
// completion frame alice still owns the run; from it on, the offer of
// iteration 2 (a later activation epoch) is open to any clerk.
TEST_F(WorklistServiceTest, ShardWalCutNeverResurrectsStaleClaim) {
  TempDir dir;
  ClusterOptions options;
  options.shards = 1;
  options.wal_path = dir.File("cluster.wal");

  DataId again;
  NodeId work;
  {
    auto cluster = AdeptCluster::Create(options);
    ASSERT_TRUE(cluster.ok());
    PopulateOrg(**cluster);
    SchemaBuilder b("loop_proc", 1);
    again = b.Data("again", DataType::kBool);
    b.Loop(again, [&](SchemaBuilder& s) {
      work = s.Activity("work", {.role = clerk_});
      s.Writes(work, again);
    });
    auto schema = b.Build();
    ASSERT_TRUE(schema.ok());
    ASSERT_TRUE((*cluster)->DeployProcessType(*schema).ok());
    ASSERT_TRUE((*cluster)->CreateInstance("loop_proc").ok());

    WorklistService& worklist = (*cluster)->Worklist();
    auto offers = worklist.OffersFor(alice_);
    ASSERT_EQ(offers.size(), 1u);
    ASSERT_TRUE(worklist.Claim(offers[0].id, alice_).ok());
    ASSERT_TRUE(worklist.Start(offers[0].id, alice_).ok());
    // Iterate: "work" completes and is re-activated (fresh offer).
    ASSERT_TRUE(worklist
                    .Complete(offers[0].id, alice_,
                              {{again, DataValue::Bool(true)}})
                    .ok());
    ASSERT_EQ(worklist.OffersFor(carol_).size(), 1u);
  }

  const std::vector<std::string> frames =
      ReadFrames(options.wal_path + ".shard0");
  size_t claim_frame = frames.size();
  size_t complete_frame = frames.size();
  for (size_t f = 0; f < frames.size(); ++f) {
    if (frames[f].find(R"("t":"claim")") != std::string::npos) claim_frame = f;
    if (frames[f].find(R"("ev":"complete")") != std::string::npos) {
      complete_frame = f;
    }
  }
  ASSERT_LT(claim_frame, complete_frame);
  ASSERT_LT(complete_frame, frames.size());

  for (size_t count = claim_frame + 1; count <= frames.size(); ++count) {
    SCOPED_TRACE("WAL cut after frame " + std::to_string(count));
    TempDir cut_dir;
    ClusterOptions cut = options;
    cut.wal_path = cut_dir.File("cluster.wal");
    WriteFramePrefix(frames, count, cut.wal_path + ".shard0");
    auto recovered = AdeptCluster::Recover(cut);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    PopulateOrg(**recovered);
    WorklistService& worklist = (*recovered)->Worklist();
    if (count <= complete_frame) {
      auto assigned = worklist.AssignedTo(alice_);
      ASSERT_EQ(assigned.size(), 1u);
      EXPECT_EQ(assigned[0].node, work);
      continue;
    }
    // The run is over: alice holds nothing and any clerk can claim the
    // fresh offer.
    EXPECT_TRUE(worklist.AssignedTo(alice_).empty());
    auto offers = worklist.OffersFor(carol_);
    ASSERT_EQ(offers.size(), 1u);
    EXPECT_TRUE(worklist.Claim(offers[0].id, carol_).ok());
  }

  // A log can still carry a stale claim (hand edits, damage): append
  // alice's iteration-1 claim again after the completion. The activation
  // epoch keeps it off iteration 2's offer.
  TempDir forged_dir;
  ClusterOptions forged = options;
  forged.wal_path = forged_dir.File("cluster.wal");
  const std::string forged_wal = forged.wal_path + ".shard0";
  WriteFramePrefix(frames, frames.size(), forged_wal);
  {
    auto records = WriteAheadLog::ReadRecords(forged_wal);
    ASSERT_TRUE(records.ok());
    auto wal = WriteAheadLog::Open(forged_wal);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append((*records)[claim_frame].value).ok());
    ASSERT_TRUE((*wal)->Sync(SyncMode::kFlush).ok());
  }
  auto recovered = AdeptCluster::Recover(forged);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_EQ((*recovered)->shard(0).claims().size(), 1u);
  PopulateOrg(**recovered);
  EXPECT_TRUE((*recovered)->Worklist().AssignedTo(alice_).empty());
  EXPECT_EQ((*recovered)->Worklist().OffersFor(carol_).size(), 1u);
}

// The ledger's WAL-order contract under a random claim lifecycle: for
// every prefix of the shard WAL, Recover() attaches exactly the owners (and
// claimed/started states) the live worklist had at that LSN.
TEST_F(WorklistServiceTest, RecoverAtEveryWalPrefixAttachesTheLiveOwners) {
  TempDir dir;
  ClusterOptions options;
  options.shards = 1;
  options.wal_path = dir.File("cluster.wal");
  auto cluster = AdeptCluster::Create(options);
  ASSERT_TRUE(cluster.ok());
  AdeptCluster& c = **cluster;
  PopulateOrg(c);
  SchemaBuilder b("chain_proc", 1);
  std::vector<NodeId> steps;
  for (const char* name : {"a", "b", "c", "d"}) {
    steps.push_back(b.Activity(name, {.role = clerk_}));
  }
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(c.DeployProcessType(*schema).ok());
  std::vector<InstanceId> instances;
  for (int i = 0; i < 8; ++i) {
    instances.push_back(*c.CreateInstance("chain_proc"));
  }
  WorklistService& worklist = c.Worklist();
  const std::vector<UserId> clerks = {alice_, carol_};

  // Live owners after every LSN the sequence reached.
  std::map<uint64_t, Owners> expected;
  auto lsn = [&] { return c.shard(0).last_enqueued_lsn(); };
  expected[lsn()] = OwnersOf(worklist, clerks);

  Rng rng(19);
  for (int op = 0; op < 120; ++op) {
    const InstanceId instance = instances[rng.NextBelow(instances.size())];
    // The instance's live item (one role-carrying step is open at a time),
    // and who holds it.
    std::optional<WorkItem> item;
    for (UserId clerk : clerks) {
      for (const WorkItem& held : worklist.AssignedTo(clerk)) {
        if (held.instance == instance) item = held;
      }
    }
    for (const WorkItem& offer : worklist.OffersFor(alice_)) {
      if (offer.instance == instance) item = offer;
    }
    if (!item.has_value()) continue;  // finished
    const UserId owner = item->claimed_by;
    const UserId other = owner == alice_ ? carol_ : alice_;
    const uint64_t before = lsn();
    const uint64_t pick = rng.NextBelow(4);
    if (pick == 0) {  // revoke: delete the activity ad hoc, claimed or not
      Delta delta;
      delta.Add(std::make_unique<DeleteActivityOp>(item->node));
      (void)c.ApplyAdHocChange(instance, std::move(delta));
    } else if (item->state == WorkItemState::kOffered) {
      ASSERT_TRUE(
          worklist.Claim(item->id, clerks[rng.NextBelow(clerks.size())]).ok());
    } else if (item->state == WorkItemState::kStarted) {
      ASSERT_TRUE(worklist.Complete(item->id, owner).ok());
    } else if (pick == 1) {
      ASSERT_TRUE(worklist.Release(item->id, owner).ok());
    } else if (pick == 2) {
      ASSERT_TRUE(worklist.Delegate(item->id, owner, other).ok());
    } else {
      ASSERT_TRUE(worklist.Start(item->id, owner).ok());
    }
    // One record per transition, so the loop visits every prefix.
    ASSERT_LE(lsn() - before, 1u) << "op " << op;
    expected[lsn()] = OwnersOf(worklist, clerks);
  }
  ASSERT_GT(expected.size(), 50u) << "the sequence must reach many LSNs";
  std::set<WorkItemState> states_seen;
  for (const auto& [at, owners] : expected) {
    for (const auto& [key, owner] : owners) states_seen.insert(owner.second);
  }
  ASSERT_EQ(states_seen.size(), 2u) << "claimed and started owners";
  cluster->reset();

  const std::vector<std::string> frames =
      ReadFrames(options.wal_path + ".shard0");
  ASSERT_EQ(frames.size(), expected.rbegin()->first);
  for (const auto& [at, owners] : expected) {
    SCOPED_TRACE("WAL prefix up to LSN " + std::to_string(at));
    TempDir cut_dir;
    ClusterOptions cut = options;
    cut.wal_path = cut_dir.File("cluster.wal");
    WriteFramePrefix(frames, at, cut.wal_path + ".shard0");
    auto recovered = AdeptCluster::Recover(cut);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ(OwnersOf((*recovered)->Worklist(), clerks), owners);
    // The replayed ledger itself is the live one: no claim outlives its
    // node's run.
    EXPECT_EQ((*recovered)->shard(0).claims().size(), owners.size());
  }
}

// Revocation storm: a bulk cross-shard migration demotes the offered/
// claimed activity on every instance; each item is retracted exactly once
// and stale claim tickets fail kNotFound.
TEST_F(WorklistServiceTest, BulkMigrationRetractsOfferedAndClaimedOnce) {
  auto cluster = AdeptCluster::Create({.shards = 4});
  ASSERT_TRUE(cluster.ok());
  Init(**cluster);
  WorklistService& worklist = (*cluster)->Worklist();

  constexpr int kInstances = 12;
  NodeId prepare = schema_->FindNodeByName("prepare");
  std::vector<InstanceId> instances;
  for (int i = 0; i < kInstances; ++i) {
    InstanceId id = *(*cluster)->CreateInstance("wl_proc");
    instances.push_back(id);
    // Complete "prepare" so "execute" (packer) is the offered activity.
    ASSERT_TRUE((*cluster)->StartActivity(id, prepare).ok());
    ASSERT_TRUE((*cluster)->CompleteActivity(id, prepare).ok());
  }
  auto offers = worklist.OffersFor(bob_);
  ASSERT_EQ(offers.size(), static_cast<size_t>(kInstances));
  // Claim half of them: revocation must retract offered AND claimed.
  std::vector<WorkItemId> claimed_ids;
  for (int i = 0; i < kInstances / 2; ++i) {
    ASSERT_TRUE(worklist.Claim(offers[i].id, bob_).ok());
    claimed_ids.push_back(offers[i].id);
  }

  // Delta-T: insert "inspect" (clerk) before "execute" on every instance.
  Delta delta;
  NewActivitySpec spec;
  spec.name = "inspect";
  spec.role = clerk_;
  delta.Add(std::make_unique<SerialInsertOp>(
      spec, prepare, schema_->FindNodeByName("execute")));
  auto v2 = (*cluster)->EvolveProcessType(v1_id_, std::move(delta));
  ASSERT_TRUE(v2.ok());
  auto report = (*cluster)->MigrateToLatest("wl_proc");
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->MigratedTotal(), static_cast<size_t>(kInstances));

  // Every "execute" item was retracted exactly once; "inspect" offers
  // replace them.
  WorklistStats stats = worklist.Stats();
  EXPECT_EQ(stats.revoked_total, static_cast<size_t>(kInstances));
  EXPECT_TRUE(worklist.OffersFor(bob_).empty());
  EXPECT_TRUE(worklist.AssignedTo(bob_).empty());
  EXPECT_EQ(worklist.OffersFor(alice_).size(),
            static_cast<size_t>(kInstances));
  for (WorkItemId id : claimed_ids) {
    EXPECT_EQ(worklist.Claim(id, bob_).code(), StatusCode::kNotFound);
  }
  EXPECT_EQ(stats.claimed, 0u);
}

// Cluster version of org_test's StaleItemAfterBiasCancellationMigration:
// bias cancellation remaps instance state without per-node events, so the
// resync after MigrateToLatest must retract the item on the bias's node id
// and offer the remapped activity, on every shard. The resync visits only
// the instances the migration changed: a bystander on the same shard that
// stays behind keeps its snapshot and its offer, under the same WorkItemId.
TEST_F(WorklistServiceTest, StaleItemAfterBiasCancellationMigration) {
  auto cluster = AdeptCluster::Create({.shards = 2});
  ASSERT_TRUE(cluster.ok());
  AdeptCluster& c = **cluster;
  PopulateOrg(c);
  WorklistService& worklist = c.Worklist();

  // start -> a(clerk) -> b(clerk) -> d(packer) -> end
  SchemaBuilder builder("bias_proc", 1);
  const NodeId a = builder.Activity("a", {.role = clerk_});
  const NodeId b = builder.Activity("b", {.role = clerk_});
  builder.Activity("d", {.role = packer_});
  auto schema = builder.Build();
  ASSERT_TRUE(schema.ok());
  auto v1 = c.DeployProcessType(*schema);
  ASSERT_TRUE(v1.ok());
  auto insert_x = [&] {
    Delta delta;
    NewActivitySpec spec;
    spec.name = "x";
    spec.role = clerk_;
    delta.Add(std::make_unique<SerialInsertOp>(spec, a, b));
    return delta;
  };

  // Instances 1 and 2 (one per shard) insert "x" ad hoc after completing
  // "a": "x" is offered on its bias node id.
  std::vector<InstanceId> biased;
  for (int i = 0; i < 2; ++i) {
    InstanceId id = *c.CreateInstance("bias_proc");
    ASSERT_TRUE(c.StartActivity(id, a).ok());
    ASSERT_TRUE(c.CompleteActivity(id, a).ok());
    ASSERT_TRUE(c.ApplyAdHocChange(id, insert_x()).ok());
    biased.push_back(id);
  }
  ASSERT_NE(c.ShardOf(biased[0]), c.ShardOf(biased[1]));
  std::vector<WorkItem> stale = worklist.OffersFor(alice_);
  ASSERT_EQ(stale.size(), 2u);
  // One of them is claimed: the remap strands its ledger entry on the
  // bias's node id.
  ASSERT_TRUE(worklist.Claim(stale[0].id, alice_).ok());
  const AdeptSystem& stale_owner = c.shard(c.ShardOf(stale[0].instance));
  ASSERT_NE(stale_owner.claims().Find(stale[0].instance, stale[0].node),
            nullptr);

  // Instance 3 shares instance 1's shard and is past "b": inserting "x"
  // before it is a state conflict, so it stays behind with "d" offered.
  InstanceId bystander = *c.CreateInstance("bias_proc");
  ASSERT_EQ(c.ShardOf(bystander), c.ShardOf(biased[0]));
  for (NodeId node : {a, b}) {
    ASSERT_TRUE(c.StartActivity(bystander, node).ok());
    ASSERT_TRUE(c.CompleteActivity(bystander, node).ok());
  }
  std::vector<WorkItem> kept = worklist.OffersFor(bob_);
  ASSERT_EQ(kept.size(), 1u);
  const uint64_t bystander_version = c.SnapshotOf(bystander)->version;

  // The type evolves by the same insert: both biases are cancelled.
  ASSERT_TRUE(c.EvolveProcessType(*v1, insert_x()).ok());
  auto report = c.MigrateToLatest("bias_proc");
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->Count(MigrationOutcome::kBiasCancelled), 2u);
  ASSERT_EQ(report->Count(MigrationOutcome::kStateConflict), 1u);

  for (const WorkItem& item : stale) {
    EXPECT_EQ(worklist.Claim(item.id, alice_).code(), StatusCode::kNotFound);
  }
  // The migration pruned the stranded claim from its shard's ledger.
  EXPECT_EQ(stale_owner.claims().Find(stale[0].instance, stale[0].node),
            nullptr);
  EXPECT_TRUE(worklist.AssignedTo(alice_).empty());
  std::vector<WorkItem> remapped = worklist.OffersFor(alice_);
  ASSERT_EQ(remapped.size(), 2u);
  for (const WorkItem& item : remapped) {
    auto snapshot = c.SnapshotOf(item.instance);
    ASSERT_NE(snapshot, nullptr);
    EXPECT_FALSE(snapshot->biased);
    const Node* node = snapshot->schema->FindNode(item.node);
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(node->name, "x");
    EXPECT_EQ(snapshot->marking.node(item.node), NodeState::kActivated);
    EXPECT_TRUE(worklist.Claim(item.id, alice_).ok());
  }

  std::vector<WorkItem> after = worklist.OffersFor(bob_);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].id, kept[0].id);
  EXPECT_EQ(after[0].instance, bystander);
  EXPECT_EQ(c.SnapshotOf(bystander)->version, bystander_version);
  EXPECT_TRUE(worklist.Claim(kept[0].id, bob_).ok());
}

TEST_F(WorklistServiceTest, AdHocDeletionRetractsClaimedItem) {
  auto cluster = AdeptCluster::Create({.shards = 2});
  ASSERT_TRUE(cluster.ok());
  Init(**cluster);
  WorklistService& worklist = (*cluster)->Worklist();

  InstanceId id = *(*cluster)->CreateInstance("wl_proc");
  auto offers = worklist.OffersFor(alice_);
  ASSERT_EQ(offers.size(), 1u);
  ASSERT_TRUE(worklist.Claim(offers[0].id, alice_).ok());

  Delta delta;
  delta.Add(std::make_unique<DeleteActivityOp>(
      schema_->FindNodeByName("prepare")));
  ASSERT_TRUE((*cluster)->ApplyAdHocChange(id, std::move(delta)).ok());

  EXPECT_TRUE(worklist.AssignedTo(alice_).empty());
  EXPECT_EQ(worklist.Stats().revoked_total, 1u);
  EXPECT_EQ(worklist.Claim(offers[0].id, alice_).code(),
            StatusCode::kNotFound);
  // The successor is offered instead.
  ASSERT_EQ(worklist.OffersFor(bob_).size(), 1u);
}

// A checkpoint bounds the durable claims at the live ones: after
// SaveSnapshot the shard WALs hold no claim records, and the shard
// snapshots hold one ledger entry per live claim — however many claim
// cycles ran before. A node's durable files are each shard's WAL and
// snapshot, nothing else.
TEST_F(WorklistServiceTest, CheckpointHoldsOneLedgerEntryPerLiveClaim) {
  TempDir dir;
  ClusterOptions options;
  options.shards = 2;
  options.wal_path = dir.File("cluster.wal");
  options.snapshot_path = dir.File("cluster.snapshot");
  auto claim_records = [&] {
    size_t count = 0;
    for (size_t k = 0; k < 2; ++k) {
      auto records = WriteAheadLog::ReadRecords(
          ShardRouting::PathFor(options.wal_path, k));
      EXPECT_TRUE(records.ok());
      for (const WalRecord& record : *records) {
        const std::string& type = record.value.Get("t").as_string();
        if (type == "claim" || type == "release") ++count;
      }
    }
    return count;
  };
  auto ledger_entries = [&] {
    size_t count = 0;
    for (size_t k = 0; k < 2; ++k) {
      auto content = ReadFileToString(
          ShardRouting::PathFor(options.snapshot_path, k));
      EXPECT_TRUE(content.ok());
      auto json = JsonValue::Parse(*content);
      EXPECT_TRUE(json.ok());
      count += json->Get("claims").as_array().size();
    }
    return count;
  };

  auto cluster = AdeptCluster::Create(options);
  ASSERT_TRUE(cluster.ok());
  Init(**cluster);
  WorklistService& worklist = (*cluster)->Worklist();

  // A full claim cycle for one user on the instance's currently offered
  // activity: claim -> start -> complete.
  auto run_cycle = [&](InstanceId id, UserId user) {
    WorkItemId item;
    bool found = false;
    for (const WorkItem& offer : worklist.OffersFor(user)) {
      if (offer.instance == id) {
        item = offer.id;
        found = true;
      }
    }
    ASSERT_TRUE(found) << "no offer for instance " << id;
    ASSERT_TRUE(worklist.Claim(item, user).ok());
    ASSERT_TRUE(worklist.Start(item, user).ok());
    ASSERT_TRUE(worklist.Complete(item, user).ok());
  };

  // 10 checkpointed churn cycles; every claim closes within its cycle.
  for (int cycle = 0; cycle < 10; ++cycle) {
    InstanceId id = *(*cluster)->CreateInstance("wl_proc");
    run_cycle(id, alice_);  // prepare (clerk)
    run_cycle(id, bob_);    // execute (packer)
    EXPECT_GT(claim_records(), 0u) << "cycle " << cycle;
    ASSERT_TRUE((*cluster)->SaveSnapshot().ok());
    EXPECT_EQ(claim_records(), 0u) << "cycle " << cycle;
    EXPECT_EQ(ledger_entries(), 0u) << "cycle " << cycle;
  }

  // With live claims the snapshots hold exactly one entry each.
  InstanceId open1 = *(*cluster)->CreateInstance("wl_proc");
  InstanceId open2 = *(*cluster)->CreateInstance("wl_proc");
  std::map<uint64_t, WorkItemId> by_instance;
  for (const WorkItem& offer : worklist.OffersFor(alice_)) {
    by_instance[offer.instance.value()] = offer.id;
  }
  ASSERT_TRUE(worklist.Claim(by_instance[open1.value()], alice_).ok());
  ASSERT_TRUE(worklist.Claim(by_instance[open2.value()], carol_).ok());
  ASSERT_TRUE(worklist.Start(by_instance[open2.value()], carol_).ok());
  ASSERT_TRUE((*cluster)->SaveSnapshot().ok());
  EXPECT_EQ(claim_records(), 0u);
  EXPECT_EQ(ledger_entries(), 2u);

  // The checkpointed ledgers recover claims with owner and state, and the
  // org with them.
  cluster->reset();
  std::set<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(options.wal_path).parent_path())) {
    files.insert(entry.path().filename().string());
  }
  EXPECT_EQ(files, (std::set<std::string>{
                       "cluster.snapshot.shard0", "cluster.snapshot.shard1",
                       "cluster.wal.shard0", "cluster.wal.shard1"}));
  auto recovered = AdeptCluster::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ((*recovered)->org().user_count(), 3u);
  WorklistService& recovered_worklist = (*recovered)->Worklist();
  auto alice_assigned = recovered_worklist.AssignedTo(alice_);
  ASSERT_EQ(alice_assigned.size(), 1u);
  EXPECT_EQ(alice_assigned[0].instance, open1);
  EXPECT_EQ(alice_assigned[0].state, WorkItemState::kClaimed);
  auto carol_assigned = recovered_worklist.AssignedTo(carol_);
  ASSERT_EQ(carol_assigned.size(), 1u);
  EXPECT_EQ(carol_assigned[0].instance, open2);
  EXPECT_EQ(carol_assigned[0].state, WorkItemState::kStarted);
}

}  // namespace
}  // namespace adept
