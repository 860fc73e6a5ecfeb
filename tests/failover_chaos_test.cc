// Deterministic failover chaos harness (see src/cluster/README.md).
//
// Each test is one scripted schedule over a FailoverCoordinator topology
// (founding primary + 3 standby nodes, commit quorum 2) with a
// ClusterClient as the only write path, and checks the same invariants
// afterwards:
//
//   - no acked commit lost: every op the client reported ok is present
//     on the current primary;
//   - no duplicate instance: each created id exists exactly once, and
//     the instance count equals the number of ok creates;
//   - exactly one epoch-fenced primary lineage per shard: the promoted
//     view's epoch strictly dominates, and a resurrected old primary
//     fails every write with IsFenced();
//   - claims survive failover: claims ride the WAL of the shard that owns
//     their instance, so every Claim() that returned OK before a kill is
//     owned by the same user, in the same state, on the promoted primary
//     (schedules 1 and 4; schedule 2 kills nobody and checks its claim
//     on the same primary).
//
// The schedules:
//
//   1. kill the primary while a batch is in flight (ack drops make its
//      quorum fate ambiguous) — the acceptance row: retried writes land
//      on the auto-promoted replica, nothing lost, nothing doubled, and
//      no PromoteReplicaFiles()/Promote() call appears in the test;
//   2. heartbeat-only drops toward a minority of standbys — suspicion
//      without a majority must never promote;
//   3. bidirectional partition of the primary — the isolated side fails
//      writes fast and serves degraded reads while the majority elects;
//   4. chained failovers with rejoins (the storm) — the survivor
//      watermark stays sound across two promotions;
//   5. a standby dies mid-promotion — the protocol completes with the
//      remaining quorum.
//
// Determinism: every fault is a scripted injector flip or an explicit
// Kill/Restart call; client jitter is seeded; health verdicts come from
// the heartbeat clock, whose thresholds are set far below the waits used
// here.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/adept_cluster.h"
#include "cluster/cluster_client.h"
#include "cluster/failover_coordinator.h"
#include "model/schema_builder.h"
#include "repl/replication.h"
#include "tests/test_fixtures.h"
#include "worklist/worklist_service.h"

namespace adept {
namespace {

using testing_fixtures::SequenceSchema;

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("adept_chaos_test_" + std::to_string(counter_++));
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

// Heartbeat thresholds well under the waits the schedules use, so a
// scripted silence always crosses them; ack/io timeouts short, so the
// client's ambiguous rounds resolve quickly.
FailoverOptions ChaosOptions(const TempDir& dir, bool auto_promote = true) {
  FailoverOptions options;
  options.cluster.shards = 2;
  options.cluster.wal_path = dir.File("primary.wal");
  options.cluster.snapshot_path = dir.File("primary.snapshot");
  options.replicas = 3;
  options.quorum = 2;
  options.data_dir = dir.File("nodes");
  options.repl.retry_ms = 20;
  options.repl.io_timeout_ms = 1000;
  options.repl.ack_timeout_ms = 250;
  options.repl.heartbeat_interval_ms = 50;
  options.repl.suspect_after_ms = 200;
  options.repl.dead_after_ms = 500;
  options.poll_interval_ms = 25;
  options.confirm_polls = 2;
  options.auto_promote = auto_promote;
  return options;
}

RetryPolicy ChaosRetryPolicy() {
  RetryPolicy policy;
  policy.max_attempts = 40;
  policy.base_backoff_ms = 25;
  policy.backoff_cap_ms = 200;
  policy.jitter_seed = 7;
  return policy;
}

size_t CountInstances(AdeptCluster& cluster) {
  size_t count = 0;
  cluster.ForEachSnapshot([&](const InstanceSnapshot&) { ++count; });
  return count;
}

bool InstanceExists(AdeptCluster& cluster, InstanceId id) {
  return cluster.WithInstance(id, [](const ProcessInstance&) {}).ok();
}

// A claim whose Claim() (and Start(), when started) returned OK.
struct AckedClaim {
  InstanceId instance;
  NodeId node;
  UserId user;
  WorkItemState state;
};

// Staff and a role-routed process for the claim invariant: one clerk
// role, `users` clerks. Populating in the same order yields the same ids.
std::vector<UserId> AddClerks(AdeptCluster& cluster, int users) {
  OrgModel& org = cluster.org();
  RoleId clerk = *org.AddRole("clerk");
  std::vector<UserId> clerks;
  for (int u = 0; u < users; ++u) {
    UserId user = *org.AddUser("clerk" + std::to_string(u));
    EXPECT_TRUE(org.AssignRole(user, clerk).ok());
    clerks.push_back(user);
  }
  return clerks;
}

std::shared_ptr<const ProcessSchema> ClaimedSchema(const OrgModel& org) {
  SchemaBuilder builder("claimed_proc", 1);
  builder.Activity("prepare", {.role = *org.FindRole("clerk")});
  builder.Activity("ship", {.role = *org.FindRole("clerk")});
  auto schema = builder.Build();
  return schema.ok() ? *schema : nullptr;
}

// Creates `count` claimed_proc instances through the client and claims
// each one's offer on `cluster`, round-robin over `clerks`; every other
// claim is also started. Appends the new ids to `acked`.
std::vector<AckedClaim> ClaimSome(AdeptCluster& cluster, ClusterClient& client,
                                  const std::vector<UserId>& clerks,
                                  int count, std::vector<InstanceId>* acked) {
  std::vector<AckedClaim> claims;
  WorklistService& worklist = cluster.Worklist();
  for (int i = 0; i < count; ++i) {
    auto id = client.Create("claimed_proc");
    EXPECT_TRUE(id.ok()) << id.status();
    if (!id.ok()) return claims;
    acked->push_back(*id);
    const UserId user = clerks[static_cast<size_t>(i) % clerks.size()];
    for (const WorkItem& offer : worklist.OffersFor(user)) {
      if (offer.instance != *id) continue;
      Status claimed = worklist.Claim(offer.id, user);
      EXPECT_TRUE(claimed.ok()) << claimed;
      WorkItemState state = WorkItemState::kClaimed;
      if (claimed.ok() && i % 2 == 1) {
        Status started = worklist.Start(offer.id, user);
        EXPECT_TRUE(started.ok()) << started;
        state = WorkItemState::kStarted;
      }
      if (claimed.ok()) claims.push_back({*id, offer.node, user, state});
    }
  }
  EXPECT_EQ(claims.size(), static_cast<size_t>(count));
  return claims;
}

// The shared post-schedule invariant "claims survive failover": every
// acked claim is owned by the same user, in the same state, on the
// current primary.
void ExpectClaimsSurvive(AdeptCluster& cluster,
                         const std::vector<AckedClaim>& claims) {
  WorklistService& worklist = cluster.Worklist();
  for (const AckedClaim& claim : claims) {
    bool found = false;
    for (const WorkItem& item : worklist.AssignedTo(claim.user)) {
      if (item.instance != claim.instance || item.node != claim.node) continue;
      found = true;
      EXPECT_EQ(item.state, claim.state)
          << "claim on I" << claim.instance.value() << " changed state";
    }
    EXPECT_TRUE(found) << "acked claim on I" << claim.instance.value()
                       << " by u" << claim.user.value() << " lost";
  }
}

// The shared post-schedule invariant: every acked id exists exactly once
// on the current primary and nothing else does.
void ExpectExactlyTheAckedInstances(AdeptCluster& cluster,
                                    const std::vector<InstanceId>& acked) {
  std::set<uint64_t> unique;
  for (InstanceId id : acked) {
    EXPECT_TRUE(unique.insert(id.value()).second)
        << "duplicate acked id I" << id.value();
    EXPECT_TRUE(InstanceExists(cluster, id))
        << "acked instance I" << id.value() << " lost";
  }
  EXPECT_EQ(CountInstances(cluster), acked.size());
}

// Polls until the resurrected old lineage has learned it was deposed
// (the standbys reject its stale HELLO). Returns the fenced write status.
Status WaitForFencedWrite(AdeptCluster& cluster, int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    auto id = cluster.CreateInstance("seq");
    if (!id.ok() && IsFenced(id.status())) return id.status();
    if (std::chrono::steady_clock::now() > deadline) {
      return id.ok() ? Status::OK() : id.status();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

// --- Schedule 1: kill the primary while a batch is in flight -----------------

// The acceptance row. Ack drops on every standby first make in-flight
// commits ambiguous (applied + shipped, never acknowledged), then the
// primary is killed mid-batch. The client must finish every op against
// the auto-promoted replica: ops whose records reached the standbys
// settle through the survivor watermark (reconciled, original id); ops
// that died with the old primary's unacked suffix are re-issued. At no
// point does the test call PromoteReplicaFiles or Promote itself.
TEST(FailoverChaosTest, KillPrimaryMidBatchRetriedWritesSurvivePromotion) {
  TempDir dir;
  ToggleFaultInjector ack_drop[3];
  FailoverOptions options = ChaosOptions(dir);
  options.node_ack_injectors = {&ack_drop[0], &ack_drop[1], &ack_drop[2]};
  auto coordinator = FailoverCoordinator::Start(options);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status();
  FailoverCoordinator& coord = **coordinator;
  ClusterClient client(&coord, ChaosRetryPolicy());

  // Healthy baseline: schema + a few instances, cleanly quorum-acked.
  PrimaryView v1 = coord.View();
  ASSERT_NE(v1.cluster, nullptr);
  ASSERT_TRUE(v1.cluster->DeployProcessType(SequenceSchema(6)).ok());
  std::vector<InstanceId> acked;
  for (int i = 0; i < 4; ++i) {
    auto id = client.Create("seq");
    ASSERT_TRUE(id.ok()) << id.status();
    acked.push_back(*id);
  }
  // Claims, quorum-acked like any write. Their instances stay out of the
  // in-flight batch below, whose steps would end the claimed runs.
  const std::vector<UserId> clerks = AddClerks(*v1.cluster, 2);
  ASSERT_TRUE(
      v1.cluster->DeployProcessType(ClaimedSchema(v1.cluster->org())).ok());
  std::vector<InstanceId> claimed_instances;
  const std::vector<AckedClaim> claims =
      ClaimSome(*v1.cluster, client, clerks, 4, &claimed_instances);

  // Cut every ack path: commits still apply and ship, but their quorum
  // fate is ambiguous from here on.
  for (ToggleFaultInjector& t : ack_drop) t.set_enabled(true);

  // The in-flight batch: more creates plus steps on the baseline. The
  // client cannot finish it against the doomed lineage — its rounds park
  // in limbo — so the kill below is guaranteed to land mid-batch.
  std::vector<AdeptCluster::BatchOp> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(AdeptCluster::BatchOp::Create("seq"));
  }
  for (InstanceId id : acked) {
    batch.push_back(AdeptCluster::BatchOp::DriveStep(id));
  }
  std::vector<ClusterClient::OpOutcome> outcomes;
  std::thread writer([&] { outcomes = client.Submit(batch); });

  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_TRUE(coord.KillPrimary().ok());
  // Heal the ack paths so the promoted lineage commits normally.
  for (ToggleFaultInjector& t : ack_drop) t.set_enabled(false);

  // The monitor must detect and promote on its own.
  auto v2 = coord.WaitForFailover(v1.version, 20000);
  ASSERT_TRUE(v2.ok()) << v2.status();
  writer.join();

  EXPECT_EQ(coord.promotions(), 1u);
  EXPECT_GT(v2->epoch, v1.epoch);
  ASSERT_NE(v2->cluster, nullptr);
  EXPECT_NE(v2->cluster.get(), v1.cluster.get());

  ASSERT_EQ(outcomes.size(), batch.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_TRUE(outcomes[i].status.ok())
        << "op " << i << ": " << outcomes[i].status;
    if (i < 8) acked.push_back(outcomes[i].id);
  }
  EXPECT_GT(client.retry_rounds(), 0u);

  acked.insert(acked.end(), claimed_instances.begin(),
               claimed_instances.end());
  ExpectExactlyTheAckedInstances(*v2->cluster, acked);
  ExpectClaimsSurvive(*v2->cluster, claims);

  // The deposed lineage comes back unaware: every write it takes is
  // rejected with the fencing marker once the standbys turn it away.
  auto resurrected = coord.ResurrectOldPrimary();
  ASSERT_TRUE(resurrected.ok()) << resurrected.status();
  Status fenced = WaitForFencedWrite(**resurrected);
  EXPECT_TRUE(IsFenced(fenced)) << fenced;

  // Rejoined as a standby, its divergent unacked suffix is snapshot-reset
  // away and the cluster keeps committing with one more copy.
  ASSERT_TRUE(coord.RejoinOldPrimaryAsReplica().ok());
  EXPECT_EQ(coord.replica_count(), 4);
  auto post = client.Create("seq");
  ASSERT_TRUE(post.ok()) << post.status();
  acked.push_back(*post);
  ExpectExactlyTheAckedInstances(*coord.View().cluster, acked);
}

// --- Schedule 2: heartbeat-only drops toward a minority ----------------------

// One standby stops hearing heartbeats on an idle cluster, times the
// primary out, and votes dead — but one vote out of three is a minority,
// so no promotion may happen. Batch traffic still flows through the
// filtered link (only kMsgHeartbeat frames are dropped), writes keep
// committing, and — this schedule kills nobody — worklist claims are
// untouched throughout.
TEST(FailoverChaosTest, HeartbeatDropsToMinorityNeverPromote) {
  TempDir dir;
  ToggleFaultInjector heartbeat_drop(kMsgHeartbeat);
  FailoverOptions options = ChaosOptions(dir);
  options.node_send_injectors = {&heartbeat_drop, nullptr, nullptr};
  auto coordinator = FailoverCoordinator::Start(options);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status();
  FailoverCoordinator& coord = **coordinator;
  ClusterClient client(&coord, ChaosRetryPolicy());

  PrimaryView v1 = coord.View();
  ASSERT_NE(v1.cluster, nullptr);

  // Org + a role-routed process so there is a claim to watch.
  OrgModel& org = v1.cluster->org();
  RoleId clerk = *org.AddRole("clerk");
  UserId alice = *org.AddUser("alice");
  ASSERT_TRUE(org.AssignRole(alice, clerk).ok());
  SchemaBuilder builder("claimed_proc", 1);
  builder.Activity("prepare", {.role = clerk});
  auto schema = builder.Build();
  ASSERT_TRUE(schema.ok()) << schema.status();
  ASSERT_TRUE(v1.cluster->DeployProcessType(*schema).ok());
  ASSERT_TRUE(v1.cluster->DeployProcessType(SequenceSchema(6)).ok());

  InstanceId claimed_instance = *client.Create("claimed_proc");
  WorklistService& worklist = v1.cluster->Worklist();
  auto offers = worklist.OffersFor(alice);
  ASSERT_EQ(offers.size(), 1u);
  ASSERT_TRUE(worklist.Claim(offers[0].id, alice).ok());

  // Silence the heartbeats toward node 0 across several dead windows.
  heartbeat_drop.set_enabled(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  EXPECT_EQ(coord.promotions(), 0u);
  EXPECT_GT(heartbeat_drop.frames_dropped(), 0u);

  // Still the same lineage; writes commit (the filtered link passes
  // batches, and the other two standbys ack regardless).
  auto mid = client.Create("seq");
  ASSERT_TRUE(mid.ok()) << mid.status();
  EXPECT_EQ(coord.View().version, v1.version);

  heartbeat_drop.set_enabled(false);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(coord.promotions(), 0u);

  // The claim survived the whole schedule (nobody died).
  auto assigned = worklist.AssignedTo(alice);
  ASSERT_EQ(assigned.size(), 1u);
  EXPECT_EQ(assigned[0].state, WorkItemState::kClaimed);
  EXPECT_EQ(assigned[0].instance, claimed_instance);

  ExpectExactlyTheAckedInstances(*coord.View().cluster,
                                 {claimed_instance, *mid});
}

// --- Schedule 3: bidirectional partition of the primary ----------------------

// Both directions between the primary and every standby are cut. The
// isolated primary must degrade, not diverge: writes fail fast with the
// no-quorum marker (definitely-not-applied), reads serve its published
// snapshots flagged degraded. The majority side elects a new lineage;
// after the heal the client commits against it and nothing was lost or
// doubled.
TEST(FailoverChaosTest, BidirectionalPartitionMinorityDegradesMajorityElects) {
  TempDir dir;
  ToggleFaultInjector send_cut[3];
  ToggleFaultInjector ack_cut[3];
  FailoverOptions options = ChaosOptions(dir);
  options.node_send_injectors = {&send_cut[0], &send_cut[1], &send_cut[2]};
  options.node_ack_injectors = {&ack_cut[0], &ack_cut[1], &ack_cut[2]};
  auto coordinator = FailoverCoordinator::Start(options);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status();
  FailoverCoordinator& coord = **coordinator;
  ClusterClient client(&coord, ChaosRetryPolicy());

  PrimaryView v1 = coord.View();
  ASSERT_NE(v1.cluster, nullptr);
  ASSERT_TRUE(v1.cluster->DeployProcessType(SequenceSchema(6)).ok());
  std::vector<InstanceId> acked;
  for (int i = 0; i < 6; ++i) {
    auto id = client.Create("seq");
    ASSERT_TRUE(id.ok()) << id.status();
    acked.push_back(*id);
  }

  // Partition: nothing crosses between the primary and any standby.
  for (ToggleFaultInjector& t : send_cut) t.set_enabled(true);
  for (ToggleFaultInjector& t : ack_cut) t.set_enabled(true);

  // Past the dead threshold the isolated primary's health view shows no
  // live quorum: the write gate rejects before any mutation.
  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  auto rejected = v1.cluster->CreateInstance("seq");
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(IsNoQuorum(rejected.status()) ||
              IsQuorumTimeout(rejected.status()))
      << rejected.status();

  // Degraded reads on the minority side: every published snapshot is
  // served, and the result says so.
  auto degraded_read = v1.cluster->Query("state != finished");
  ASSERT_TRUE(degraded_read.ok()) << degraded_read.status();
  EXPECT_TRUE(degraded_read->degraded);
  EXPECT_EQ(degraded_read->size(), acked.size());

  // The majority saw the same silence and elected without being told.
  auto v2 = coord.WaitForFailover(v1.version, 20000);
  ASSERT_TRUE(v2.ok()) << v2.status();
  EXPECT_GT(v2->epoch, v1.epoch);

  // Heal. The client re-resolves and commits against the new lineage.
  for (ToggleFaultInjector& t : send_cut) t.set_enabled(false);
  for (ToggleFaultInjector& t : ack_cut) t.set_enabled(false);
  auto healed = client.Create("seq");
  ASSERT_TRUE(healed.ok()) << healed.status();
  acked.push_back(*healed);

  // The rejected write really never applied: counts are exact.
  ExpectExactlyTheAckedInstances(*coord.View().cluster, acked);

  // Fresh reads are whole again.
  auto clean_read = client.Query("state != finished");
  ASSERT_TRUE(clean_read.ok()) << clean_read.status();
  EXPECT_FALSE(clean_read->degraded);
}

// --- Schedule 4: chained failovers with rejoins (the storm) ------------------

// Two kill/promote/rejoin cycles back to back. The second cycle is what
// the survivor watermark exists for: an op parked under view 1 must be
// judged against the *minimum* recovered prefix of every later
// promotion, not just the latest. The storm asserts the client-visible
// consequence — after each cycle every acked id exists exactly once.
TEST(FailoverChaosTest, ChainedFailoversWithRejoinsKeepEveryAckedWrite) {
  TempDir dir;
  auto coordinator = FailoverCoordinator::Start(ChaosOptions(dir));
  ASSERT_TRUE(coordinator.ok()) << coordinator.status();
  FailoverCoordinator& coord = **coordinator;
  ClusterClient client(&coord, ChaosRetryPolicy());

  AdeptCluster& founding = *coord.View().cluster;
  ASSERT_TRUE(founding.DeployProcessType(SequenceSchema(6)).ok());
  // The org rides the shard streams from the first checkpoint on, so
  // every promoted lineage recovers it instead of repopulating it.
  const std::vector<UserId> clerks = AddClerks(founding, 2);
  ASSERT_TRUE(founding.DeployProcessType(ClaimedSchema(founding.org())).ok());
  ASSERT_TRUE(founding.SaveSnapshot().ok());
  const size_t org_users = founding.org().user_count();
  std::vector<InstanceId> acked;
  std::vector<AckedClaim> claims;
  uint64_t last_epoch = coord.View().epoch;

  for (int cycle = 0; cycle < 2; ++cycle) {
    for (int i = 0; i < 3; ++i) {
      auto id = client.Create("seq");
      ASSERT_TRUE(id.ok()) << "cycle " << cycle << ": " << id.status();
      acked.push_back(*id);
    }
    for (const AckedClaim& claim :
         ClaimSome(*coord.View().cluster, client, clerks, 2, &acked)) {
      claims.push_back(claim);
    }
    const uint64_t version = coord.View().version;
    ASSERT_TRUE(coord.KillPrimary().ok());
    auto promoted = coord.WaitForFailover(version, 20000);
    ASSERT_TRUE(promoted.ok()) << promoted.status();
    EXPECT_GT(promoted->epoch, last_epoch);
    last_epoch = promoted->epoch;

    // Writes resume against the new lineage before the old one rejoins.
    auto mid = client.Create("seq");
    ASSERT_TRUE(mid.ok()) << "cycle " << cycle << ": " << mid.status();
    acked.push_back(*mid);

    ASSERT_TRUE(coord.RejoinOldPrimaryAsReplica().ok());
    ExpectExactlyTheAckedInstances(*coord.View().cluster, acked);
    EXPECT_EQ(coord.View().cluster->org().user_count(), org_users)
        << "cycle " << cycle;
    ExpectClaimsSurvive(*coord.View().cluster, claims);
  }

  EXPECT_EQ(coord.promotions(), 2u);
  EXPECT_EQ(coord.replica_count(), 5);  // 3 founding + 2 rejoined lineages

  // Watermark sanity across the chain: what survived past view 1 can
  // never exceed what survived past view 2.
  for (size_t k = 0; k < 2; ++k) {
    EXPECT_LE(coord.SurvivorWatermark(1, k), coord.SurvivorWatermark(2, k));
  }
}

// --- Schedule 5: a standby dies mid-promotion --------------------------------

// The promotion hook kills a non-target standby right after the target
// was selected. The protocol must finish with the survivors: the view
// advances, the dead node stays down (no zombie restart), and the commit
// quorum is met by the new primary plus the remaining standby.
TEST(FailoverChaosTest, StandbyDeathDuringPromotionDoesNotBlockIt) {
  TempDir dir;
  auto coordinator = FailoverCoordinator::Start(ChaosOptions(
      dir, /*auto_promote=*/false));
  ASSERT_TRUE(coordinator.ok()) << coordinator.status();
  FailoverCoordinator& coord = **coordinator;
  ClusterClient client(&coord, ChaosRetryPolicy());

  ASSERT_TRUE(coord.View().cluster->DeployProcessType(SequenceSchema(6)).ok());
  std::vector<InstanceId> acked;
  for (int i = 0; i < 4; ++i) {
    auto id = client.Create("seq");
    ASSERT_TRUE(id.ok()) << id.status();
    acked.push_back(*id);
  }

  // All standbys converged equally, so the selection tie-break picks
  // node 0 — killing node 2 at "selected" never kills the target.
  coord.SetPromotionHook([&](const std::string& stage) {
    if (stage == "selected" && coord.ReplicaRunning(2)) {
      EXPECT_TRUE(coord.KillReplica(2).ok());
    }
  });

  ASSERT_TRUE(coord.KillPrimary().ok());
  auto promoted = coord.Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status();
  EXPECT_EQ(coord.promotions(), 1u);
  EXPECT_FALSE(coord.ReplicaRunning(2));

  // Quorum 2 = the new primary's disk + the surviving standby.
  auto post = client.Create("seq");
  ASSERT_TRUE(post.ok()) << post.status();
  acked.push_back(*post);
  ExpectExactlyTheAckedInstances(*coord.View().cluster, acked);

  // The killed standby restarts on its old port (it rejoins the peer set
  // at the next attach); meanwhile commits keep flowing on the survivors.
  ASSERT_TRUE(coord.RestartReplica(2).ok());
  auto after_restart = client.Create("seq");
  ASSERT_TRUE(after_restart.ok()) << after_restart.status();
  acked.push_back(*after_restart);
  ExpectExactlyTheAckedInstances(*coord.View().cluster, acked);
}

}  // namespace
}  // namespace adept
