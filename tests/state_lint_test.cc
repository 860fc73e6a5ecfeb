// Golden tests for the runtime-health rules AV011 (stuck-activity),
// AV012 (orphaned-claim), and AV013 (replication-degraded). These assert
// the *exact* report JSON: the rule ids, messages, and fix hints are a
// published interface (suppression baselines key on them), so a silent
// wording or id change must fail here.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cluster/adept_cluster.h"
#include "common/json.h"
#include "core/adept.h"
#include "model/schema_builder.h"
#include "runtime/engine.h"
#include "runtime/instance.h"
#include "storage/wal.h"
#include "tests/test_fixtures.h"
#include "verify/state_lint.h"
#include "worklist/claim_ledger.h"
#include "worklist/worklist_service.h"

namespace adept {
namespace {

using testing_fixtures::OnlineOrderV1;
using testing_fixtures::SequenceSchema;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

NodeId ByName(const ProcessInstance& i, const std::string& name) {
  return i.schema().FindNodeByName(name);
}

Status Execute(ProcessInstance& i, NodeId node) {
  ADEPT_RETURN_IF_ERROR(i.StartActivity(node));
  return i.CompleteActivity(node);
}

// A claim-ledger record in the shape AdeptSystem::RecordClaim logs to its
// WAL: t = claim (user set) or release.
JsonValue ClaimRecord(const std::string& type, uint64_t instance,
                      uint32_t node, uint64_t user) {
  JsonValue v = JsonValue::MakeObject();
  v.Set("t", JsonValue(type));
  v.Set("id", JsonValue(static_cast<int64_t>(instance)));
  v.Set("node", JsonValue(static_cast<int64_t>(node)));
  if (type == "claim") {
    v.Set("user", JsonValue(static_cast<int64_t>(user)));
    v.Set("epoch", JsonValue(static_cast<int64_t>(1)));
  }
  return v;
}

TEST(StateLintTest, CleanSystemProducesEmptyReport) {
  Engine engine;
  auto schema = SequenceSchema(2);
  auto inst = engine.CreateInstance(schema, SchemaId(1));
  ASSERT_TRUE(inst.ok());
  ASSERT_TRUE((*inst)->Start().ok());
  ASSERT_TRUE(Execute(**inst, ByName(**inst, "a1")).ok());

  auto report = LintRuntimeState(engine, ClaimLedger(), StateLintOptions{});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->ToJson().Dump(),
            R"({"errors":0,"findings":[],"ok":true,"warnings":0})");
}

// A Running activity is not "stuck" until the instance demonstrably moved
// on without it: the parallel sibling branch keeps completing activities
// while "confirm order" sits in Running.
TEST(StateLintTest, StuckActivityGoldenReport) {
  Engine engine;
  auto schema = OnlineOrderV1();
  auto inst = engine.CreateInstance(schema, SchemaId(1));
  ASSERT_TRUE(inst.ok());
  ProcessInstance& i = **inst;
  ASSERT_TRUE(i.Start().ok());
  ASSERT_TRUE(Execute(i, ByName(i, "get order")).ok());
  ASSERT_TRUE(Execute(i, ByName(i, "collect data")).ok());

  const NodeId confirm = ByName(i, "confirm order");
  ASSERT_TRUE(i.StartActivity(confirm).ok());
  // Progress elsewhere: the sibling branch finishes (start + complete = 2
  // trace events), leaving a 2-event tail after confirm's start.
  ASSERT_TRUE(Execute(i, ByName(i, "compose order")).ok());
  ASSERT_EQ(i.node_state(confirm), NodeState::kRunning);

  // Below the threshold: clean.
  StateLintOptions options;
  options.stuck_after_events = 3;
  auto quiet = LintRuntimeState(engine, ClaimLedger(), options);
  ASSERT_TRUE(quiet.ok());
  EXPECT_EQ(quiet->warning_count(), 0u);

  // At the threshold: exactly one AV011 warning with the golden shape.
  options.stuck_after_events = 2;
  auto report = LintRuntimeState(engine, ClaimLedger(), options);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->issues().size(), 1u);
  const std::string node_id = std::to_string(confirm.value());
  EXPECT_EQ(
      report->ToJson().Dump(),
      std::string(R"({"errors":0,"findings":[{)") +
          R"("fix_hint":"complete, fail, or retry the activity; if its )" +
          R"(worker died, release the work item so it can be re-offered",)" +
          R"("message":"activity 'confirm order' (n)" + node_id +
          R"() of instance I1 is running with no progress: 2 trace events )" +
          R"(since its last start","node":)" + node_id +
          R"(,"rule":"stuck-activity","rule_id":"AV011",)" +
          R"("severity":"warning","span":[{"id":)" + node_id +
          R"(,"kind":"node"}]}],"ok":true,"warnings":1})");
}

// Three ledger claims, three distinct orphan reasons — plus a released
// and a still-actionable claim that must stay silent. A live system drops
// orphaned claims itself, so
// the shard WAL's claim records are hand-written after its real history.
TEST(StateLintTest, OrphanedClaimGoldenReport) {
  AdeptOptions options;
  options.wal_path = TempPath("adept_state_lint_claims.wal");
  options.snapshot_path = TempPath("adept_state_lint_claims.snapshot");
  NodeId a1, a2;
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    ASSERT_TRUE((*system)->DeployProcessType(SequenceSchema(3)).ok());
    auto id = (*system)->CreateInstance("seq");
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(id->value(), 1u);
    auto schema = (*system)->Schema(SchemaId(1));
    ASSERT_TRUE(schema.ok());
    a1 = (*schema)->FindNodeByName("a1");
    a2 = (*schema)->FindNodeByName("a2");
    ASSERT_TRUE((*system)->StartActivity(*id, a1).ok());
    ASSERT_TRUE((*system)->CompleteActivity(*id, a1).ok());  // a2 Activated
  }
  {
    auto wal = WriteAheadLog::Open(options.wal_path);
    ASSERT_TRUE(wal.ok());
    // Orphaned: a1 already completed out from under u7's claim.
    ASSERT_TRUE((*wal)->Append(ClaimRecord("claim", 1, a1.value(), 7)).ok());
    // Orphaned: instance 9 does not exist.
    ASSERT_TRUE((*wal)->Append(ClaimRecord("claim", 9, a1.value(), 7)).ok());
    // Orphaned: node 999 is not in the schema.
    ASSERT_TRUE((*wal)->Append(ClaimRecord("claim", 1, 999, 5)).ok());
    // Released before the lint ran, then claimed again by u8, who can
    // still start the Activated a2: silent.
    ASSERT_TRUE((*wal)->Append(ClaimRecord("claim", 1, a2.value(), 6)).ok());
    ASSERT_TRUE((*wal)->Append(ClaimRecord("release", 1, a2.value(), 6)).ok());
    ASSERT_TRUE((*wal)->Append(ClaimRecord("claim", 1, a2.value(), 8)).ok());
    ASSERT_TRUE((*wal)->Sync(SyncMode::kFlush).ok());
  }

  auto system = AdeptSystem::Recover(options);
  ASSERT_TRUE(system.ok()) << system.status();
  auto report = LintRuntimeState((*system)->engine(), (*system)->claims(),
                                 StateLintOptions{});
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->issues().size(), 3u);
  for (const VerificationIssue& issue : report->issues()) {
    EXPECT_EQ(std::string(VerifyRuleId(issue.rule)), "AV012");
    EXPECT_EQ(issue.severity, VerifySeverity::kWarning);
  }
  // Deterministic order: by (instance, node) key. Golden messages:
  const auto& issues = report->issues();
  EXPECT_EQ(issues[0].message,
            "worklist claim by u7 on activity 'a1' (n" +
                std::to_string(a1.value()) +
                ") of instance I1 is orphaned: the node's state is "
                "Completed");
  EXPECT_EQ(issues[1].message,
            "worklist claim by u5 on a node (n999) of instance I1 is "
            "orphaned: the node no longer exists in the instance's schema");
  EXPECT_EQ(issues[2].message,
            "worklist claim by u7 on a node (n" + std::to_string(a1.value()) +
                ") of instance I9 is orphaned: the instance no longer "
                "exists");
  EXPECT_EQ(issues[0].fix_hint,
            "checkpoint: SaveSnapshot keeps only the claims of live "
            "activities");

  // The fix hint holds: after a checkpoint the rule has nothing to say,
  // and the actionable claim is still there.
  ASSERT_TRUE((*system)->SaveSnapshot().ok());
  EXPECT_EQ((*system)->claims().size(), 1u);
  auto clean = LintRuntimeState((*system)->engine(), (*system)->claims(),
                                StateLintOptions{});
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(clean->issues().size(), 0u);
  system->reset();
  std::filesystem::remove(options.wal_path);
  std::filesystem::remove(options.snapshot_path);
}

// AV012 on a cluster: each shard is linted through its own files (what
// adept_lint --state <wal>.shard<k> does) and sees exactly the claims on
// its own instances, all of them live.
TEST(StateLintTest, ClusterShardsLintTheirOwnClaimsClean) {
  ClusterOptions options;
  options.shards = 2;
  options.wal_path = TempPath("adept_state_lint_cluster.wal");
  options.snapshot_path = TempPath("adept_state_lint_cluster.snapshot");
  {
    auto cluster = AdeptCluster::Create(options);
    ASSERT_TRUE(cluster.ok());
    OrgModel& org = (*cluster)->org();
    RoleId clerk = *org.AddRole("clerk");
    UserId alice = *org.AddUser("alice");
    ASSERT_TRUE(org.AssignRole(alice, clerk).ok());
    SchemaBuilder b("claimed", 1);
    b.Activity("prepare", {.role = clerk});
    b.Activity("ship", {.role = clerk});
    auto schema = b.Build();
    ASSERT_TRUE(schema.ok());
    ASSERT_TRUE((*cluster)->DeployProcessType(*schema).ok());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE((*cluster)->CreateInstance("claimed").ok());
    }
    WorklistService& worklist = (*cluster)->Worklist();
    std::vector<WorkItem> offers = worklist.OffersFor(alice);
    ASSERT_EQ(offers.size(), 6u);
    for (const WorkItem& offer : offers) {
      ASSERT_TRUE(worklist.Claim(offer.id, alice).ok());
    }
    // Half the claims are checkpointed, the other half ride the WAL tail.
    ASSERT_TRUE(worklist.Start(offers[0].id, alice).ok());
    ASSERT_TRUE((*cluster)->SaveSnapshot().ok());
    ASSERT_TRUE(worklist.Start(offers[1].id, alice).ok());
  }
  for (size_t k = 0; k < 2; ++k) {
    AdeptOptions shard;
    shard.wal_path = ShardRouting::PathFor(options.wal_path, k);
    shard.snapshot_path = ShardRouting::PathFor(options.snapshot_path, k);
    auto system = AdeptSystem::Recover(shard);
    ASSERT_TRUE(system.ok()) << system.status();
    EXPECT_EQ((*system)->claims().size(), 3u) << "shard " << k;
    auto report = LintRuntimeState((*system)->engine(), (*system)->claims(),
                                   StateLintOptions{});
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->issues().size(), 0u) << "shard " << k << ": "
                                           << report->ToJson().Dump();
    system->reset();
    std::filesystem::remove(shard.wal_path);
    std::filesystem::remove(shard.snapshot_path);
  }
}

// --- AV013 replication-degraded ---------------------------------------------

// Builds the shape AdeptCluster::ReplicationStatus().ToJson() emits.
JsonValue PeerJson(const std::string& endpoint, const std::string& health,
                   uint64_t acked, int64_t silence_ms) {
  JsonValue p = JsonValue::MakeObject();
  p.Set("endpoint", JsonValue(endpoint));
  p.Set("streaming", JsonValue(health == "alive"));
  p.Set("health", JsonValue(health));
  p.Set("acked_lsn", JsonValue(acked));
  p.Set("silence_ms", JsonValue(silence_ms));
  return p;
}

JsonValue ShardStatusJson(uint64_t shard, bool fenced, bool quorum_live,
                          std::vector<JsonValue> peers) {
  JsonValue peer_list = JsonValue::MakeArray();
  for (JsonValue& p : peers) peer_list.Append(std::move(p));
  JsonValue s = JsonValue::MakeObject();
  s.Set("shard", JsonValue(shard));
  s.Set("epoch", JsonValue(uint64_t{2}));
  s.Set("local_durable", JsonValue(uint64_t{10}));
  s.Set("quorum_acked", JsonValue(uint64_t{10}));
  s.Set("quorum", JsonValue(int64_t{2}));
  s.Set("fenced", JsonValue(fenced));
  s.Set("quorum_live", JsonValue(quorum_live));
  s.Set("tail_evictions", JsonValue(uint64_t{0}));
  s.Set("tail_frames", JsonValue(int64_t{0}));
  s.Set("tail_bytes", JsonValue(int64_t{0}));
  s.Set("peers", std::move(peer_list));
  return s;
}

JsonValue ReplStatusJson(bool attached, std::vector<JsonValue> shards) {
  JsonValue shard_list = JsonValue::MakeArray();
  for (JsonValue& s : shards) shard_list.Append(std::move(s));
  JsonValue j = JsonValue::MakeObject();
  j.Set("attached", JsonValue(attached));
  j.Set("epoch", JsonValue(uint64_t{2}));
  j.Set("degraded", JsonValue(true));
  j.Set("shards", std::move(shard_list));
  return j;
}

// A fenced shard is an error, a below-quorum shard a warning naming every
// non-alive peer; a healthy shard and a detached dump stay silent.
TEST(StateLintTest, ReplicationDegradedGoldenReport) {
  VerificationReport report;
  LintReplicationStatus(
      ReplStatusJson(
          true,
          {ShardStatusJson(0, /*fenced=*/true, /*quorum_live=*/false,
                           {PeerJson("127.0.0.1:7001", "alive", 10, 40)}),
           ShardStatusJson(1, /*fenced=*/false, /*quorum_live=*/false,
                           {PeerJson("127.0.0.1:7001", "dead", 4, 4500),
                            PeerJson("127.0.0.1:7002", "dead", 6, 5000)}),
           ShardStatusJson(2, /*fenced=*/false, /*quorum_live=*/true,
                           {PeerJson("127.0.0.1:7001", "alive", 10, 40)})}),
      &report);
  EXPECT_EQ(
      report.ToJson().Dump(),
      std::string(R"({"errors":1,"findings":[{)") +
          R"("fix_hint":"stop routing writes to this node; rejoin its )" +
          R"(file set as a replica of the promoted primary (the stale )" +
          R"x(suffix is snapshot-reset away)",)x" +
          R"("message":"shard 0's primary is fenced by a newer epoch )" +
          R"((own epoch 2): this lineage was deposed and rejects every )" +
          R"(write","rule":"replication-degraded","rule_id":"AV013",)" +
          R"("severity":"error","span":[]},{)" +
          R"("fix_hint":"restore connectivity to (or restart) the dead )" +
          R"(replicas, or let the failover coordinator promote a standby )" +
          R"(quorum",)" +
          R"("message":"shard 1 is below its live quorum (1 of 2 )" +
          R"(required copies live): writes fail fast, reads serve )" +
          R"(degraded (127.0.0.1:7001 dead for 4500ms, 127.0.0.1:7002 )" +
          R"x(dead for 5000ms)","rule":"replication-degraded",)x" +
          R"("rule_id":"AV013","severity":"warning","span":[]}],)" +
          R"("ok":false,"warnings":1})");

  // Replication never attached: nothing to say, whatever the shards hold.
  VerificationReport detached;
  LintReplicationStatus(
      ReplStatusJson(false, {ShardStatusJson(0, true, false, {})}),
      &detached);
  EXPECT_EQ(detached.ToJson().Dump(),
            R"({"errors":0,"findings":[],"ok":true,"warnings":0})");
}

// The file-fed path adept_lint --repl-status uses: the dump is read,
// parsed, and folded into the runtime report next to AV011/AV012.
TEST(StateLintTest, ReplicationStatusFileFoldsIntoRuntimeReport) {
  Engine engine;
  const std::string path = TempPath("adept_state_lint_repl_status.json");
  {
    std::ofstream out(path);
    out << ReplStatusJson(
               true, {ShardStatusJson(3, /*fenced=*/false,
                                      /*quorum_live=*/false,
                                      {PeerJson("127.0.0.1:9000", "suspect",
                                                8, 1500)})})
               .Dump();
  }
  StateLintOptions options;
  options.repl_status_path = path;
  auto report = LintRuntimeState(engine, ClaimLedger(), options);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->issues().size(), 1u);
  EXPECT_EQ(std::string(VerifyRuleId(report->issues()[0].rule)), "AV013");
  EXPECT_EQ(report->issues()[0].severity, VerifySeverity::kWarning);
  // A suspect peer still counts toward the live copies, but is named.
  EXPECT_EQ(report->issues()[0].message,
            "shard 3 is below its live quorum (2 of 2 required copies "
            "live): writes fail fast, reads serve degraded "
            "(127.0.0.1:9000 suspect for 1500ms)");
  std::filesystem::remove(path);

  // A named-but-missing dump is an error: the flag promises a file the
  // caller just wrote.
  auto missing = LintRuntimeState(engine, ClaimLedger(), options);
  EXPECT_FALSE(missing.ok());
}

}  // namespace
}  // namespace adept
