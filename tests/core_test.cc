#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "change/change_op.h"
#include "core/adept.h"
#include "model/serialization.h"
#include "monitor/monitor.h"
#include "storage/wal.h"
#include "tests/test_fixtures.h"

namespace adept {
namespace {

using testing_fixtures::OnlineOrderV1;
using testing_fixtures::SequenceSchema;

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("adept_core_test_" + std::to_string(counter_++));
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

AdeptOptions DurableOptions(const TempDir& dir) {
  AdeptOptions options;
  options.wal_path = dir.File("adept.wal");
  options.snapshot_path = dir.File("adept.snapshot");
  return options;
}

// Fig. 1's Delta-T against the deployed V1 schema.
Delta MakeTypeChange(const ProcessSchema& v1) {
  NodeId compose = v1.FindNodeByName("compose order");
  NodeId confirm = v1.FindNodeByName("confirm order");
  NodeId join = v1.FindNodeByName("and_join");
  Delta probe;
  NewActivitySpec spec;
  spec.name = "send questions";
  auto* op = probe.Add(std::make_unique<SerialInsertOp>(spec, compose, join));
  EXPECT_TRUE(probe.ApplyToSchema(v1).ok());
  Delta delta;
  delta.Add(op->Clone());
  delta.Add(std::make_unique<InsertSyncEdgeOp>(
      static_cast<SerialInsertOp*>(op)->inserted_node(), confirm));
  return delta;
}

TEST(AdeptSystemTest, EndToEndLifecycle) {
  auto system = AdeptSystem::Create();
  ASSERT_TRUE(system.ok());
  AdeptSystem& adept = **system;

  auto v1_id = adept.DeployProcessType(OnlineOrderV1());
  ASSERT_TRUE(v1_id.ok()) << v1_id.status();
  EXPECT_EQ(*adept.LatestVersion("online_order"), *v1_id);

  auto instance = adept.CreateInstance("online_order");
  ASSERT_TRUE(instance.ok());
  auto created = adept.SnapshotOf(*instance);
  ASSERT_NE(created, nullptr);
  EXPECT_FALSE(created->finished);

  SimulationDriver driver({.seed = 3});
  ASSERT_TRUE(adept.DriveToCompletion(*instance, driver).ok());
  EXPECT_TRUE(adept.SnapshotOf(*instance)->finished);
}

// Regression for the warning-discarding bug: Deploy used to run the
// verifier through VerifySchemaOrError, which throws away kNaming /
// kLostUpdate / kDataRace warnings. The full report must be retrievable
// for type versions and for biased instances.
TEST(AdeptSystemTest, VerificationWarningsAreRetained) {
  auto system = AdeptSystem::Create();
  ASSERT_TRUE(system.ok());
  AdeptSystem& adept = **system;

  // A correct-but-warned schema: duplicate activity names.
  SchemaBuilder b("warned", 1);
  b.Activity("step");
  b.Activity("step");
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  auto v1_id = adept.DeployProcessType(*schema);
  ASSERT_TRUE(v1_id.ok()) << v1_id.status();

  auto report = adept.SchemaReport(*v1_id);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE((*report)->ok());
  ASSERT_EQ((*report)->warning_count(), 1u);
  EXPECT_EQ((*report)->issues()[0].rule, VerifyRule::kNaming);

  // Evolving keeps the (still present) warning in the new version's report.
  Delta delta;
  NewActivitySpec spec;
  spec.name = "extra";
  NodeId first = (*schema)->FindNodeByName("step");
  auto succs = (*schema)->Successors(first, EdgeType::kControl);
  ASSERT_FALSE(succs.empty());
  delta.Add(std::make_unique<SerialInsertOp>(spec, first, succs[0]));
  auto v2_id = adept.EvolveProcessType(*v1_id, std::move(delta));
  ASSERT_TRUE(v2_id.ok()) << v2_id.status();
  auto v2_report = adept.SchemaReport(*v2_id);
  ASSERT_TRUE(v2_report.ok());
  EXPECT_EQ((*v2_report)->warning_count(), 1u);

  // An ad-hoc change that introduces a race: warnings must be retrievable
  // on the biased instance (previously silently dropped).
  auto inst = adept.CreateInstanceOn(*v1_id);
  ASSERT_TRUE(inst.ok());
  EXPECT_FALSE(adept.InstanceReport(*inst).ok());  // unbiased: no report

  Delta bias;
  NewActivitySpec extra;
  extra.name = "biased step";
  auto succs2 = (*schema)->Successors(first, EdgeType::kControl);
  bias.Add(std::make_unique<SerialInsertOp>(extra, first, succs2[0]));
  ASSERT_TRUE(adept.ApplyAdHocChange(*inst, std::move(bias)).ok());
  auto inst_report = adept.InstanceReport(*inst);
  ASSERT_TRUE(inst_report.ok());
  EXPECT_TRUE((*inst_report)->ok());
  EXPECT_EQ((*inst_report)->warning_count(), 1u);  // duplicate names persist
}

// A warning is logged once, when it appears: an ad-hoc change logs only
// the warnings it introduced, not the ones its instance's schema already
// had, and neither replay nor its replayed deploy logs any.
TEST(AdeptSystemTest, AdHocChangeLogsOnlyTheWarningsItIntroduced) {
  TempDir dir;
  const AdeptOptions options = DurableOptions(dir);
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    AdeptSystem& adept = **system;
    // The XOR split has no decision element: an AV006 warning of the type.
    SchemaBuilder b("warned_xor", 1);
    b.Activity("first");
    b.Conditional(DataId::Invalid(),
                  {[](SchemaBuilder& s) { s.Activity("left"); },
                   [](SchemaBuilder& s) { s.Activity("right"); }});
    b.Activity("last");
    auto schema = b.Build();
    ASSERT_TRUE(schema.ok());
    ASSERT_TRUE(adept.DeployProcessType(*schema).ok());
    auto report = adept.SchemaReport(*adept.LatestVersion("warned_xor"));
    ASSERT_TRUE(report.ok());
    ASSERT_EQ((*report)->warning_count(), 1u);
    EXPECT_EQ((*report)->issues()[0].rule, VerifyRule::kDecision);
    auto id = adept.CreateInstance("warned_xor");
    ASSERT_TRUE(id.ok());

    // Each change inserts `name` right before "last"; the stderr it wrote.
    auto insert = [&](const std::string& name) {
      const SchemaView& view = *adept.SnapshotOf(*id)->schema;
      const NodeId last = view.FindNodeByName("last");
      NodeId pred;
      view.VisitInEdges(last, [&](const Edge& edge) {
        if (edge.type == EdgeType::kControl) pred = edge.src;
      });
      Delta delta;
      NewActivitySpec spec;
      spec.name = name;
      delta.Add(std::make_unique<SerialInsertOp>(spec, pred, last));
      testing::internal::CaptureStderr();
      Status st = adept.ApplyAdHocChange(*id, std::move(delta));
      std::string logged = testing::internal::GetCapturedStderr();
      EXPECT_TRUE(st.ok()) << st;
      return logged;
    };
    EXPECT_EQ(insert("audit"), "");
    EXPECT_EQ(insert("review"), "");
    // A duplicate activity name is the change's own warning: one line.
    const std::string duplicate = insert("first");
    EXPECT_EQ(std::count(duplicate.begin(), duplicate.end(), '\n'), 1)
        << duplicate;
    EXPECT_NE(duplicate.find("[AV010]"), std::string::npos) << duplicate;
    // The next change finds it already there.
    EXPECT_EQ(insert("sign"), "");
  }
  testing::internal::CaptureStderr();
  auto recovered = AdeptSystem::Recover(options);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  ASSERT_TRUE(recovered.ok()) << recovered.status();
}

TEST(AdeptSystemTest, UnknownEntitiesRejected) {
  auto system = AdeptSystem::Create();
  ASSERT_TRUE(system.ok());
  AdeptSystem& adept = **system;
  EXPECT_FALSE(adept.CreateInstance("no such type").ok());
  EXPECT_FALSE(adept.StartActivity(InstanceId(99), NodeId(0)).ok());
  EXPECT_FALSE(adept.LatestVersion("nope").ok());
  EXPECT_EQ(adept.SnapshotOf(InstanceId(1)), nullptr);
}

TEST(AdeptSystemTest, EvolveAndMigrateThroughFacade) {
  auto system = AdeptSystem::Create();
  ASSERT_TRUE(system.ok());
  AdeptSystem& adept = **system;

  auto v1 = OnlineOrderV1();
  auto v1_id = adept.DeployProcessType(v1);
  ASSERT_TRUE(v1_id.ok());

  auto i1 = adept.CreateInstance("online_order");
  ASSERT_TRUE(i1.ok());
  NodeId get_order = v1->FindNodeByName("get order");
  ASSERT_TRUE(adept.StartActivity(*i1, get_order).ok());
  ASSERT_TRUE(adept.CompleteActivity(*i1, get_order).ok());

  auto v2_id = adept.EvolveProcessType(*v1_id, MakeTypeChange(*v1));
  ASSERT_TRUE(v2_id.ok()) << v2_id.status();

  auto report = adept.Migrate(*v1_id, *v2_id);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->MigratedTotal(), 1u);
  EXPECT_EQ(adept.SnapshotOf(*i1)->schema->version(), 2);

  std::string rendered = RenderMigrationReport(*report);
  EXPECT_NE(rendered.find("1/1 migrated"), std::string::npos);
}

TEST(AdeptSystemTest, MigrateToLatestCrossesVersions) {
  auto system = AdeptSystem::Create();
  ASSERT_TRUE(system.ok());
  AdeptSystem& adept = **system;

  auto v1 = SequenceSchema(4, "chain");
  auto v1_id = adept.DeployProcessType(v1);
  ASSERT_TRUE(v1_id.ok());
  auto inst = adept.CreateInstance("chain");
  ASSERT_TRUE(inst.ok());

  // V2: insert after a2; V3: insert after a3.
  Delta d2;
  NewActivitySpec s2;
  s2.name = "b1";
  d2.Add(std::make_unique<SerialInsertOp>(s2, v1->FindNodeByName("a2"),
                                          v1->FindNodeByName("a3")));
  auto v2_id = adept.EvolveProcessType(*v1_id, std::move(d2));
  ASSERT_TRUE(v2_id.ok());
  Delta d3;
  NewActivitySpec s3;
  s3.name = "b2";
  d3.Add(std::make_unique<SerialInsertOp>(s3, v1->FindNodeByName("a3"),
                                          v1->FindNodeByName("a4")));
  auto v3_id = adept.EvolveProcessType(*v2_id, std::move(d3));
  ASSERT_TRUE(v3_id.ok());

  auto report = adept.MigrateToLatest("chain");
  ASSERT_TRUE(report.ok()) << report.status();
  auto snapshot = adept.SnapshotOf(*inst);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->schema->version(), 3);
  EXPECT_TRUE(snapshot->schema->FindNodeByName("b1").valid());
  EXPECT_TRUE(snapshot->schema->FindNodeByName("b2").valid());
}

TEST(AdeptSystemTest, WorklistIntegration) {
  auto system = AdeptSystem::Create();
  ASSERT_TRUE(system.ok());
  AdeptSystem& adept = **system;

  auto clerk = adept.org().AddRole("clerk");
  ASSERT_TRUE(clerk.ok());
  auto alice = adept.org().AddUser("alice");
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(adept.org().AssignRole(*alice, *clerk).ok());

  SchemaBuilder b("office", 1);
  b.Activity("file papers", {.role = *clerk});
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(adept.DeployProcessType(*schema).ok());
  auto inst = adept.CreateInstance("office");
  ASSERT_TRUE(inst.ok());

  auto offers = adept.worklists().OffersFor(*alice);
  ASSERT_EQ(offers.size(), 1u);
  ASSERT_TRUE(adept.worklists().Claim(offers[0].id, *alice).ok());
  ASSERT_TRUE(adept.StartActivity(*inst, offers[0].node).ok());
  ASSERT_TRUE(adept.CompleteActivity(*inst, offers[0].node).ok());
  EXPECT_TRUE(adept.SnapshotOf(*inst)->finished);
}

// A recovered standalone system builds its worklist on first use from the
// replayed instances, and serves a full claim/start/complete cycle.
TEST(AdeptSystemTest, RecoveredSystemBuildsWorklistOnFirstUse) {
  TempDir dir;
  AdeptOptions options = DurableOptions(dir);
  // The org model is not durable here: populate it identically (stable
  // ids) before and after recovery.
  auto populate = [](OrgModel& org) {
    RoleId clerk = *org.AddRole("clerk");
    UserId alice = *org.AddUser("alice");
    EXPECT_TRUE(org.AssignRole(alice, clerk).ok());
    return std::make_pair(clerk, alice);
  };
  InstanceId id;
  NodeId file, sign;
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    AdeptSystem& adept = **system;
    RoleId clerk = populate(adept.org()).first;
    SchemaBuilder b("office", 1);
    file = b.Activity("file papers", {.role = clerk});
    sign = b.Activity("sign papers", {.role = clerk});
    auto schema = b.Build();
    ASSERT_TRUE(schema.ok());
    ASSERT_TRUE(adept.DeployProcessType(*schema).ok());
    id = *adept.CreateInstance("office");
    ASSERT_TRUE(adept.StartActivity(id, file).ok());
    ASSERT_TRUE(adept.CompleteActivity(id, file).ok());
  }

  auto recovered = AdeptSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  AdeptSystem& adept = **recovered;
  UserId alice = populate(adept.org()).second;
  WorklistService& worklists = adept.worklists();
  auto offers = worklists.OffersFor(alice);
  ASSERT_EQ(offers.size(), 1u);
  EXPECT_EQ(offers[0].instance, id);
  EXPECT_EQ(offers[0].node, sign);
  ASSERT_TRUE(worklists.Claim(offers[0].id, alice).ok());
  ASSERT_TRUE(worklists.Start(offers[0].id, alice).ok());
  ASSERT_TRUE(worklists.Complete(offers[0].id, alice).ok());
  EXPECT_TRUE(adept.SnapshotOf(id)->finished);
  EXPECT_TRUE(worklists.OffersFor(alice).empty());
  EXPECT_EQ(worklists.Stats().completed_total, 1u);
}

TEST(AdeptSystemTest, WalRecoveryRestoresFullState) {
  TempDir dir;
  AdeptOptions options = DurableOptions(dir);

  InstanceId running_id, biased_id;
  std::string running_render, biased_render;
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    AdeptSystem& adept = **system;
    auto v1 = OnlineOrderV1();
    auto v1_id = adept.DeployProcessType(v1);
    ASSERT_TRUE(v1_id.ok());

    auto i1 = adept.CreateInstance("online_order");
    ASSERT_TRUE(i1.ok());
    running_id = *i1;
    NodeId get_order = v1->FindNodeByName("get order");
    ASSERT_TRUE(adept.StartActivity(running_id, get_order).ok());
    ASSERT_TRUE(adept.CompleteActivity(running_id, get_order).ok());

    auto i2 = adept.CreateInstance("online_order");
    ASSERT_TRUE(i2.ok());
    biased_id = *i2;
    Delta bias;
    NewActivitySpec spec;
    spec.name = "verify address";
    bias.Add(std::make_unique<SerialInsertOp>(
        spec, v1->FindNodeByName("get order"),
        v1->FindNodeByName("collect data")));
    ASSERT_TRUE(adept.ApplyAdHocChange(biased_id, std::move(bias)).ok());

    running_render = RenderInstance(*adept.SnapshotOf(running_id));
    biased_render = RenderInstance(*adept.SnapshotOf(biased_id));
  }  // system destroyed ("crash")

  auto recovered = AdeptSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  AdeptSystem& adept = **recovered;

  auto running = adept.SnapshotOf(running_id);
  ASSERT_NE(running, nullptr);
  EXPECT_EQ(RenderInstance(*running), running_render);

  auto biased = adept.SnapshotOf(biased_id);
  ASSERT_NE(biased, nullptr);
  EXPECT_TRUE(biased->biased);
  EXPECT_EQ(RenderInstance(*biased), biased_render);
  EXPECT_TRUE(biased->schema->FindNodeByName("verify address").valid());

  // The recovered system keeps working (and logging).
  SimulationDriver driver({.seed = 4});
  ASSERT_TRUE(adept.DriveToCompletion(running_id, driver).ok());
  ASSERT_TRUE(adept.DriveToCompletion(biased_id, driver).ok());
}

// Regression for the ROADMAP item "recovery scans+parses the WAL twice":
// Recover() performs exactly one parse pass (the replay scan seeds the
// reopened writer via OpenScanned).
TEST(AdeptSystemTest, RecoverParsesWalExactlyOnce) {
  TempDir dir;
  AdeptOptions options = DurableOptions(dir);
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    AdeptSystem& adept = **system;
    auto v1 = OnlineOrderV1();
    ASSERT_TRUE(adept.DeployProcessType(v1).ok());
    auto id = adept.CreateInstance("online_order");
    ASSERT_TRUE(id.ok());
    NodeId get_order = v1->FindNodeByName("get order");
    ASSERT_TRUE(adept.StartActivity(*id, get_order).ok());
    ASSERT_TRUE(adept.CompleteActivity(*id, get_order).ok());
  }

  const uint64_t scans_before = WriteAheadLog::scan_count();
  auto recovered = AdeptSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(WriteAheadLog::scan_count() - scans_before, 1u);

  // The single-scan recovery is complete: state replayed, log appendable.
  ASSERT_NE((*recovered)->SnapshotOf(InstanceId(1)), nullptr);
  SimulationDriver driver({.seed = 11});
  ASSERT_TRUE((*recovered)->DriveToCompletion(InstanceId(1), driver).ok());
}

TEST(AdeptSystemTest, WalRecoveryReplaysMigration) {
  TempDir dir;
  AdeptOptions options = DurableOptions(dir);
  InstanceId inst_id;
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    AdeptSystem& adept = **system;
    auto v1 = OnlineOrderV1();
    auto v1_id = adept.DeployProcessType(v1);
    ASSERT_TRUE(v1_id.ok());
    auto inst = adept.CreateInstance("online_order");
    ASSERT_TRUE(inst.ok());
    inst_id = *inst;
    auto v2_id = adept.EvolveProcessType(*v1_id, MakeTypeChange(*v1));
    ASSERT_TRUE(v2_id.ok());
    auto report = adept.Migrate(*v1_id, *v2_id);
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->MigratedTotal(), 1u);
  }
  auto recovered = AdeptSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ((*recovered)->SnapshotOf(inst_id)->schema->version(), 2);
}

// "audit" between "get order" and "collect data" of `schema`; as a type
// change, as an ad-hoc bias equivalent to it, or (with `gift_wrap`) as a
// bias that subsumes it.
Delta InsertAudit(const ProcessSchema& schema, bool gift_wrap = false) {
  Delta delta;
  NewActivitySpec spec;
  spec.name = "audit";
  delta.Add(std::make_unique<SerialInsertOp>(
      spec, schema.FindNodeByName("get order"),
      schema.FindNodeByName("collect data")));
  if (gift_wrap) {
    NewActivitySpec wrap;
    wrap.name = "gift wrap";
    delta.Add(std::make_unique<SerialInsertOp>(
        wrap, schema.FindNodeByName("pack goods"),
        schema.FindNodeByName("deliver goods")));
  }
  return delta;
}

Delta DeleteAudit(const ProcessSchema& schema) {
  Delta delta;
  delta.Add(
      std::make_unique<DeleteActivityOp>(schema.FindNodeByName("audit")));
  return delta;
}

std::map<InstanceId, std::string> ExportAll(
    const AdeptSystem& adept, const std::vector<InstanceId>& ids) {
  std::map<InstanceId, std::string> out;
  for (InstanceId id : ids) {
    auto exported = adept.ExportInstance(id);
    out[id] = exported.ok() ? exported->Dump() : exported.status().ToString();
  }
  return out;
}

// A mixed population (unbiased, disjoint-, conflicting-, equivalent- and
// overlapping-biased, finished, progressed) through several MigrateToLatest
// rounds, under every storage strategy. Migration republishes exactly the
// instances it changed, installs the probe's verified bias, passes the
// replay oracle, and leaves a state that WAL replay and a checkpoint
// (whose cache keys on snapshot versions) both reproduce.
TEST(AdeptSystemTest, MigrateToLatestKeepsPublishedAndDurableStateExact) {
  for (StorageStrategy strategy :
       {StorageStrategy::kOverlay, StorageStrategy::kFullCopy,
        StorageStrategy::kMaterializeOnDemand}) {
    SCOPED_TRACE(StorageStrategyToString(strategy));
    TempDir dir;
    AdeptOptions options = DurableOptions(dir);
    options.default_strategy = strategy;
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    AdeptSystem& adept = **system;
    auto v1 = OnlineOrderV1();
    ASSERT_TRUE(adept.DeployProcessType(v1).ok());

    std::vector<InstanceId> ids;
    SimulationDriver driver({.seed = 17});
    for (int i = 0; i < 42; ++i) {
      auto created = adept.CreateInstance("online_order");
      ASSERT_TRUE(created.ok());
      const InstanceId id = *created;
      ids.push_back(id);
      Delta bias;
      switch (i % 7) {
        case 1: {  // disjoint from every type change below
          NewActivitySpec spec;
          spec.name = "gift wrap";
          bias.Add(std::make_unique<SerialInsertOp>(
              spec, v1->FindNodeByName("pack goods"),
              v1->FindNodeByName("deliver goods")));
          break;
        }
        case 2:  // deadlocks with Fig. 1's Delta-T (round 2)
          bias.Add(std::make_unique<InsertSyncEdgeOp>(
              v1->FindNodeByName("confirm order"),
              v1->FindNodeByName("compose order")));
          break;
        case 3:  // equivalent to round 1: cancelled
          bias = InsertAudit(*v1);
          break;
        case 5:  // subsumes round 1: semantic conflict
          bias = InsertAudit(*v1, /*gift_wrap=*/true);
          break;
        default:
          break;
      }
      if (!bias.empty()) {
        ASSERT_TRUE(adept.ApplyAdHocChange(id, std::move(bias)).ok());
      }
      if (i % 7 == 4) {
        ASSERT_TRUE(adept.DriveToCompletion(id, driver).ok());
      } else {
        for (int step = 0; step < (i / 7) % 5; ++step) {
          ASSERT_TRUE(adept.DriveStep(id, driver).ok());
        }
      }
    }
    // Primes the checkpoint cache with every instance's serialization.
    ASSERT_TRUE(adept.SaveSnapshot().ok());

    MigrationOptions migration;
    migration.verify_adaptation_with_replay = true;
    std::map<MigrationOutcome, int> seen;
    for (int round = 0; round < 4; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      auto latest = adept.LatestVersion("online_order");
      ASSERT_TRUE(latest.ok());
      auto schema = adept.Schema(*latest);
      ASSERT_TRUE(schema.ok());
      Delta change = round == 1   ? MakeTypeChange(**schema)
                     : round == 2 ? DeleteAudit(**schema)
                                  : InsertAudit(**schema);
      ASSERT_TRUE(adept.EvolveProcessType(*latest, std::move(change)).ok());

      std::map<InstanceId, uint64_t> versions;
      for (InstanceId id : ids) versions[id] = adept.SnapshotOf(id)->version;
      auto report = adept.MigrateToLatest("online_order", migration);
      ASSERT_TRUE(report.ok()) << report.status();
      EXPECT_EQ(report->Count(MigrationOutcome::kError), 0u);

      // Only a migrated instance changes (kError is ruled out above).
      std::set<InstanceId> changed;
      for (const auto& result : report->results) {
        ++seen[result.outcome];
        if (result.outcome == MigrationOutcome::kMigrated ||
            result.outcome == MigrationOutcome::kMigratedBiased ||
            result.outcome == MigrationOutcome::kBiasCancelled) {
          changed.insert(result.id);
        }
      }
      for (InstanceId id : ids) {
        auto snapshot = adept.SnapshotOf(id);
        const ProcessInstance* live = adept.engine().Find(id);
        ASSERT_NE(snapshot, nullptr);
        ASSERT_NE(live, nullptr);
        EXPECT_EQ(snapshot->schema_ref, live->schema_ref()) << id;
        EXPECT_EQ(snapshot->marking, live->marking()) << id;
        EXPECT_EQ(snapshot->biased, live->biased()) << id;
        EXPECT_EQ(snapshot->trace_length,
                  static_cast<int64_t>(live->trace().events().size()))
            << id;
        if (changed.count(id) == 0) {
          EXPECT_EQ(snapshot->version, versions[id]) << id;
        } else {
          EXPECT_GT(snapshot->version, versions[id]) << id;
        }
      }

      // A rebased bias is exactly what verifying it again over its new
      // base yields.
      for (const auto& result : report->results) {
        if (result.outcome != MigrationOutcome::kMigratedBiased) continue;
        auto record = adept.store().Get(result.id);
        ASSERT_TRUE(record.ok());
        auto base = adept.Schema((*record)->base_schema);
        ASSERT_TRUE(base.ok());
        auto analysis = adept.repository().AnalysisFor((*record)->base_schema);
        ASSERT_TRUE(analysis.ok());
        Delta again = (*record)->bias.Clone();
        BiasIdAllocator alloc;
        auto verified = again.ApplyVerified(**base, analysis->get(),
                                            (*base)->version(), &alloc);
        ASSERT_TRUE(verified.ok()) << verified.status();
        EXPECT_EQ(again.ToJson().Dump(), (*record)->bias.ToJson().Dump());
        EXPECT_EQ(verified->report.CanonicalString(),
                  (*record)->report.CanonicalString());
        auto view = adept.store().ExecutionSchema(result.id);
        ASSERT_TRUE(view.ok());
        EXPECT_EQ(SchemaToJson(*MaterializeView(**view)).Dump(),
                  SchemaToJson(*MaterializeView(*verified->schema)).Dump())
            << result.id;
      }
    }
    for (MigrationOutcome outcome :
         {MigrationOutcome::kMigrated, MigrationOutcome::kMigratedBiased,
          MigrationOutcome::kBiasCancelled, MigrationOutcome::kStateConflict,
          MigrationOutcome::kStructuralConflict,
          MigrationOutcome::kSemanticConflict,
          MigrationOutcome::kFinishedSkipped}) {
      EXPECT_GT(seen[outcome], 0) << MigrationOutcomeToString(outcome);
    }

    // WAL replay (snapshot + logged migrations) reproduces every instance.
    const std::map<InstanceId, std::string> expected = ExportAll(adept, ids);
    TempDir copy;
    AdeptOptions copy_options = DurableOptions(copy);
    std::filesystem::copy_file(options.wal_path, copy_options.wal_path);
    std::filesystem::copy_file(options.snapshot_path,
                               copy_options.snapshot_path);
    {
      auto replayed = AdeptSystem::Recover(copy_options);
      ASSERT_TRUE(replayed.ok()) << replayed.status();
      EXPECT_EQ(ExportAll(**replayed, ids), expected);
    }
    // So does a checkpoint that reused cached serializations for the
    // instances that stayed behind.
    ASSERT_TRUE(adept.SaveSnapshot().ok());
    system->reset();
    auto recovered = AdeptSystem::Recover(options);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ(ExportAll(**recovered, ids), expected);
  }
}

// MigrateToLatest walks every version pair, but a pair with no instance on
// its source version logs no `migrate` record; the merged report still
// spans the first version to the latest.
TEST(AdeptSystemTest, EmptyMigrationPairLogsNoRecord) {
  TempDir dir;
  AdeptOptions options = DurableOptions(dir);
  std::vector<InstanceId> ids;
  std::map<InstanceId, std::string> expected;
  SchemaId v1_id, v2_id, v3_id;
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    AdeptSystem& adept = **system;
    auto v1 = OnlineOrderV1();
    v1_id = *adept.DeployProcessType(v1);
    for (int i = 0; i < 3; ++i) {
      ids.push_back(*adept.CreateInstance("online_order"));
    }
    v2_id = *adept.EvolveProcessType(v1_id, InsertAudit(*v1));
    auto first = adept.MigrateToLatest("online_order");
    ASSERT_TRUE(first.ok()) << first.status();
    ASSERT_EQ(first->MigratedTotal(), ids.size());

    v3_id =
        *adept.EvolveProcessType(v2_id, DeleteAudit(**adept.Schema(v2_id)));
    auto second = adept.MigrateToLatest("online_order");
    ASSERT_TRUE(second.ok()) << second.status();
    EXPECT_EQ(second->from, v1_id);
    EXPECT_EQ(second->from_version, 1);
    EXPECT_EQ(second->to, v3_id);
    EXPECT_EQ(second->to_version, 3);
    EXPECT_EQ(second->results.size(), ids.size());
    EXPECT_EQ(second->MigratedTotal(), ids.size());
    expected = ExportAll(adept, ids);
  }

  auto records = WriteAheadLog::ReadAll(options.wal_path);
  ASSERT_TRUE(records.ok());
  std::vector<std::pair<SchemaId, SchemaId>> migrations;
  for (const JsonValue& record : *records) {
    if (record.Get("t").as_string() != "migrate") continue;
    migrations.emplace_back(
        SchemaId(static_cast<uint64_t>(record.Get("from").as_int())),
        SchemaId(static_cast<uint64_t>(record.Get("to").as_int())));
  }
  const std::vector<std::pair<SchemaId, SchemaId>> logged = {{v1_id, v2_id},
                                                             {v2_id, v3_id}};
  EXPECT_EQ(migrations, logged);

  auto recovered = AdeptSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(ExportAll(**recovered, ids), expected);
}

TEST(AdeptSystemTest, CrashTruncatedWalRecoversPrefix) {
  TempDir dir;
  AdeptOptions options = DurableOptions(dir);
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    AdeptSystem& adept = **system;
    auto v1 = SequenceSchema(3, "crashy");
    ASSERT_TRUE(adept.DeployProcessType(v1).ok());
    auto inst = adept.CreateInstance("crashy");
    ASSERT_TRUE(inst.ok());
    NodeId a1 = v1->FindNodeByName("a1");
    ASSERT_TRUE(adept.StartActivity(*inst, a1).ok());
    ASSERT_TRUE(adept.CompleteActivity(*inst, a1).ok());
  }
  // Crash injection: chop the tail mid-record.
  auto size = std::filesystem::file_size(options.wal_path);
  std::filesystem::resize_file(options.wal_path, size - 7);

  auto recovered = AdeptSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  auto snapshot = (*recovered)->SnapshotOf(InstanceId(1));
  ASSERT_NE(snapshot, nullptr);
  // The damaged record (a1's completion) is lost; a1 is Running again.
  NodeId a1 = snapshot->schema->FindNodeByName("a1");
  EXPECT_EQ(snapshot->marking.node(a1), NodeState::kRunning);
}

TEST(AdeptSystemTest, SnapshotCheckpointAndTailReplay) {
  TempDir dir;
  AdeptOptions options = DurableOptions(dir);
  InstanceId inst_id;
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    AdeptSystem& adept = **system;
    auto v1 = SequenceSchema(3, "snappy");
    ASSERT_TRUE(adept.DeployProcessType(v1).ok());
    auto inst = adept.CreateInstance("snappy");
    ASSERT_TRUE(inst.ok());
    inst_id = *inst;
    NodeId a1 = v1->FindNodeByName("a1");
    ASSERT_TRUE(adept.StartActivity(inst_id, a1).ok());
    ASSERT_TRUE(adept.CompleteActivity(inst_id, a1).ok());

    // Checkpoint: snapshot + WAL truncation.
    ASSERT_TRUE(adept.SaveSnapshot().ok());
    EXPECT_LT(std::filesystem::file_size(options.wal_path), 10u);

    // Post-snapshot tail.
    NodeId a2 = v1->FindNodeByName("a2");
    ASSERT_TRUE(adept.StartActivity(inst_id, a2).ok());
    ASSERT_TRUE(adept.CompleteActivity(inst_id, a2).ok());
  }
  auto recovered = AdeptSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  auto snapshot = (*recovered)->SnapshotOf(inst_id);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->marking.node(snapshot->schema->FindNodeByName("a1")),
            NodeState::kCompleted);
  EXPECT_EQ(snapshot->marking.node(snapshot->schema->FindNodeByName("a2")),
            NodeState::kCompleted);
  EXPECT_EQ(snapshot->marking.node(snapshot->schema->FindNodeByName("a3")),
            NodeState::kActivated);
}

// Regression for the checkpoint double-apply window: when the WAL
// truncation after a successful snapshot write is lost (crash, I/O error),
// the stale records survive in the log — but they carry LSNs at or below
// the snapshot's recorded coverage, so recovery must skip them instead of
// replaying deploy/create/complete a second time.
TEST(AdeptSystemTest, StaleWalAfterSnapshotIsNotDoubleApplied) {
  TempDir dir;
  AdeptOptions options = DurableOptions(dir);
  InstanceId inst_id;
  std::string pre_snapshot_wal;
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    AdeptSystem& adept = **system;
    auto v1 = SequenceSchema(3, "chk");
    ASSERT_TRUE(adept.DeployProcessType(v1).ok());
    auto inst = adept.CreateInstance("chk");
    ASSERT_TRUE(inst.ok());
    inst_id = *inst;
    NodeId a1 = v1->FindNodeByName("a1");
    ASSERT_TRUE(adept.StartActivity(inst_id, a1).ok());
    ASSERT_TRUE(adept.CompleteActivity(inst_id, a1).ok());

    {
      std::ifstream in(options.wal_path, std::ios::binary);
      std::stringstream buffer;
      buffer << in.rdbuf();
      pre_snapshot_wal = buffer.str();
    }
    ASSERT_FALSE(pre_snapshot_wal.empty());

    ASSERT_TRUE(adept.SaveSnapshot().ok());
  }
  // Crash injection: undo the truncation, as if it never reached the disk.
  {
    std::ofstream out(options.wal_path, std::ios::binary);
    out << pre_snapshot_wal;
  }

  auto recovered = AdeptSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  auto recovered_snapshot = (*recovered)->SnapshotOf(inst_id);
  ASSERT_NE(recovered_snapshot, nullptr);
  // a1 completed exactly once; without LSN skipping the replayed "deploy"
  // record already fails recovery with kAlreadyExists.
  EXPECT_EQ(recovered_snapshot->marking.node(
                recovered_snapshot->schema->FindNodeByName("a1")),
            NodeState::kCompleted);
  EXPECT_EQ((*recovered)->engine().InstanceIds().size(), 1u);
}

// Regression: after a checkpoint truncates the WAL, the file alone no
// longer remembers how far LSN numbering got. A restarted system must
// resume above the snapshot's covered LSN — otherwise the records of the
// restarted run land at LSN 1.. and the *next* recovery skips them as
// "already covered by the snapshot".
TEST(AdeptSystemTest, LsnNumberingSurvivesCheckpointRestart) {
  TempDir dir;
  AdeptOptions options = DurableOptions(dir);
  InstanceId inst_id;
  NodeId a1;
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    auto v1 = SequenceSchema(3, "restart");
    ASSERT_TRUE((*system)->DeployProcessType(v1).ok());
    auto inst = (*system)->CreateInstance("restart");
    ASSERT_TRUE(inst.ok());
    inst_id = *inst;
    a1 = v1->FindNodeByName("a1");
    ASSERT_TRUE((*system)->SaveSnapshot().ok());  // covers LSN 2, truncates
  }
  {
    // Clean restart: these two ops are the entire WAL of this run.
    auto system = AdeptSystem::Recover(options);
    ASSERT_TRUE(system.ok()) << system.status();
    ASSERT_TRUE((*system)->StartActivity(inst_id, a1).ok());
    ASSERT_TRUE((*system)->CompleteActivity(inst_id, a1).ok());
  }
  auto recovered = AdeptSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  auto snapshot = (*recovered)->SnapshotOf(inst_id);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->marking.node(a1), NodeState::kCompleted);
}

TEST(AdeptSystemTest, SnapshotPersistsBiasedInstances) {
  TempDir dir;
  AdeptOptions options = DurableOptions(dir);
  InstanceId inst_id;
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    AdeptSystem& adept = **system;
    auto v1 = OnlineOrderV1();
    ASSERT_TRUE(adept.DeployProcessType(v1).ok());
    auto inst = adept.CreateInstance("online_order");
    ASSERT_TRUE(inst.ok());
    inst_id = *inst;
    Delta bias;
    NewActivitySpec spec;
    spec.name = "extra check";
    bias.Add(std::make_unique<SerialInsertOp>(
        spec, v1->FindNodeByName("pack goods"),
        v1->FindNodeByName("deliver goods")));
    ASSERT_TRUE(adept.ApplyAdHocChange(inst_id, std::move(bias)).ok());
    ASSERT_TRUE(adept.SaveSnapshot().ok());
  }
  auto recovered = AdeptSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  auto recovered_snapshot = (*recovered)->SnapshotOf(inst_id);
  ASSERT_NE(recovered_snapshot, nullptr);
  EXPECT_TRUE(recovered_snapshot->biased);
  EXPECT_TRUE(
      recovered_snapshot->schema->FindNodeByName("extra check").valid());
  EXPECT_TRUE((*recovered)->store().IsBiased(inst_id));
}

// Regression: a decision value that names no branch of its XOR split used
// to complete the split with every branch signalled False and fail the
// completion half-applied — the engine's state ahead of the published
// snapshot and the WAL, and a retry refused. The split now waits in
// Activated, undecided, exactly like one without decision data.
TEST(AdeptSystemTest, UnmatchedXorDecisionLeavesSplitWaiting) {
  TempDir dir;
  AdeptOptions options = DurableOptions(dir);
  auto schema = testing_fixtures::XorSchema();
  NodeId triage = schema->FindNodeByName("triage");
  NodeId split = schema->FindNodeByName("xor_split");
  DataId severity = schema->FindDataByName("severity");
  InstanceId id;
  std::string exported;
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    AdeptSystem& adept = **system;
    ASSERT_TRUE(adept.DeployProcessType(schema).ok());
    auto created = adept.CreateInstance("xor_proc");
    ASSERT_TRUE(created.ok());
    id = *created;
    ASSERT_TRUE(adept.StartActivity(id, triage).ok());
    // The branch codes are 0 and 1.
    Status st = adept.CompleteActivity(id, triage,
                                       {{severity, DataValue::Int(7)}});
    ASSERT_TRUE(st.ok()) << st;

    auto published = adept.SnapshotOf(id);
    ASSERT_NE(published, nullptr);
    EXPECT_EQ(published->marking.node(triage), NodeState::kCompleted);
    EXPECT_EQ(published->marking.node(split), NodeState::kActivated);
    EXPECT_TRUE(published->running_nodes.empty());
    EXPECT_FALSE(published->finished);
    // The live state is exactly what was published.
    const ProcessInstance& live = *adept.MutableInstance(id);
    EXPECT_TRUE(live.marking() == published->marking);
    EXPECT_EQ(RenderInstance(live), RenderInstance(*published));
    EXPECT_TRUE(live.ActivatedActivities().empty());
    auto json = adept.ExportInstance(id);
    ASSERT_TRUE(json.ok());
    exported = json->Dump();
  }  // "crash"

  auto recovered = AdeptSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  AdeptSystem& adept = **recovered;
  auto json = adept.ExportInstance(id);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->Dump(), exported);

  // An explicit decision unblocks the instance.
  ASSERT_TRUE(adept.SelectBranch(id, split, 1).ok());
  auto decided = adept.SnapshotOf(id);
  EXPECT_EQ(decided->marking.node(split), NodeState::kCompleted);
  EXPECT_EQ(decided->marking.node(schema->FindNodeByName("intensive care")),
            NodeState::kActivated);
  EXPECT_EQ(decided->marking.node(schema->FindNodeByName("standard care")),
            NodeState::kSkipped);
  SimulationDriver driver({.seed = 2});
  ASSERT_TRUE(adept.DriveToCompletion(id, driver).ok());
  EXPECT_TRUE(adept.SnapshotOf(id)->finished);
}

TEST(AdeptSystemTest, RecoveredSystemIsDeterministicReplica) {
  TempDir dir;
  AdeptOptions options = DurableOptions(dir);
  std::vector<std::string> renders_before;
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    AdeptSystem& adept = **system;
    auto v1 = testing_fixtures::ComplexSchema();
    ASSERT_TRUE(adept.DeployProcessType(v1).ok());
    SimulationDriver driver({.seed = 11});
    for (int i = 0; i < 5; ++i) {
      auto inst = adept.CreateInstance("complex");
      ASSERT_TRUE(inst.ok());
      for (int s = 0; s < i * 2; ++s) {
        auto progressed = adept.DriveStep(*inst, driver);
        ASSERT_TRUE(progressed.ok());
        if (!*progressed) break;
      }
      renders_before.push_back(RenderInstance(*adept.SnapshotOf(*inst)));
    }
  }
  auto recovered = AdeptSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  for (size_t i = 0; i < renders_before.size(); ++i) {
    auto snapshot = (*recovered)->SnapshotOf(InstanceId(i + 1));
    ASSERT_NE(snapshot, nullptr);
    EXPECT_EQ(RenderInstance(*snapshot), renders_before[i])
        << "instance " << i;
  }
}

// Regression for the checkpoint double-serialization bug: SaveSnapshot
// used to re-serialize the full state of every instance on every
// checkpoint, even when nothing changed since the previous one. The
// facade now keys a per-instance serialization cache on the published
// snapshot version (every mutation republishes, so the version is a
// change fingerprint) — unchanged instances must cost zero fresh
// serializations.
TEST(AdeptSystemTest, CheckpointSkipsUnchangedInstances) {
  TempDir dir;
  auto system = AdeptSystem::Create(DurableOptions(dir));
  ASSERT_TRUE(system.ok());
  AdeptSystem& adept = **system;
  auto v1 = SequenceSchema(3, "chk");
  ASSERT_TRUE(adept.DeployProcessType(v1).ok());
  InstanceId insts[3];
  for (InstanceId& id : insts) {
    auto created = adept.CreateInstance("chk");
    ASSERT_TRUE(created.ok());
    id = *created;
  }
  NodeId a1 = v1->FindNodeByName("a1");
  ASSERT_TRUE(adept.StartActivity(insts[0], a1).ok());

  uint64_t before = adept.full_state_serializations();
  ASSERT_TRUE(adept.SaveSnapshot().ok());
  EXPECT_EQ(adept.full_state_serializations() - before, 3u)
      << "first checkpoint serializes every instance";

  before = adept.full_state_serializations();
  ASSERT_TRUE(adept.SaveSnapshot().ok());
  EXPECT_EQ(adept.full_state_serializations() - before, 0u)
      << "checkpoint with no intervening mutation must reuse the cache";

  ASSERT_TRUE(adept.StartActivity(insts[1], a1).ok());
  before = adept.full_state_serializations();
  ASSERT_TRUE(adept.SaveSnapshot().ok());
  EXPECT_EQ(adept.full_state_serializations() - before, 1u)
      << "only the mutated instance pays a fresh serialization";

  // Evict + re-import restarts publication versions at 1 — the cache
  // entry must be purged, not left to alias the old version numbering.
  auto exported = adept.ExportInstance(insts[2]);
  ASSERT_TRUE(exported.ok());
  ASSERT_TRUE(adept.EvictInstance(insts[2]).ok());
  ASSERT_TRUE(adept.ImportInstance(*exported).ok());
  before = adept.full_state_serializations();
  ASSERT_TRUE(adept.SaveSnapshot().ok());
  EXPECT_EQ(adept.full_state_serializations() - before, 1u)
      << "re-imported instance must be re-serialized exactly once";

  // And the cached bytes must be correct: a cold recovery off the final
  // checkpoint sees all three instances with their exact states.
  auto recovered = AdeptSystem::Recover(DurableOptions(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  for (int i = 0; i < 3; ++i) {
    auto snapshot = (*recovered)->SnapshotOf(insts[i]);
    ASSERT_NE(snapshot, nullptr) << "instance " << i;
    EXPECT_EQ(snapshot->marking.node(a1),
              i < 2 ? NodeState::kRunning : NodeState::kActivated)
        << "instance " << i;
  }
}

void StripKeyRecursively(JsonValue& value, const std::string& key) {
  if (value.is_object()) {
    value.as_object().erase(key);
    for (auto& [k, child] : value.as_object()) StripKeyRecursively(child, key);
  } else if (value.is_array()) {
    for (JsonValue& child : value.as_array()) StripKeyRecursively(child, key);
  }
}

// Serialized instance state without "asince" activation stamps (logs
// written before the stamps existed) must still recover: an imported
// instance lands in the right state, with deterministic default stamps
// for its in-flight nodes.
TEST(AdeptSystemTest, ImportRecordWithoutActivationStampsRecovers) {
  TempDir dir;
  AdeptOptions options = DurableOptions(dir);
  InstanceId imported_id;
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    AdeptSystem& adept = **system;
    ASSERT_TRUE(adept.DeployProcessType(OnlineOrderV1()).ok());
    auto created = adept.CreateInstance("online_order");
    ASSERT_TRUE(created.ok());
    imported_id = *created;
    auto exported = adept.ExportInstance(imported_id);
    ASSERT_TRUE(exported.ok());
    ASSERT_TRUE(adept.EvictInstance(imported_id).ok());
    ASSERT_TRUE(adept.ImportInstance(*exported).ok());
  }  // destroyed without SaveSnapshot: the WAL alone carries the history

  auto records = WriteAheadLog::ReadAll(options.wal_path);
  ASSERT_TRUE(records.ok());
  TempDir stripped_dir;
  AdeptOptions stripped_options = DurableOptions(stripped_dir);
  {
    auto stripped_wal = WriteAheadLog::Open(stripped_options.wal_path);
    ASSERT_TRUE(stripped_wal.ok());
    for (JsonValue record : *records) {
      StripKeyRecursively(record, "asince");
      ASSERT_TRUE((*stripped_wal)->Append(record).ok());
    }
  }

  auto recovered = AdeptSystem::Recover(stripped_options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  auto snapshot = (*recovered)->SnapshotOf(imported_id);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_FALSE(snapshot->finished);
  size_t stamped = 0;
  snapshot->activated_nodes.ForEach([&](NodeId node) {
    if (snapshot->activated_since.Find(node) != nullptr) ++stamped;
  });
  EXPECT_GT(stamped, 0u);
  EXPECT_EQ(stamped, snapshot->activated_nodes.size());
}

// A WAL is input from outside the program: an ad-hoc record that carries
// no "delta" (the pre-delta cumulative shape, or a damaged record) fails
// recovery with kCorruption naming the record.
TEST(AdeptSystemTest, AdHocRecordWithoutDeltaFailsRecovery) {
  TempDir dir;
  AdeptOptions options = DurableOptions(dir);
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    ASSERT_TRUE((*system)->DeployProcessType(OnlineOrderV1()).ok());
    ASSERT_TRUE((*system)->CreateInstance("online_order").ok());
  }
  {
    auto wal = WriteAheadLog::Open(options.wal_path);
    ASSERT_TRUE(wal.ok());
    JsonValue bias = JsonValue::MakeObject();
    bias.Set("ops", JsonValue::MakeArray());
    JsonValue record = JsonValue::MakeObject();
    record.Set("t", JsonValue("adhoc"));
    record.Set("id", JsonValue(1));
    record.Set("bias", std::move(bias));
    ASSERT_TRUE((*wal)->Append(record).ok());
    ASSERT_TRUE((*wal)->Sync(SyncMode::kFlush).ok());
  }
  auto recovered = AdeptSystem::Recover(options);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption);
  const std::string message = recovered.status().message();
  EXPECT_NE(message.find(R"({"bias":{"ops":[]},"id":1,"t":"adhoc"})"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("ad-hoc record without a delta"), std::string::npos)
      << message;
}

}  // namespace
}  // namespace adept
