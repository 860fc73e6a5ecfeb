// InstanceOp is the one spelling of an instance operation
// (core/instance_op.h). These tests pin the WAL record of every op kind
// byte for byte, check the record codec, and check that named calls,
// batches and replay agree on instance state and on the log.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <unistd.h>
#include <vector>

#include "change/change_op.h"
#include "cluster/adept_cluster.h"
#include "common/rng.h"
#include "core/adept.h"
#include "model/schema_builder.h"
#include "storage/wal.h"

namespace adept {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("adept_instance_op_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
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

std::vector<std::string> WalPayloads(const std::string& path) {
  std::vector<std::string> payloads;
  auto tail = WriteAheadLog::ReadTail(path, 0);
  if (!tail.ok()) return payloads;
  for (const WalFrame& frame : tail->frames) payloads.push_back(frame.payload);
  return payloads;
}

using SchemaPtr = std::shared_ptr<const ProcessSchema>;

// An activity writing one element of each data type, an XOR split with no
// decision element (SelectBranch decides it), a loop, and a tail for the
// failure, suspension, ad-hoc and drive-step ops.
SchemaPtr PinSchema() {
  SchemaBuilder b("pin_ops", 1);
  DataId count = b.Data("count", DataType::kInt);
  DataId flag = b.Data("flag", DataType::kBool);
  DataId amount = b.Data("amount", DataType::kDouble);
  DataId note = b.Data("note", DataType::kString);
  DataId again = b.Data("again", DataType::kBool);
  NodeId writer = b.Activity("writer");
  for (DataId d : {count, flag, amount, note}) b.Writes(writer, d);
  b.Conditional(DataId::Invalid(), {
      [](SchemaBuilder& s) { s.Activity("left"); },
      [](SchemaBuilder& s) { s.Activity("right"); },
  });
  b.Loop(again, [&](SchemaBuilder& s) {
    NodeId check = s.Activity("check");
    s.Writes(check, again);
  });
  b.Activity("flaky");
  b.Activity("last");
  auto schema = b.Build();
  return schema.ok() ? *schema : nullptr;
}

// One op of each kind through the named calls of `adept`.
Status RunPinScript(AdeptSystem& adept, InstanceId* id_out) {
  SchemaPtr schema = PinSchema();
  if (schema == nullptr) return Status::Internal("pin schema did not build");
  auto node = [&](const char* name) { return schema->FindNodeByName(name); };
  auto data = [&](const char* name) { return schema->FindDataByName(name); };
  ADEPT_RETURN_IF_ERROR(adept.DeployProcessType(schema).status());
  ADEPT_ASSIGN_OR_RETURN(InstanceId id, adept.CreateInstance("pin_ops"));
  *id_out = id;
  ADEPT_RETURN_IF_ERROR(adept.StartActivity(id, node("writer")));
  ADEPT_RETURN_IF_ERROR(adept.CompleteActivity(
      id, node("writer"),
      {{data("count"), DataValue::Int(7)},
       {data("flag"), DataValue::Bool(true)},
       {data("amount"), DataValue::Double(2.5)},
       {data("note"), DataValue::String("ok")}}));
  Delta insert;
  NewActivitySpec spec;
  spec.name = "inserted";
  insert.Add(
      std::make_unique<SerialInsertOp>(spec, node("flaky"), node("last")));
  ADEPT_RETURN_IF_ERROR(adept.ApplyAdHocChange(id, std::move(insert)));
  ADEPT_RETURN_IF_ERROR(adept.SelectBranch(id, node("xor_split"), 1));
  ADEPT_RETURN_IF_ERROR(adept.StartActivity(id, node("right")));
  ADEPT_RETURN_IF_ERROR(adept.CompleteActivity(id, node("right")));
  ADEPT_RETURN_IF_ERROR(adept.StartActivity(id, node("check")));
  ADEPT_RETURN_IF_ERROR(adept.SetLoopDecision(id, node("loop_end"), false));
  ADEPT_RETURN_IF_ERROR(adept.CompleteActivity(
      id, node("check"), {{data("again"), DataValue::Bool(true)}}));
  ADEPT_RETURN_IF_ERROR(adept.StartActivity(id, node("flaky")));
  ADEPT_RETURN_IF_ERROR(adept.FailActivity(id, node("flaky"), "timeout"));
  ADEPT_RETURN_IF_ERROR(adept.RetryActivity(id, node("flaky")));
  ADEPT_RETURN_IF_ERROR(adept.StartActivity(id, node("flaky")));
  ADEPT_RETURN_IF_ERROR(adept.SuspendActivity(id, node("flaky")));
  ADEPT_RETURN_IF_ERROR(adept.ResumeActivity(id, node("flaky")));
  ADEPT_RETURN_IF_ERROR(adept.CompleteActivity(id, node("flaky")));
  SimulationDriver driver(DriverOptions{.seed = 5});
  ADEPT_ASSIGN_OR_RETURN(bool progressed, adept.DriveStep(id, driver));
  if (!progressed) return Status::Internal("the drive step made no progress");
  return Status::OK();
}

// The WAL payloads RunPinScript leaves, in order: the deploy, then one
// record per instance op (the drive step's start and complete last).
// Recorded by running this same script against the library as it was
// before InstanceOp, whose named calls built each record inline, in a
// scratch checkout of that commit; every record kept its bytes.
const char* const kPinGoldens[] = {
    R"({"id":1,"schema":{"data":[{"id":0,"name":"count","type":1},{"id":1)"
    R"(,"name":"flag","type":0},{"id":2,"name":"amount","type":2},{"id":3)"
    R"(,"name":"note","type":3},{"id":4,"name":"again","type":0}],"data_e)"
    R"(dges":[{"data":0,"mode":1,"node":1},{"data":1,"mode":1,"node":1},{)"
    R"("data":2,"mode":1,"node":1},{"data":3,"mode":1,"node":1},{"data":4)"
    R"(,"mode":1,"node":7}],"edges":[{"dst":1,"id":0,"src":0,"type":0},{")"
    R"(dst":2,"id":1,"src":1,"type":0},{"dst":3,"id":2,"src":2,"type":0},)"
    R"({"branch":1,"dst":4,"id":3,"src":2,"type":0},{"dst":5,"id":4,"src")"
    R"(:3,"type":0},{"dst":5,"id":5,"src":4,"type":0},{"dst":6,"id":6,"sr)"
    R"(c":5,"type":0},{"dst":7,"id":7,"src":6,"type":0},{"dst":8,"id":8,")"
    R"(src":7,"type":0},{"dst":6,"id":9,"src":8,"type":2},{"dst":9,"id":1)"
    R"(0,"src":8,"type":0},{"dst":10,"id":11,"src":9,"type":0},{"dst":11,)"
    R"("id":12,"src":10,"type":0}],"format":1,"next_data_id":5,"next_edge)"
    R"(_id":13,"next_node_id":12,"nodes":[{"id":0,"name":"start","type":0)"
    R"(},{"id":1,"name":"writer","type":2},{"id":2,"name":"xor_split","ty)"
    R"(pe":5},{"id":3,"name":"left","type":2},{"id":4,"name":"right","typ)"
    R"(e":2},{"id":5,"name":"xor_join","type":6},{"id":6,"name":"loop_sta)"
    R"(rt","type":7},{"id":7,"name":"check","type":2},{"id":8,"loop_data")"
    R"(:4,"name":"loop_end","type":8},{"id":9,"name":"flaky","type":2},{")"
    R"(id":10,"name":"last","type":2},{"id":11,"name":"end","type":1}],"t)"
    R"(ype_name":"pin_ops","version":1},"t":"deploy"})",
    R"({"id":1,"schema":1,"t":"create"})",
    R"({"ev":"start","id":1,"node":1,"t":"act"})",
    R"({"ev":"complete","id":1,"node":1,"t":"act","writes":[{"d":0,"v":{")"
    R"(t":1,"v":7}},{"d":1,"v":{"t":0,"v":true}},{"d":2,"v":{"t":2,"v":2.)"
    R"(5}},{"d":3,"v":{"t":3,"v":"ok"}}]})",
    R"({"delta":{"ops":[{"op":"serialInsert","pins":{"data":[],"edges":[1)"
    R"(048576,1048577],"nodes":[1048576]},"pred":9,"spec":{"name":"insert)"
    R"(ed"},"succ":10}]},"id":1,"t":"adhoc"})",
    R"({"code":1,"id":1,"node":2,"t":"branch"})",
    R"({"ev":"start","id":1,"node":4,"t":"act"})",
    R"({"ev":"complete","id":1,"node":4,"t":"act","writes":[]})",
    R"({"ev":"start","id":1,"node":7,"t":"act"})",
    R"({"id":1,"iterate":false,"node":8,"t":"loopdec"})",
    R"({"ev":"complete","id":1,"node":7,"t":"act","writes":[{"d":4,"v":{")"
    R"(t":0,"v":true}}]})",
    R"({"ev":"start","id":1,"node":9,"t":"act"})",
    R"({"detail":"timeout","ev":"fail","id":1,"node":9,"t":"act"})",
    R"({"ev":"retry","id":1,"node":9,"t":"act"})",
    R"({"ev":"start","id":1,"node":9,"t":"act"})",
    R"({"ev":"suspend","id":1,"node":9,"t":"act"})",
    R"({"ev":"resume","id":1,"node":9,"t":"act"})",
    R"({"ev":"complete","id":1,"node":9,"t":"act","writes":[]})",
    R"({"ev":"start","id":1,"node":1048576,"t":"act"})",
    R"({"ev":"complete","id":1,"node":1048576,"t":"act","writes":[]})",
};

AdeptOptions PinOptions(const TempDir& dir) {
  AdeptOptions options;
  options.wal_path = dir.File("pin.wal");
  options.snapshot_path = dir.File("pin.snapshot");
  return options;
}

TEST(InstanceOpRecordTest, EveryKindLogsItsPinnedRecord) {
  TempDir dir;
  const AdeptOptions options = PinOptions(dir);
  InstanceId id;
  std::string live;
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok()) << system.status();
    Status st = RunPinScript(**system, &id);
    ASSERT_TRUE(st.ok()) << st;
    auto exported = (*system)->ExportInstance(id);
    ASSERT_TRUE(exported.ok()) << exported.status();
    live = exported->Dump();
  }
  const std::vector<std::string> payloads = WalPayloads(options.wal_path);
  ASSERT_EQ(payloads.size(), std::size(kPinGoldens));
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(payloads[i], kPinGoldens[i]) << "record " << i + 1;
  }

  // Replay decodes every record into an op and applies it: the same state.
  auto recovered = AdeptSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  auto exported = (*recovered)->ExportInstance(id);
  ASSERT_TRUE(exported.ok()) << exported.status();
  EXPECT_EQ(exported->Dump(), live);
}

// start -> a -> b -> end: the type the schema, claim, org and handover
// records are pinned on.
SchemaPtr MoveSchema() {
  SchemaBuilder b("pin_move", 1);
  b.Activity("a");
  b.Activity("b");
  auto schema = b.Build();
  return schema.ok() ? *schema : nullptr;
}

// Every record kind that is not an instance op, in the order a type's life
// and a resize write them: `source` deploys, creates an instance, evolves
// the type and migrates the instance, claims, releases and re-claims its
// activated activity, and logs an org; `destination` takes the schema
// history and then the instance, which `source` evicts.
Status RunMoveScript(AdeptSystem& source, AdeptSystem& destination,
                     InstanceId* id_out) {
  SchemaPtr schema = MoveSchema();
  if (schema == nullptr) return Status::Internal("move schema did not build");
  const NodeId a = schema->FindNodeByName("a");
  ADEPT_ASSIGN_OR_RETURN(SchemaId v1, source.DeployProcessType(schema));
  ADEPT_ASSIGN_OR_RETURN(InstanceId id, source.CreateInstance("pin_move"));
  *id_out = id;
  Delta audit;
  NewActivitySpec spec;
  spec.name = "audit";
  audit.Add(std::make_unique<SerialInsertOp>(spec, a,
                                             schema->FindNodeByName("b")));
  ADEPT_ASSIGN_OR_RETURN(SchemaId v2,
                         source.EvolveProcessType(v1, std::move(audit)));
  ADEPT_ASSIGN_OR_RETURN(MigrationReport report, source.Migrate(v1, v2));
  if (report.MigratedTotal() != 1) return Status::Internal("not migrated");
  auto ok = [] { return Status::OK(); };
  ADEPT_RETURN_IF_ERROR(source.RecordClaim(id, a, UserId(2), 0, ok).status());
  ADEPT_RETURN_IF_ERROR(
      source.RecordClaim(id, a, UserId::Invalid(), 0, ok).status());
  ADEPT_RETURN_IF_ERROR(source.RecordClaim(id, a, UserId(1), 0, ok).status());
  OrgModel org;
  ADEPT_ASSIGN_OR_RETURN(RoleId clerk, org.AddRole("clerk"));
  ADEPT_ASSIGN_OR_RETURN(UserId alice, org.AddUser("alice"));
  ADEPT_RETURN_IF_ERROR(org.AssignRole(alice, clerk));
  ADEPT_RETURN_IF_ERROR(source.LogOrg(org));
  ADEPT_RETURN_IF_ERROR(
      destination.ReplicateSchemas(source.repository().ToJson()));
  ADEPT_ASSIGN_OR_RETURN(JsonValue exported, source.ExportInstance(id));
  ADEPT_RETURN_IF_ERROR(destination.ImportInstance(exported));
  return source.EvictInstance(id);
}

// The WAL payloads RunMoveScript leaves on `source` and then on
// `destination`. Recorded by running this same script against the library
// as it was before replay called the live deploy, evolve, repo, import,
// evict and migrate functions, in a separate checkout of that commit.
const char* const kMoveSourceGoldens[] = {
    R"({"id":1,"schema":{"data":[],"data_edges":[],"edges":[{"dst":1,"id":0,")"
    R"(src":0,"type":0},{"dst":2,"id":1,"src":1,"type":0},{"dst":3,"id":2,"sr)"
    R"(c":2,"type":0}],"format":1,"next_data_id":0,"next_edge_id":3,"next_nod)"
    R"(e_id":4,"nodes":[{"id":0,"name":"start","type":0},{"id":1,"name":"a",")"
    R"(type":2},{"id":2,"name":"b","type":2},{"id":3,"name":"end","type":1}],)"
    R"("type_name":"pin_move","version":1},"t":"deploy"})",
    R"({"id":1,"schema":1,"t":"create"})",
    R"({"base":1,"delta":{"ops":[{"op":"serialInsert","pins":{"data":[],"edge)"
    R"(s":[3,4],"nodes":[4]},"pred":1,"spec":{"name":"audit"},"succ":2}]},"id)"
    R"(":2,"t":"evolve"})",
    R"({"from":1,"t":"migrate","to":2,"use_replay":false})",
    R"({"epoch":0,"id":1,"node":1,"t":"claim","user":2})",
    R"({"id":1,"node":1,"t":"release"})",
    R"({"epoch":0,"id":1,"node":1,"t":"claim","user":1})",
    R"({"org":{"next_role":2,"next_user":2,"roles":[{"id":1,"name":"clerk"}],)"
    R"("users":[{"id":1,"name":"alice","roles":[1]}]},"t":"org"})",
    R"({"id":1,"t":"evict"})",
};
const char* const kMoveDestinationGoldens[] = {
    R"({"repo":{"entries":[{"id":1,"schema":{"data":[],"data_edges":[],"edges)"
    R"(":[{"dst":1,"id":0,"src":0,"type":0},{"dst":2,"id":1,"src":1,"type":0})"
    R"(,{"dst":3,"id":2,"src":2,"type":0}],"format":1,"next_data_id":0,"next_)"
    R"(edge_id":3,"next_node_id":4,"nodes":[{"id":0,"name":"start","type":0},)"
    R"({"id":1,"name":"a","type":2},{"id":2,"name":"b","type":2},{"id":3,"nam)"
    R"(e":"end","type":1}],"type_name":"pin_move","version":1}},{"delta":{"op)"
    R"(s":[{"op":"serialInsert","pins":{"data":[],"edges":[3,4],"nodes":[4]},)"
    R"("pred":1,"spec":{"name":"audit"},"succ":2}]},"id":2,"parent":1,"schema)"
    R"(":{"data":[],"data_edges":[],"edges":[{"dst":1,"id":0,"src":0,"type":0)"
    R"(},{"dst":3,"id":2,"src":2,"type":0},{"dst":4,"id":3,"src":1,"type":0},)"
    R"({"dst":2,"id":4,"src":4,"type":0}],"format":1,"next_data_id":0,"next_e)"
    R"(dge_id":5,"next_node_id":5,"nodes":[{"id":0,"name":"start","type":0},{)"
    R"("id":1,"name":"a","type":2},{"id":2,"name":"b","type":2},{"id":3,"name)"
    R"(":"end","type":1},{"id":4,"name":"audit","type":2}],"type_name":"pin_m)"
    R"(ove","version":2}}],"next_id":3},"t":"repo"})",
    R"({"inst":{"base":2,"claims":[{"epoch":0,"id":1,"node":1,"user":1}],"id")"
    R"(:1,"state":{"asince":[{"n":1,"q":1}],"data":{"elements":[]},"loops":[])"
    R"(,"marking":{"edges":[{"e":0,"s":1}],"nodes":[{"n":0,"s":3},{"n":1,"s":)"
    R"(1}]},"started":true,"trace":{"events":[{"k":0,"q":0},{"k":10,"q":1,"t")"
    R"(:"to version 2"}]}},"strategy":0},"t":"import"})",
};

TEST(InstanceOpRecordTest, SchemaClaimOrgAndHandoverRecordsArePinned) {
  TempDir dir;
  const AdeptOptions source_options = PinOptions(dir);
  AdeptOptions destination_options;
  destination_options.wal_path = dir.File("destination.wal");
  InstanceId id;
  std::string live;
  std::string live_claims;
  {
    auto source = AdeptSystem::Create(source_options);
    auto destination = AdeptSystem::Create(destination_options);
    ASSERT_TRUE(source.ok() && destination.ok());
    Status st = RunMoveScript(**source, **destination, &id);
    ASSERT_TRUE(st.ok()) << st;
    auto exported = (*destination)->ExportInstance(id);
    ASSERT_TRUE(exported.ok()) << exported.status();
    live = exported->Dump();
    live_claims = (*destination)->claims().ToJson().Dump();
  }
  const struct {
    const std::string& path;
    const char* const* goldens;
    size_t count;
  } logs[] = {
      {source_options.wal_path, kMoveSourceGoldens,
       std::size(kMoveSourceGoldens)},
      {destination_options.wal_path, kMoveDestinationGoldens,
       std::size(kMoveDestinationGoldens)},
  };
  for (const auto& log : logs) {
    const std::vector<std::string> payloads = WalPayloads(log.path);
    ASSERT_EQ(payloads.size(), log.count) << log.path;
    for (size_t i = 0; i < payloads.size(); ++i) {
      EXPECT_EQ(payloads[i], log.goldens[i]) << log.path << " record " << i + 1;
    }
  }

  // Replay runs the same calls: the source ends without the instance, with
  // the org it logged; the destination ends with the instance and its
  // claim.
  auto source = AdeptSystem::Recover(source_options);
  ASSERT_TRUE(source.ok()) << source.status();
  EXPECT_EQ((*source)->engine().Find(id), nullptr);
  EXPECT_EQ((*source)->claims().size(), 0u);
  EXPECT_FALSE((*source)->logged_org().is_null());
  auto destination = AdeptSystem::Recover(destination_options);
  ASSERT_TRUE(destination.ok()) << destination.status();
  auto exported = (*destination)->ExportInstance(id);
  ASSERT_TRUE(exported.ok()) << exported.status();
  EXPECT_EQ(exported->Dump(), live);
  EXPECT_EQ((*destination)->claims().ToJson().Dump(), live_claims);
}

// Every pinned op record decodes into an op that encodes to the same bytes.
TEST(InstanceOpRecordTest, DecodeThenEncodeKeepsTheBytes) {
  for (size_t i = 1; i < std::size(kPinGoldens); ++i) {
    auto record = JsonValue::Parse(kPinGoldens[i]);
    ASSERT_TRUE(record.ok()) << record.status();
    auto op = InstanceOp::FromRecord(*record);
    ASSERT_TRUE(op.ok()) << op.status();
    // A decoded ad-hoc op's delta is the pinned tail it was logged with.
    JsonValue pinned_ops;
    if (op->kind == InstanceOp::Kind::kAdHocChange) {
      pinned_ops = op->delta->ToJson().Get("ops");
    }
    EXPECT_EQ(op->ToRecord(pinned_ops).Dump(), kPinGoldens[i]);
  }
}

// A WAL is input from outside the program: an activity event nobody
// emits and an ad-hoc record without a delta fail recovery with
// kCorruption naming the cause.
TEST(InstanceOpRecordTest, MalformedOpRecordsFailRecovery) {
  const struct {
    const char* record;
    const char* cause;
  } cases[] = {
      {R"({"ev":"explode","id":1,"node":1,"t":"act"})",
       "unknown activity event: explode"},
      {R"({"id":1,"t":"adhoc"})", "ad-hoc record without a delta"},
  };
  for (const auto& c : cases) {
    TempDir dir;
    const AdeptOptions options = PinOptions(dir);
    {
      auto system = AdeptSystem::Create(options);
      ASSERT_TRUE(system.ok()) << system.status();
      ASSERT_TRUE((*system)->DeployProcessType(PinSchema()).ok());
      ASSERT_TRUE((*system)->CreateInstance("pin_ops").ok());
    }
    {
      auto wal = WriteAheadLog::Open(options.wal_path);
      ASSERT_TRUE(wal.ok()) << wal.status();
      auto record = JsonValue::Parse(c.record);
      ASSERT_TRUE(record.ok()) << record.status();
      ASSERT_TRUE((*wal)->Append(*record).ok());
      ASSERT_TRUE((*wal)->Sync(SyncMode::kFlush).ok());
    }
    auto recovered = AdeptSystem::Recover(options);
    ASSERT_FALSE(recovered.ok()) << c.record;
    EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption);
    EXPECT_NE(recovered.status().message().find(c.cause), std::string::npos)
        << recovered.status();
  }
}

// --- Named calls, batches and replay agree -----------------------------------

ClusterOptions TwoShards(const TempDir& dir, const std::string& name) {
  ClusterOptions options;
  options.shards = 2;
  options.wal_path = dir.File(name + ".wal");
  options.snapshot_path = dir.File(name + ".snapshot");
  return options;
}

// One generated op: the op a batch carries, and the same op through the
// named AdeptApi call.
struct Step {
  InstanceOp op;
  std::function<OpResult(AdeptApi&)> named;
};

Step StatusStep(InstanceOp op, std::function<Status(AdeptApi&)> call) {
  const InstanceId id = op.id;
  return {std::move(op), [id, call = std::move(call)](AdeptApi& api) {
            OpResult result;
            result.id = id;
            result.status = call(api);
            return result;
          }};
}

DataValue RandomValue(DataType type, Rng& rng) {
  switch (type) {
    case DataType::kInt:
      return DataValue::Int(static_cast<int64_t>(rng.NextBelow(10)));
    case DataType::kBool:
      return DataValue::Bool(rng.NextBool());
    case DataType::kDouble:
      return DataValue::Double(static_cast<double>(rng.NextBelow(100)) / 4);
    case DataType::kString:
      return DataValue::String("s" + std::to_string(rng.NextBelow(100)));
  }
  return DataValue::Int(0);
}

// Draws the next op from the state `reference` publishes: mostly ops its
// marking allows, sometimes one it refuses, which both sides must refuse
// alike.
Step NextStep(const AdeptApi& reference, const std::vector<InstanceId>& ids,
              Rng& rng, int* inserted) {
  if (ids.empty() || rng.NextBelow(10) == 0) {
    return {InstanceOp::Create("pin_ops"), [](AdeptApi& api) {
              OpResult result;
              auto created = api.CreateInstance("pin_ops");
              result.status = created.status();
              if (created.ok()) result.id = *created;
              return result;
            }};
  }
  const InstanceId id = ids[rng.NextIndex(ids.size())];
  std::shared_ptr<const InstanceSnapshot> snapshot = reference.SnapshotOf(id);
  const SchemaView& schema = *snapshot->schema;
  std::vector<Step> steps;
  schema.VisitNodes([&](const Node& node) {
    const NodeId n = node.id;
    const NodeState state = snapshot->marking.node(n);
    if (node.type == NodeType::kXorSplit && state == NodeState::kActivated) {
      // Branch codes are 0 and 1; 2 names no branch.
      const int code = static_cast<int>(rng.NextBelow(3));
      steps.push_back(StatusStep(
          InstanceOp::SelectBranch(id, n, code),
          [=](AdeptApi& api) { return api.SelectBranch(id, n, code); }));
    }
    if (node.type == NodeType::kLoopEnd) {
      const bool iterate = rng.NextBool(0.3);
      steps.push_back(StatusStep(
          InstanceOp::LoopDecision(id, n, iterate),
          [=](AdeptApi& api) { return api.SetLoopDecision(id, n, iterate); }));
    }
    if (node.type != NodeType::kActivity) return;
    if (state == NodeState::kActivated || rng.NextBelow(20) == 0) {
      steps.push_back(StatusStep(
          InstanceOp::Start(id, n),
          [=](AdeptApi& api) { return api.StartActivity(id, n); }));
    }
    if (state == NodeState::kRunning) {
      std::vector<ProcessInstance::DataWrite> writes;
      schema.VisitDataEdges(n, [&](const DataEdge& edge) {
        if (edge.mode != AccessMode::kWrite) return;
        writes.push_back(
            {edge.data, RandomValue(schema.FindData(edge.data)->type, rng)});
      });
      steps.push_back(StatusStep(
          InstanceOp::Complete(id, n, writes),
          [=](AdeptApi& api) { return api.CompleteActivity(id, n, writes); }));
      const std::string reason = "r" + std::to_string(rng.NextBelow(9));
      steps.push_back(StatusStep(
          InstanceOp::Fail(id, n, reason),
          [=](AdeptApi& api) { return api.FailActivity(id, n, reason); }));
      steps.push_back(StatusStep(
          InstanceOp::Suspend(id, n),
          [=](AdeptApi& api) { return api.SuspendActivity(id, n); }));
    }
    if (state == NodeState::kFailed) {
      steps.push_back(StatusStep(
          InstanceOp::Retry(id, n),
          [=](AdeptApi& api) { return api.RetryActivity(id, n); }));
    }
    if (state == NodeState::kSuspended || rng.NextBelow(20) == 0) {
      steps.push_back(StatusStep(
          InstanceOp::Resume(id, n),
          [=](AdeptApi& api) { return api.ResumeActivity(id, n); }));
    }
  });
  // An ad-hoc insert in front of "last", refused once "last" has started.
  if (rng.NextBelow(4) == 0) {
    const NodeId last = schema.FindNodeByName("last");
    NodeId pred;
    schema.VisitInEdges(last, [&](const Edge& edge) {
      if (edge.type == EdgeType::kControl) pred = edge.src;
    });
    NewActivitySpec spec;
    spec.name = "x" + std::to_string(++*inserted);
    Delta delta;
    delta.Add(std::make_unique<SerialInsertOp>(spec, pred, last));
    auto shared = std::make_shared<Delta>(delta.Clone());
    steps.push_back(StatusStep(
        InstanceOp::AdHocChange(id, std::move(delta)),
        [=](AdeptApi& api) {
          return api.ApplyAdHocChange(id, shared->Clone());
        }));
  }
  if (steps.empty()) {
    // A finished instance: a start it refuses.
    const NodeId last = schema.FindNodeByName("last");
    return StatusStep(InstanceOp::Start(id, last), [=](AdeptApi& api) {
      return api.StartActivity(id, last);
    });
  }
  return std::move(steps[rng.NextIndex(steps.size())]);
}

std::string ExportOf(AdeptCluster& cluster, InstanceId id) {
  auto exported = cluster.shard(cluster.ShardOf(id)).ExportInstance(id);
  return exported.ok() ? exported->Dump() : exported.status().ToString();
}

// --- Live state equals replayed state ---------------------------------------

struct Staff {
  RoleId clerk, packer;
  UserId alice, bob, carol;
};

// Populating in the same order gives the same ids, so a recovered system
// that logged no org gets the live one back.
Staff PopulateOrg(OrgModel& org) {
  Staff staff;
  staff.clerk = *org.AddRole("clerk");
  staff.packer = *org.AddRole("packer");
  staff.alice = *org.AddUser("alice");
  staff.bob = *org.AddUser("bob");
  staff.carol = *org.AddUser("carol");
  (void)org.AssignRole(staff.alice, staff.clerk);
  (void)org.AssignRole(staff.bob, staff.packer);
  (void)org.AssignRole(staff.carol, staff.clerk);
  return staff;
}

// Every user's offers and assignments. Item ids are left out: recovery
// numbers the items afresh.
std::string Listing(const WorklistService& worklist, const Staff& staff) {
  auto render = [](const std::vector<WorkItem>& items) {
    std::vector<std::string> lines;
    for (const WorkItem& item : items) {
      lines.push_back(std::to_string(item.instance.value()) + "/" +
                      std::to_string(item.node.value()) + " " +
                      WorkItemStateToString(item.state) + " by " +
                      std::to_string(item.claimed_by.value()) + " epoch " +
                      std::to_string(item.epoch));
    }
    std::sort(lines.begin(), lines.end());
    std::string joined;
    for (const std::string& line : lines) joined += line + "\n";
    return joined;
  };
  std::string listing;
  for (UserId user : {staff.alice, staff.bob, staff.carol}) {
    listing += "user " + std::to_string(user.value()) + " offers\n" +
               render(worklist.OffersFor(user)) + "assigned\n" +
               render(worklist.AssignedTo(user));
  }
  return listing;
}

// Five instances of start -> a(clerk) -> b(clerk) -> d(packer) -> end meet
// two migrations. The first cancels the biases of instances 0 and 1, which
// inserted "x" ad hoc: the remap strands alice's claim on instance 0's "x"
// and the offer of instance 1's. Instance 2 is past "b" and stays behind
// with bob's claim on "d"; carol's started "a" on instance 3 migrates with
// it. The second migration puts "check" in front of "x", demoting the "x"
// alice claimed anew (state adaptation).
std::vector<InstanceId> RunMigrationScenario(AdeptApi& api,
                                             WorklistService& worklist,
                                             const Staff& staff) {
  SchemaBuilder builder("diff_proc", 1);
  const NodeId a = builder.Activity("a", {.role = staff.clerk});
  const NodeId b = builder.Activity("b", {.role = staff.clerk});
  builder.Activity("d", {.role = staff.packer});
  auto schema = builder.Build();
  EXPECT_TRUE(schema.ok());
  auto v1 = api.DeployProcessType(*schema);
  EXPECT_TRUE(v1.ok()) << v1.status();
  auto insert = [](const char* name, RoleId role, NodeId pred, NodeId succ) {
    Delta delta;
    NewActivitySpec spec;
    spec.name = name;
    spec.role = role;
    delta.Add(std::make_unique<SerialInsertOp>(spec, pred, succ));
    return delta;
  };
  auto run = [&](InstanceId id, NodeId node) {
    EXPECT_TRUE(api.StartActivity(id, node).ok());
    EXPECT_TRUE(api.CompleteActivity(id, node).ok());
  };
  auto claim = [&](UserId user, InstanceId id) {
    for (const WorkItem& item : worklist.OffersFor(user)) {
      if (item.instance == id) return worklist.Claim(item.id, user);
    }
    return Status::NotFound("no offer");
  };
  std::vector<InstanceId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(*api.CreateInstance("diff_proc"));
  for (int i = 0; i < 2; ++i) {
    run(ids[i], a);
    EXPECT_TRUE(
        api.ApplyAdHocChange(ids[i], insert("x", staff.clerk, a, b)).ok());
  }
  run(ids[2], a);
  run(ids[2], b);
  EXPECT_TRUE(claim(staff.alice, ids[0]).ok());
  EXPECT_TRUE(claim(staff.bob, ids[2]).ok());
  EXPECT_TRUE(claim(staff.carol, ids[3]).ok());
  for (const WorkItem& item : worklist.AssignedTo(staff.carol)) {
    EXPECT_TRUE(worklist.Start(item.id, staff.carol).ok());
  }

  auto v2 = api.EvolveProcessType(*v1, insert("x", staff.clerk, a, b));
  EXPECT_TRUE(v2.ok()) << v2.status();
  auto first = api.MigrateToLatest("diff_proc");
  EXPECT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->Count(MigrationOutcome::kBiasCancelled), 2u);
  EXPECT_EQ(first->Count(MigrationOutcome::kStateConflict), 1u);
  EXPECT_EQ(first->Count(MigrationOutcome::kMigrated), 2u);
  EXPECT_TRUE(claim(staff.alice, ids[0]).ok());

  const NodeId x = (*api.Schema(*v2))->FindNodeByName("x");
  auto v3 = api.EvolveProcessType(*v2, insert("check", staff.packer, a, x));
  EXPECT_TRUE(v3.ok()) << v3.status();
  auto second = api.Migrate(*v2, *v3);
  EXPECT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->Count(MigrationOutcome::kMigrated), 4u);
  return ids;
}

// What the differential compares: every instance's export, the claims of
// each ledger, and the worklist listing.
struct SystemState {
  std::vector<std::string> exports;
  std::vector<std::string> claims;
  std::string listing;

  bool operator==(const SystemState& other) const {
    return exports == other.exports && claims == other.claims &&
           listing == other.listing;
  }
};

std::ostream& operator<<(std::ostream& out, const SystemState& state) {
  for (const std::string& exported : state.exports) out << exported << "\n";
  for (const std::string& claims : state.claims) out << claims << "\n";
  return out << state.listing;
}

SystemState StateOf(AdeptSystem& system, const std::vector<InstanceId>& ids,
                    const Staff& staff) {
  SystemState state;
  for (InstanceId id : ids) {
    auto exported = system.ExportInstance(id);
    state.exports.push_back(exported.ok() ? exported->Dump()
                                          : exported.status().ToString());
  }
  state.claims.push_back(system.claims().ToJson().Dump());
  state.listing = Listing(system.worklists(), staff);
  return state;
}

SystemState StateOf(AdeptCluster& cluster, const std::vector<InstanceId>& ids,
                    const Staff& staff) {
  SystemState state;
  for (InstanceId id : ids) state.exports.push_back(ExportOf(cluster, id));
  for (size_t k = 0; k < cluster.shard_count(); ++k) {
    state.claims.push_back(cluster.shard(k).claims().ToJson().Dump());
  }
  state.listing = Listing(cluster.Worklist(), staff);
  return state;
}

// The ledgers hold bob's claim on instance 2 and carol's on instance 3:
// the claim the remap stranded and the one the demotion ended are gone.
// (A migration also ends a claim on an activity it leaves Activated: the
// marking re-evaluation demotes and re-activates it.)
size_t LedgerEntries(const SystemState& state) {
  size_t entries = 0;
  for (const std::string& claims : state.claims) {
    entries += JsonValue::Parse(claims)->as_array().size();
  }
  return entries;
}

TEST(LiveVersusReplayTest, StandaloneMigrationsReplayToTheLiveState) {
  TempDir dir;
  const AdeptOptions options = PinOptions(dir);
  std::vector<InstanceId> ids;
  SystemState live;
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok()) << system.status();
    const Staff staff = PopulateOrg((*system)->org());
    ids = RunMigrationScenario(**system, (*system)->worklists(), staff);
    live = StateOf(**system, ids, staff);
  }
  EXPECT_EQ(LedgerEntries(live), 2u) << live;
  auto recovered = AdeptSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  const Staff staff = PopulateOrg((*recovered)->org());
  EXPECT_EQ(StateOf(**recovered, ids, staff), live);
}

TEST(LiveVersusReplayTest, ClusterMigrationsReplayToTheLiveState) {
  TempDir dir;
  const ClusterOptions options = TwoShards(dir, "diff");
  std::vector<InstanceId> ids;
  SystemState live;
  {
    auto cluster = AdeptCluster::Create(options);
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    const Staff staff = PopulateOrg((*cluster)->org());
    ids = RunMigrationScenario(**cluster, (*cluster)->Worklist(), staff);
    live = StateOf(**cluster, ids, staff);
  }
  EXPECT_EQ(LedgerEntries(live), 2u) << live;
  auto recovered = AdeptCluster::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  const Staff staff = PopulateOrg((*recovered)->org());
  EXPECT_EQ(StateOf(**recovered, ids, staff), live);
}

// Two durable 2-shard clusters get the same seeded op mix: `named` through
// the named AdeptApi calls one op at a time, `batched` through SubmitBatch
// in groups of random size. Every op must report the same status and id on
// both, every instance must export the same state after every group, the
// shard WALs must end byte-equal, and recovering either cluster must
// reproduce the exports. Halfway both checkpoint, evolve the type and
// migrate to it, so the parallel shard fan-out runs a deploy, an evolution
// and a migration, and recovery starts from a snapshot. (Drive steps are
// left out: named and batched steps draw from different drivers; the
// record pin covers them.)
TEST(InstanceOpAgreementTest, NamedCallsBatchesAndReplayAgree) {
  std::map<InstanceOp::Kind, int> applied;  // ops that succeeded, by kind
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TempDir dir;
    const ClusterOptions named_options = TwoShards(dir, "named");
    const ClusterOptions batched_options = TwoShards(dir, "batched");
    Rng rng(seed);
    std::vector<InstanceId> ids;
    std::vector<std::string> exports;
    {
      auto named = AdeptCluster::Create(named_options);
      auto batched = AdeptCluster::Create(batched_options);
      ASSERT_TRUE(named.ok() && batched.ok());
      ASSERT_TRUE((*named)->DeployProcessType(PinSchema()).ok());
      ASSERT_TRUE((*batched)->DeployProcessType(PinSchema()).ok());
      int inserted = 0;
      size_t failed = 0;
      bool evolved = false;
      for (int done = 0; done < 160;) {
        if (!evolved && done >= 80) {
          evolved = true;
          std::vector<size_t> migrated;
          for (AdeptCluster* cluster : {named->get(), batched->get()}) {
            ASSERT_TRUE(cluster->SaveSnapshot().ok());
            auto v1 = cluster->LatestVersion("pin_ops");
            ASSERT_TRUE(v1.ok());
            SchemaPtr base = *cluster->Schema(*v1);
            Delta audit;
            NewActivitySpec spec;
            spec.name = "audit";
            audit.Add(std::make_unique<SerialInsertOp>(
                spec, base->FindNodeByName("writer"),
                base->FindNodeByName("xor_split")));
            ASSERT_TRUE(cluster->EvolveProcessType(*v1, std::move(audit)).ok());
            auto report = cluster->MigrateToLatest("pin_ops");
            ASSERT_TRUE(report.ok()) << report.status();
            migrated.push_back(report->MigratedTotal());
          }
          EXPECT_EQ(migrated[0], migrated[1]);
        }
        const size_t group = 1 + rng.NextIndex(6);
        std::vector<InstanceOp> batch;
        std::vector<OpResult> expected;
        for (size_t k = 0; k < group; ++k, ++done) {
          Step step = NextStep(**named, ids, rng, &inserted);
          OpResult result = step.named(**named);
          if (step.op.kind == InstanceOp::Kind::kCreate && result.status.ok()) {
            ids.push_back(result.id);
          }
          failed += !result.status.ok();
          applied[step.op.kind] += result.status.ok();
          batch.push_back(std::move(step.op));
          expected.push_back(std::move(result));
        }
        const std::vector<OpResult> results = (*batched)->SubmitBatch(batch);
        for (size_t k = 0; k < group; ++k) {
          EXPECT_EQ(results[k].status.ToString(),
                    expected[k].status.ToString());
          EXPECT_EQ(results[k].id, expected[k].id);
        }
        for (InstanceId id : ids) {
          ASSERT_EQ(ExportOf(**named, id), ExportOf(**batched, id))
              << "instance " << id.value() << " after op " << done;
        }
      }
      // The mix must exercise both outcomes.
      EXPECT_GT(failed, 0u);
      EXPECT_LT(failed, 120u);
      for (InstanceId id : ids) exports.push_back(ExportOf(**named, id));
    }
    for (size_t k = 0; k < 2; ++k) {
      const std::vector<std::string> logged = WalPayloads(
          ShardRouting::PathFor(named_options.wal_path, k));
      EXPECT_GT(logged.size(), 10u);
      EXPECT_EQ(logged, WalPayloads(ShardRouting::PathFor(
                            batched_options.wal_path, k)))
          << "shard " << k;
    }
    for (const ClusterOptions& options : {named_options, batched_options}) {
      auto recovered = AdeptCluster::Recover(options);
      ASSERT_TRUE(recovered.ok()) << recovered.status();
      for (size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(ExportOf(**recovered, ids[i]), exports[i])
            << options.wal_path << " instance " << ids[i].value();
      }
    }
  }
  // Every kind but the drive step succeeded somewhere in the mixes.
  EXPECT_EQ(applied.count(InstanceOp::Kind::kDriveStep), 0u);
  EXPECT_EQ(applied.size(), 10u);
  for (const auto& [kind, count] : applied) {
    EXPECT_GT(count, 0) << "kind " << static_cast<int>(kind);
  }
}

}  // namespace
}  // namespace adept
