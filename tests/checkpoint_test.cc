// A checkpoint writes its snapshot file's bytes itself and reuses the
// cached text of every instance whose published version is unchanged since
// the previous checkpoint (core/adept.h). These tests pin those bytes,
// check that a warm checkpoint equals a cold one, and count what a cluster
// checkpoint serializes.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "change/change_op.h"
#include "cluster/adept_cluster.h"
#include "common/fs_util.h"
#include "common/rng.h"
#include "core/adept.h"
#include "model/schema_builder.h"
#include "storage/wal.h"
#include "tests/test_fixtures.h"

namespace adept {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("adept_checkpoint_test_" + std::to_string(::getpid()) + "_" +
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

using SchemaPtr = std::shared_ptr<const ProcessSchema>;

std::string ReadAll(const std::string& path) {
  auto content = ReadFileToString(path);
  return content.ok() ? *content : "unreadable: " + path;
}

ClusterOptions PinClusterOptions(const TempDir& dir) {
  ClusterOptions options;
  options.shards = 2;
  options.wal_path = dir.File("cluster.wal");
  options.snapshot_path = dir.File("cluster.snapshot");
  return options;
}

std::string ShardSnapshot(const ClusterOptions& options, size_t shard) {
  return ReadAll(ShardRouting::PathFor(options.snapshot_path, shard));
}

// The open item of `instance` that `user` is offered.
Result<WorkItemId> OfferOf(const WorklistService& worklist, UserId user,
                           InstanceId instance) {
  for (const WorkItem& item : worklist.OffersFor(user)) {
    if (item.instance == instance) return item.id;
  }
  return Status::NotFound("no offer for instance " +
                          std::to_string(instance.value()));
}

// A writer of one element of each data type, a loop around "check", an
// activity offered to clerks, and a tail for the ad-hoc and type changes.
SchemaPtr StandalonePinSchema(RoleId clerk) {
  SchemaBuilder b("snap_pin", 1);
  DataId count = b.Data("count", DataType::kInt);
  DataId flag = b.Data("flag", DataType::kBool);
  DataId amount = b.Data("amount", DataType::kDouble);
  DataId note = b.Data("note", DataType::kString);
  DataId again = b.Data("again", DataType::kBool);
  NodeId writer = b.Activity("writer");
  for (DataId d : {count, flag, amount, note}) b.Writes(writer, d);
  b.Loop(again, [&](SchemaBuilder& s) {
    NodeId check = s.Activity("check");
    s.Writes(check, again);
  });
  b.Activity("review", {.role = clerk});
  b.Activity("spare");
  b.Activity("last");
  auto schema = b.Build();
  return schema.ok() ? *schema : nullptr;
}

// Completes the started "writer" with one value of each data type.
Status CompleteWriter(AdeptSystem& adept, const ProcessSchema& schema,
                      InstanceId id) {
  auto data = [&](const char* name) { return schema.FindDataByName(name); };
  return adept.CompleteActivity(id, schema.FindNodeByName("writer"),
                                {{data("count"), DataValue::Int(7)},
                                 {data("flag"), DataValue::Bool(true)},
                                 {data("amount"), DataValue::Double(2.5)},
                                 {data("note"), DataValue::String("ok")}});
}

// Runs "writer" and then the loop `iterations` + 1 times, which activates
// "review".
Status RunToReview(AdeptSystem& adept, const ProcessSchema& schema,
                   InstanceId id, int iterations) {
  auto node = [&](const char* name) { return schema.FindNodeByName(name); };
  auto data = [&](const char* name) { return schema.FindDataByName(name); };
  ADEPT_RETURN_IF_ERROR(adept.StartActivity(id, node("writer")));
  ADEPT_RETURN_IF_ERROR(CompleteWriter(adept, schema, id));
  for (int i = 0; i <= iterations; ++i) {
    ADEPT_RETURN_IF_ERROR(adept.StartActivity(id, node("check")));
    ADEPT_RETURN_IF_ERROR(adept.CompleteActivity(
        id, node("check"), {{data("again"), DataValue::Bool(i < iterations)}}));
  }
  return Status::OK();
}

// A standalone system with a WAL: a biased instance (a serial insert and a
// delete) with a loop iteration and all four data types, a migrated
// instance, a started claim, an offered item, an evicted-then-imported
// instance and the org. Checkpoints twice, changing some instances in
// between, and returns the second snapshot file.
Result<std::string> RunStandaloneScript(const TempDir& dir) {
  AdeptOptions options;
  options.wal_path = dir.File("pin.wal");
  options.snapshot_path = dir.File("pin.snapshot");
  ADEPT_ASSIGN_OR_RETURN(std::unique_ptr<AdeptSystem> system,
                         AdeptSystem::Create(options));
  AdeptSystem& adept = *system;
  OrgModel& org = adept.org();
  ADEPT_ASSIGN_OR_RETURN(RoleId clerk, org.AddRole("clerk"));
  ADEPT_ASSIGN_OR_RETURN(UserId alice, org.AddUser("alice"));
  ADEPT_ASSIGN_OR_RETURN(UserId bob, org.AddUser("bob"));
  ADEPT_RETURN_IF_ERROR(org.AssignRole(alice, clerk));
  ADEPT_RETURN_IF_ERROR(org.AssignRole(bob, clerk));

  SchemaPtr schema = StandalonePinSchema(clerk);
  if (schema == nullptr) return Status::Internal("pin schema did not build");
  auto node = [&](const char* name) { return schema->FindNodeByName(name); };
  ADEPT_ASSIGN_OR_RETURN(SchemaId v1, adept.DeployProcessType(schema));

  ADEPT_ASSIGN_OR_RETURN(InstanceId biased, adept.CreateInstance("snap_pin"));
  ADEPT_RETURN_IF_ERROR(RunToReview(adept, *schema, biased, 1));
  Delta change;
  NewActivitySpec spec;
  spec.name = "extra";
  change.Add(
      std::make_unique<SerialInsertOp>(spec, node("review"), node("spare")));
  change.Add(std::make_unique<DeleteActivityOp>(node("spare")));
  ADEPT_RETURN_IF_ERROR(adept.ApplyAdHocChange(biased, std::move(change)));

  ADEPT_ASSIGN_OR_RETURN(InstanceId migrated, adept.CreateInstance("snap_pin"));
  ADEPT_RETURN_IF_ERROR(RunToReview(adept, *schema, migrated, 0));
  ADEPT_ASSIGN_OR_RETURN(InstanceId claimed, adept.CreateInstance("snap_pin"));
  ADEPT_RETURN_IF_ERROR(RunToReview(adept, *schema, claimed, 0));
  ADEPT_ASSIGN_OR_RETURN(InstanceId moved, adept.CreateInstance("snap_pin"));
  ADEPT_RETURN_IF_ERROR(adept.StartActivity(moved, node("writer")));

  Delta evolution;
  spec.name = "audit";
  evolution.Add(
      std::make_unique<SerialInsertOp>(spec, node("spare"), node("last")));
  ADEPT_ASSIGN_OR_RETURN(SchemaId v2,
                         adept.EvolveProcessType(v1, std::move(evolution)));
  ADEPT_RETURN_IF_ERROR(adept.Migrate(v1, v2).status());

  WorklistService& worklist = adept.worklists();
  ADEPT_ASSIGN_OR_RETURN(WorkItemId item, OfferOf(worklist, bob, claimed));
  ADEPT_RETURN_IF_ERROR(worklist.Claim(item, bob));
  ADEPT_RETURN_IF_ERROR(worklist.Start(item, bob));

  ADEPT_ASSIGN_OR_RETURN(JsonValue exported, adept.ExportInstance(moved));
  ADEPT_RETURN_IF_ERROR(adept.EvictInstance(moved));
  ADEPT_RETURN_IF_ERROR(adept.ImportInstance(exported));
  ADEPT_RETURN_IF_ERROR(adept.LogOrg(org));
  ADEPT_RETURN_IF_ERROR(adept.SaveSnapshot());

  // The second checkpoint reuses the cached text of the biased and the
  // claimed instance and serializes the other two afresh.
  ADEPT_ASSIGN_OR_RETURN(item, OfferOf(worklist, alice, migrated));
  ADEPT_RETURN_IF_ERROR(worklist.Claim(item, alice));
  ADEPT_RETURN_IF_ERROR(worklist.Start(item, alice));
  ADEPT_RETURN_IF_ERROR(CompleteWriter(adept, *schema, moved));
  ADEPT_RETURN_IF_ERROR(adept.SaveSnapshot());
  return ReadAll(options.snapshot_path);
}

// start -> prepare(clerk) -> execute(packer) -> end
SchemaPtr ClusterPinSchema(RoleId clerk, RoleId packer) {
  SchemaBuilder b("snap_wl", 1);
  b.Activity("prepare", {.role = clerk});
  b.Activity("execute", {.role = packer});
  auto schema = b.Build();
  return schema.ok() ? *schema : nullptr;
}

// A 2-shard cluster: four instances, two per shard, with claims, offered
// items and the org logged into both shards. Checkpoints twice, completing
// a started claim and claiming an unchanged instance in between, and
// returns both shard files of the second checkpoint.
Result<std::vector<std::string>> RunClusterScript(const TempDir& dir) {
  const ClusterOptions options = PinClusterOptions(dir);
  ADEPT_ASSIGN_OR_RETURN(std::unique_ptr<AdeptCluster> cluster,
                         AdeptCluster::Create(options));
  OrgModel& org = cluster->org();
  ADEPT_ASSIGN_OR_RETURN(RoleId clerk, org.AddRole("clerk"));
  ADEPT_ASSIGN_OR_RETURN(RoleId packer, org.AddRole("packer"));
  ADEPT_ASSIGN_OR_RETURN(UserId alice, org.AddUser("alice"));
  ADEPT_ASSIGN_OR_RETURN(UserId bob, org.AddUser("bob"));
  ADEPT_RETURN_IF_ERROR(org.AssignRole(alice, clerk));
  ADEPT_RETURN_IF_ERROR(org.AssignRole(bob, packer));
  SchemaPtr schema = ClusterPinSchema(clerk, packer);
  if (schema == nullptr) return Status::Internal("pin schema did not build");
  ADEPT_RETURN_IF_ERROR(cluster->DeployProcessType(schema).status());
  std::vector<InstanceId> ids;
  for (int i = 0; i < 4; ++i) {
    ADEPT_ASSIGN_OR_RETURN(InstanceId id, cluster->CreateInstance("snap_wl"));
    ids.push_back(id);
  }
  WorklistService& worklist = cluster->Worklist();
  ADEPT_ASSIGN_OR_RETURN(WorkItemId item, OfferOf(worklist, alice, ids[0]));
  ADEPT_RETURN_IF_ERROR(worklist.Claim(item, alice));
  ADEPT_ASSIGN_OR_RETURN(WorkItemId started, OfferOf(worklist, alice, ids[1]));
  ADEPT_RETURN_IF_ERROR(worklist.Claim(started, alice));
  ADEPT_RETURN_IF_ERROR(worklist.Start(started, alice));
  ADEPT_RETURN_IF_ERROR(cluster->SaveSnapshot());

  ADEPT_RETURN_IF_ERROR(worklist.Complete(started, alice));
  ADEPT_ASSIGN_OR_RETURN(item, OfferOf(worklist, alice, ids[2]));
  ADEPT_RETURN_IF_ERROR(worklist.Claim(item, alice));
  ADEPT_RETURN_IF_ERROR(cluster->SaveSnapshot());
  return std::vector<std::string>{ShardSnapshot(options, 0),
                                  ShardSnapshot(options, 1)};
}

// The snapshot files the two scripts leave. Recorded by running the same
// scripts against the library as it was before checkpoints wrote their
// bytes themselves, when SaveSnapshot dumped one JsonValue tree, in a
// separate checkout of that commit. That checkout carried one change: the
// org lists its roles and users in id order, as OrgModel::ToJson now
// does. Without it the files differ only in that order.
const char* const kStandaloneGolden =
    R"pin({"claims":[{"epoch":0,"id":2,"node":5,"user":1},{"epoch":0,"id":)pin"
    R"pin(3,"node":5,"user":2}],"format":1,"instances":[{"base":2,"bias":{)pin"
    R"pin("ops":[{"op":"serialInsert","pins":{"data":[],"edges":[1048576,1)pin"
    R"pin(048577],"nodes":[1048576]},"pred":5,"spec":{"name":"extra"},"suc)pin"
    R"pin(c":6},{"op":"deleteActivity","pins":{"data":[],"edges":[1048578])pin"
    R"pin(,"nodes":[]},"target":6}]},"id":1,"state":{"asince":[{"n":5,"q":)pin"
    R"pin(15}],"data":{"elements":[{"d":0,"versions":[{"q":2,"v":{"t":1,"v)pin"
    R"pin(":7},"w":1}]},{"d":1,"versions":[{"q":3,"v":{"t":0,"v":true},"w")pin"
    R"pin(:1}]},{"d":2,"versions":[{"q":4,"v":{"t":2,"v":2.5},"w":1}]},{"d)pin"
    R"pin(":3,"versions":[{"q":5,"v":{"t":3,"v":"ok"},"w":1}]},{"d":4,"ver)pin"
    R"pin(sions":[{"q":8,"v":{"t":0,"v":true},"w":3},{"q":12,"v":{"t":0,"v)pin"
    R"pin(":false},"w":3}]}]},"loops":[{"c":1,"n":2}],"marking":{"edges":[)pin"
    R"pin({"e":0,"s":1},{"e":1,"s":1},{"e":2,"s":1},{"e":3,"s":1},{"e":5,")pin"
    R"pin(s":1}],"nodes":[{"n":0,"s":3},{"n":1,"s":3},{"n":2,"s":3},{"n":3)pin"
    R"pin(,"s":3},{"n":4,"s":3},{"n":5,"s":1}]},"started":true,"trace":{"e)pin"
    R"pin(vents":[{"k":0,"q":0},{"k":1,"n":1,"q":1},{"d":0,"k":7,"n":1,"q")pin"
    R"pin(:2},{"d":1,"k":7,"n":1,"q":3},{"d":2,"k":7,"n":1,"q":4},{"d":3,")pin"
    R"pin(k":7,"n":1,"q":5},{"k":2,"n":1,"q":6},{"k":1,"n":3,"q":7},{"d":4)pin"
    R"pin(,"k":7,"n":3,"q":8},{"k":2,"n":3,"q":9},{"i":1,"k":6,"n":2,"q":1)pin"
    R"pin(0,"r":[2,3,4]},{"k":1,"n":3,"q":11},{"d":4,"k":7,"n":3,"q":12},{)pin"
    R"pin("k":2,"n":3,"q":13},{"k":9,"q":14,"t":"serialInsert('extra', n5 )pin"
    R"pin(-> n6); deleteActivity(n6)"},{"k":10,"q":15,"t":"to version 2 (b)pin"
    R"pin(ias kept)"}]}},"strategy":0},{"base":2,"id":2,"state":{"asince":)pin"
    R"pin([{"n":5,"q":10}],"data":{"elements":[{"d":0,"versions":[{"q":2,")pin"
    R"pin(v":{"t":1,"v":7},"w":1}]},{"d":1,"versions":[{"q":3,"v":{"t":0,")pin"
    R"pin(v":true},"w":1}]},{"d":2,"versions":[{"q":4,"v":{"t":2,"v":2.5},)pin"
    R"pin("w":1}]},{"d":3,"versions":[{"q":5,"v":{"t":3,"v":"ok"},"w":1}]})pin"
    R"pin(,{"d":4,"versions":[{"q":8,"v":{"t":0,"v":false},"w":3}]}]},"loo)pin"
    R"pin(ps":[],"marking":{"edges":[{"e":0,"s":1},{"e":1,"s":1},{"e":2,"s)pin"
    R"pin(":1},{"e":3,"s":1},{"e":5,"s":1}],"nodes":[{"n":0,"s":3},{"n":1,)pin"
    R"pin("s":3},{"n":2,"s":3},{"n":3,"s":3},{"n":4,"s":3},{"n":5,"s":2}]})pin"
    R"pin(,"started":true,"trace":{"events":[{"k":0,"q":0},{"k":1,"n":1,"q)pin"
    R"pin(":1},{"d":0,"k":7,"n":1,"q":2},{"d":1,"k":7,"n":1,"q":3},{"d":2,)pin"
    R"pin("k":7,"n":1,"q":4},{"d":3,"k":7,"n":1,"q":5},{"k":2,"n":1,"q":6})pin"
    R"pin(,{"k":1,"n":3,"q":7},{"d":4,"k":7,"n":3,"q":8},{"k":2,"n":3,"q":)pin"
    R"pin(9},{"k":10,"q":10,"t":"to version 2"},{"k":1,"n":5,"q":11}]}},"s)pin"
    R"pin(trategy":0},{"base":2,"id":3,"state":{"asince":[{"n":5,"q":10}],)pin"
    R"pin("data":{"elements":[{"d":0,"versions":[{"q":2,"v":{"t":1,"v":7},)pin"
    R"pin("w":1}]},{"d":1,"versions":[{"q":3,"v":{"t":0,"v":true},"w":1}]})pin"
    R"pin(,{"d":2,"versions":[{"q":4,"v":{"t":2,"v":2.5},"w":1}]},{"d":3,")pin"
    R"pin(versions":[{"q":5,"v":{"t":3,"v":"ok"},"w":1}]},{"d":4,"versions)pin"
    R"pin(":[{"q":8,"v":{"t":0,"v":false},"w":3}]}]},"loops":[],"marking":)pin"
    R"pin({"edges":[{"e":0,"s":1},{"e":1,"s":1},{"e":2,"s":1},{"e":3,"s":1)pin"
    R"pin(},{"e":5,"s":1}],"nodes":[{"n":0,"s":3},{"n":1,"s":3},{"n":2,"s")pin"
    R"pin(:3},{"n":3,"s":3},{"n":4,"s":3},{"n":5,"s":2}]},"started":true,")pin"
    R"pin(trace":{"events":[{"k":0,"q":0},{"k":1,"n":1,"q":1},{"d":0,"k":7)pin"
    R"pin(,"n":1,"q":2},{"d":1,"k":7,"n":1,"q":3},{"d":2,"k":7,"n":1,"q":4)pin"
    R"pin(},{"d":3,"k":7,"n":1,"q":5},{"k":2,"n":1,"q":6},{"k":1,"n":3,"q")pin"
    R"pin(:7},{"d":4,"k":7,"n":3,"q":8},{"k":2,"n":3,"q":9},{"k":10,"q":10)pin"
    R"pin(,"t":"to version 2"},{"k":1,"n":5,"q":11}]}},"strategy":0},{"bas)pin"
    R"pin(e":2,"id":4,"state":{"asince":[{"n":3,"q":8}],"data":{"elements")pin"
    R"pin(:[{"d":0,"versions":[{"q":3,"v":{"t":1,"v":7},"w":1}]},{"d":1,"v)pin"
    R"pin(ersions":[{"q":4,"v":{"t":0,"v":true},"w":1}]},{"d":2,"versions")pin"
    R"pin(:[{"q":5,"v":{"t":2,"v":2.5},"w":1}]},{"d":3,"versions":[{"q":6,)pin"
    R"pin("v":{"t":3,"v":"ok"},"w":1}]}]},"loops":[],"marking":{"edges":[{)pin"
    R"pin("e":0,"s":1},{"e":1,"s":1},{"e":2,"s":1}],"nodes":[{"n":0,"s":3})pin"
    R"pin(,{"n":1,"s":3},{"n":2,"s":3},{"n":3,"s":1}]},"started":true,"tra)pin"
    R"pin(ce":{"events":[{"k":0,"q":0},{"k":1,"n":1,"q":1},{"k":10,"q":2,")pin"
    R"pin(t":"to version 2"},{"d":0,"k":7,"n":1,"q":3},{"d":1,"k":7,"n":1,)pin"
    R"pin("q":4},{"d":2,"k":7,"n":1,"q":5},{"d":3,"k":7,"n":1,"q":6},{"k":)pin"
    R"pin(2,"n":1,"q":7}]}},"strategy":0}],"org":{"next_role":2,"next_user)pin"
    R"pin(":3,"roles":[{"id":1,"name":"clerk"}],"users":[{"id":1,"name":"a)pin"
    R"pin(lice","roles":[1]},{"id":2,"name":"bob","roles":[1]}]},"repo":{")pin"
    R"pin(entries":[{"id":1,"schema":{"data":[{"id":0,"name":"count","type)pin"
    R"pin(":1},{"id":1,"name":"flag","type":0},{"id":2,"name":"amount","ty)pin"
    R"pin(pe":2},{"id":3,"name":"note","type":3},{"id":4,"name":"again","t)pin"
    R"pin(ype":0}],"data_edges":[{"data":0,"mode":1,"node":1},{"data":1,"m)pin"
    R"pin(ode":1,"node":1},{"data":2,"mode":1,"node":1},{"data":3,"mode":1)pin"
    R"pin(,"node":1},{"data":4,"mode":1,"node":3}],"edges":[{"dst":1,"id":)pin"
    R"pin(0,"src":0,"type":0},{"dst":2,"id":1,"src":1,"type":0},{"dst":3,")pin"
    R"pin(id":2,"src":2,"type":0},{"dst":4,"id":3,"src":3,"type":0},{"dst")pin"
    R"pin(:2,"id":4,"src":4,"type":2},{"dst":5,"id":5,"src":4,"type":0},{")pin"
    R"pin(dst":6,"id":6,"src":5,"type":0},{"dst":7,"id":7,"src":6,"type":0)pin"
    R"pin(},{"dst":8,"id":8,"src":7,"type":0}],"format":1,"next_data_id":5)pin"
    R"pin(,"next_edge_id":9,"next_node_id":9,"nodes":[{"id":0,"name":"star)pin"
    R"pin(t","type":0},{"id":1,"name":"writer","type":2},{"id":2,"name":"l)pin"
    R"pin(oop_start","type":7},{"id":3,"name":"check","type":2},{"id":4,"l)pin"
    R"pin(oop_data":4,"name":"loop_end","type":8},{"id":5,"name":"review",)pin"
    R"pin("role":1,"type":2},{"id":6,"name":"spare","type":2},{"id":7,"nam)pin"
    R"pin(e":"last","type":2},{"id":8,"name":"end","type":1}],"type_name":)pin"
    R"pin("snap_pin","version":1}},{"delta":{"ops":[{"op":"serialInsert",")pin"
    R"pin(pins":{"data":[],"edges":[9,10],"nodes":[9]},"pred":6,"spec":{"n)pin"
    R"pin(ame":"audit"},"succ":7}]},"id":2,"parent":1,"schema":{"data":[{")pin"
    R"pin(id":0,"name":"count","type":1},{"id":1,"name":"flag","type":0},{)pin"
    R"pin("id":2,"name":"amount","type":2},{"id":3,"name":"note","type":3})pin"
    R"pin(,{"id":4,"name":"again","type":0}],"data_edges":[{"data":0,"mode)pin"
    R"pin(":1,"node":1},{"data":1,"mode":1,"node":1},{"data":2,"mode":1,"n)pin"
    R"pin(ode":1},{"data":3,"mode":1,"node":1},{"data":4,"mode":1,"node":3)pin"
    R"pin(}],"edges":[{"dst":1,"id":0,"src":0,"type":0},{"dst":2,"id":1,"s)pin"
    R"pin(rc":1,"type":0},{"dst":3,"id":2,"src":2,"type":0},{"dst":4,"id":)pin"
    R"pin(3,"src":3,"type":0},{"dst":2,"id":4,"src":4,"type":2},{"dst":5,")pin"
    R"pin(id":5,"src":4,"type":0},{"dst":6,"id":6,"src":5,"type":0},{"dst")pin"
    R"pin(:8,"id":8,"src":7,"type":0},{"dst":9,"id":9,"src":6,"type":0},{")pin"
    R"pin(dst":7,"id":10,"src":9,"type":0}],"format":1,"next_data_id":5,"n)pin"
    R"pin(ext_edge_id":11,"next_node_id":10,"nodes":[{"id":0,"name":"start)pin"
    R"pin(","type":0},{"id":1,"name":"writer","type":2},{"id":2,"name":"lo)pin"
    R"pin(op_start","type":7},{"id":3,"name":"check","type":2},{"id":4,"lo)pin"
    R"pin(op_data":4,"name":"loop_end","type":8},{"id":5,"name":"review",")pin"
    R"pin(role":1,"type":2},{"id":6,"name":"spare","type":2},{"id":7,"name)pin"
    R"pin(":"last","type":2},{"id":8,"name":"end","type":1},{"id":9,"name")pin"
    R"pin(:"audit","type":2}],"type_name":"snap_pin","version":2}}],"next_)pin"
    R"pin(id":3},"wal_lsn":31})pin";
const char* const kClusterGoldens[] = {
    R"pin({"claims":[{"epoch":0,"id":1,"node":1,"user":1},{"epoch":0,"id":)pin"
    R"pin(3,"node":1,"user":1}],"format":1,"instances":[{"base":1,"id":1,")pin"
    R"pin(state":{"asince":[{"n":1,"q":1}],"data":{"elements":[]},"loops":)pin"
    R"pin([],"marking":{"edges":[{"e":0,"s":1}],"nodes":[{"n":0,"s":3},{"n)pin"
    R"pin(":1,"s":1}]},"started":true,"trace":{"events":[{"k":0,"q":0}]}},)pin"
    R"pin("strategy":0},{"base":1,"id":3,"state":{"asince":[{"n":1,"q":1}])pin"
    R"pin(,"data":{"elements":[]},"loops":[],"marking":{"edges":[{"e":0,"s)pin"
    R"pin(":1}],"nodes":[{"n":0,"s":3},{"n":1,"s":1}]},"started":true,"tra)pin"
    R"pin(ce":{"events":[{"k":0,"q":0}]}},"strategy":0}],"org":{"next_role)pin"
    R"pin(":3,"next_user":3,"roles":[{"id":1,"name":"clerk"},{"id":2,"name)pin"
    R"pin(":"packer"}],"users":[{"id":1,"name":"alice","roles":[1]},{"id":)pin"
    R"pin(2,"name":"bob","roles":[2]}]},"repo":{"entries":[{"id":1,"schema)pin"
    R"pin(":{"data":[],"data_edges":[],"edges":[{"dst":1,"id":0,"src":0,"t)pin"
    R"pin(ype":0},{"dst":2,"id":1,"src":1,"type":0},{"dst":3,"id":2,"src":)pin"
    R"pin(2,"type":0}],"format":1,"next_data_id":0,"next_edge_id":3,"next_)pin"
    R"pin(node_id":4,"nodes":[{"id":0,"name":"start","type":0},{"id":1,"na)pin"
    R"pin(me":"prepare","role":1,"type":2},{"id":2,"name":"execute","role")pin"
    R"pin(:2,"type":2},{"id":3,"name":"end","type":1}],"type_name":"snap_w)pin"
    R"pin(l","version":1}}],"next_id":2},"wal_lsn":7})pin",
    R"pin({"claims":[],"format":1,"instances":[{"base":1,"id":2,"state":{")pin"
    R"pin(asince":[{"n":2,"q":3}],"data":{"elements":[]},"loops":[],"marki)pin"
    R"pin(ng":{"edges":[{"e":0,"s":1},{"e":1,"s":1}],"nodes":[{"n":0,"s":3)pin"
    R"pin(},{"n":1,"s":3},{"n":2,"s":1}]},"started":true,"trace":{"events")pin"
    R"pin(:[{"k":0,"q":0},{"k":1,"n":1,"q":1},{"k":2,"n":1,"q":2}]}},"stra)pin"
    R"pin(tegy":0},{"base":1,"id":4,"state":{"asince":[{"n":1,"q":1}],"dat)pin"
    R"pin(a":{"elements":[]},"loops":[],"marking":{"edges":[{"e":0,"s":1}])pin"
    R"pin(,"nodes":[{"n":0,"s":3},{"n":1,"s":1}]},"started":true,"trace":{)pin"
    R"pin("events":[{"k":0,"q":0}]}},"strategy":0}],"org":{"next_role":3,")pin"
    R"pin(next_user":3,"roles":[{"id":1,"name":"clerk"},{"id":2,"name":"pa)pin"
    R"pin(cker"}],"users":[{"id":1,"name":"alice","roles":[1]},{"id":2,"na)pin"
    R"pin(me":"bob","roles":[2]}]},"repo":{"entries":[{"id":1,"schema":{"d)pin"
    R"pin(ata":[],"data_edges":[],"edges":[{"dst":1,"id":0,"src":0,"type":)pin"
    R"pin(0},{"dst":2,"id":1,"src":1,"type":0},{"dst":3,"id":2,"src":2,"ty)pin"
    R"pin(pe":0}],"format":1,"next_data_id":0,"next_edge_id":3,"next_node_)pin"
    R"pin(id":4,"nodes":[{"id":0,"name":"start","type":0},{"id":1,"name":")pin"
    R"pin(prepare","role":1,"type":2},{"id":2,"name":"execute","role":2,"t)pin"
    R"pin(ype":2},{"id":3,"name":"end","type":1}],"type_name":"snap_wl","v)pin"
    R"pin(ersion":1}}],"next_id":2},"wal_lsn":8})pin",
};

TEST(SnapshotPinTest, StandaloneSnapshotKeepsItsBytes) {
  TempDir dir;
  auto file = RunStandaloneScript(dir);
  ASSERT_TRUE(file.ok()) << file.status();
  EXPECT_EQ(*file, kStandaloneGolden);
}

TEST(SnapshotPinTest, ClusterShardSnapshotsKeepTheirBytes) {
  TempDir dir;
  auto files = RunClusterScript(dir);
  ASSERT_TRUE(files.ok()) << files.status();
  for (size_t k = 0; k < 2; ++k) {
    EXPECT_EQ((*files)[k], kClusterGoldens[k]) << "shard " << k;
  }
}

std::vector<uint64_t> Serializations(AdeptCluster& cluster) {
  std::vector<uint64_t> counts;
  for (size_t k = 0; k < cluster.shard_count(); ++k) {
    counts.push_back(cluster.shard(k).full_state_serializations());
  }
  return counts;
}

// What each shard serialized afresh since `before`.
std::vector<uint64_t> SerializedSince(AdeptCluster& cluster,
                                      const std::vector<uint64_t>& before) {
  std::vector<uint64_t> counts = Serializations(cluster);
  for (size_t k = 0; k < counts.size(); ++k) counts[k] -= before[k];
  return counts;
}

size_t WalFrames(const ClusterOptions& options, size_t shard) {
  auto tail = WriteAheadLog::ReadTail(
      ShardRouting::PathFor(options.wal_path, shard), 0);
  return tail.ok() ? tail->frames.size() : 0;
}

// CheckpointSkipsUnchangedInstances (core_test) on a cluster: a cluster
// checkpoint serializes on each shard only the instances changed there,
// and leaves every shard's WAL empty.
TEST(CheckpointCacheTest, ClusterCheckpointSerializesOnlyChangedInstances) {
  TempDir dir;
  const ClusterOptions options = PinClusterOptions(dir);
  auto created = AdeptCluster::Create(options);
  ASSERT_TRUE(created.ok()) << created.status();
  AdeptCluster& cluster = **created;
  auto schema = testing_fixtures::SequenceSchema(3, "chk");
  ASSERT_TRUE(cluster.DeployProcessType(schema).ok());
  std::vector<InstanceId> ids;
  for (int i = 0; i < 6; ++i) {
    auto id = cluster.CreateInstance("chk");
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(*id);
  }

  std::vector<uint64_t> before = Serializations(cluster);
  ASSERT_TRUE(cluster.SaveSnapshot().ok());
  EXPECT_EQ(SerializedSince(cluster, before), (std::vector<uint64_t>{3, 3}))
      << "the first checkpoint serializes every instance";
  for (size_t k = 0; k < 2; ++k) EXPECT_EQ(WalFrames(options, k), 0u);

  before = Serializations(cluster);
  ASSERT_TRUE(cluster.SaveSnapshot().ok());
  EXPECT_EQ(SerializedSince(cluster, before), (std::vector<uint64_t>{0, 0}))
      << "a checkpoint with no change in between reuses every text";

  // Ids alternate between the shards: one change on shard 0, two on 1.
  const NodeId a1 = schema->FindNodeByName("a1");
  for (size_t i : {0, 1, 3}) {
    ASSERT_EQ(cluster.ShardOf(ids[i]), i % 2);
    ASSERT_TRUE(cluster.StartActivity(ids[i], a1).ok());
  }
  before = Serializations(cluster);
  ASSERT_TRUE(cluster.SaveSnapshot().ok());
  EXPECT_EQ(SerializedSince(cluster, before), (std::vector<uint64_t>{1, 2}))
      << "each shard serializes only its changed instances";
  for (size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(WalFrames(options, k), 0u) << "shard " << k;
  }
}

// start -> intake -> prepare(clerk) -> treat -> execute(packer) -> close
SchemaPtr WarmSchema(RoleId clerk, RoleId packer) {
  SchemaBuilder b("warm", 1);
  b.Activity("intake");
  b.Activity("prepare", {.role = clerk});
  b.Activity("treat");
  b.Activity("execute", {.role = packer});
  b.Activity("close");
  auto schema = b.Build();
  return schema.ok() ? *schema : nullptr;
}

// Seeded random creates, steps, ad-hoc changes, claims and type changes
// with migration, with a checkpoint every 25 ops and a few steps after the
// last, leave a warm cluster whose next checkpoint is mostly cached text.
// A cold twin recovered from copies of its files (snapshots and WAL tails)
// serializes every instance afresh. Both checkpoints must write the same
// bytes.
TEST(CheckpointCacheTest, WarmCheckpointEqualsCold) {
  TempDir dir;
  const ClusterOptions options = PinClusterOptions(dir);
  auto created = AdeptCluster::Create(options);
  ASSERT_TRUE(created.ok()) << created.status();
  AdeptCluster& cluster = **created;
  OrgModel& org = cluster.org();
  const RoleId clerk = *org.AddRole("clerk");
  const RoleId packer = *org.AddRole("packer");
  const UserId users[] = {*org.AddUser("alice"), *org.AddUser("bob")};
  ASSERT_TRUE(org.AssignRole(users[0], clerk).ok());
  ASSERT_TRUE(org.AssignRole(users[1], packer).ok());
  SchemaPtr schema = WarmSchema(clerk, packer);
  ASSERT_NE(schema, nullptr);
  auto deployed = cluster.DeployProcessType(schema);
  ASSERT_TRUE(deployed.ok()) << deployed.status();
  SchemaId latest = *deployed;
  const char* const anchors[] = {"intake", "prepare", "treat", "execute",
                                 "close"};
  const NodeId end = schema->end_node();
  WorklistService& worklist = cluster.Worklist();

  Rng rng(29);
  std::vector<InstanceId> ids;
  int evolutions = 0;
  for (int op = 1; op <= 400; ++op) {
    const uint64_t roll = rng.NextBelow(100);
    if (ids.empty() || roll < 20) {
      auto id = cluster.CreateInstance("warm");
      ASSERT_TRUE(id.ok()) << id.status();
      ids.push_back(*id);
    } else if (roll < 55) {
      const InstanceId id = ids[rng.NextIndex(ids.size())];
      (void)cluster.Apply(InstanceOp::DriveStep(id));
    } else if (roll < 70) {
      // Inserts fail where the instance already passed the anchor, or an
      // earlier insert took its edge; a refused change changes nothing.
      const size_t at = rng.NextIndex(4);
      Delta change;
      NewActivitySpec spec;
      spec.name = "adhoc" + std::to_string(op);
      change.Add(std::make_unique<SerialInsertOp>(
          spec, schema->FindNodeByName(anchors[at]),
          schema->FindNodeByName(anchors[at + 1])));
      (void)cluster.ApplyAdHocChange(ids[rng.NextIndex(ids.size())],
                                     std::move(change));
    } else if (roll < 97) {
      const UserId user = users[rng.NextIndex(2)];
      std::vector<WorkItem> offers = worklist.OffersFor(user);
      if (offers.empty()) continue;
      const WorkItemId item = offers[rng.NextIndex(offers.size())].id;
      if (!worklist.Claim(item, user).ok()) continue;
      if (rng.NextBool()) (void)worklist.Start(item, user);
    } else {
      // A type change before the end node, then a migration of every
      // instance to it.
      auto current = cluster.Schema(latest);
      ASSERT_TRUE(current.ok()) << current.status();
      Delta evolution;
      NewActivitySpec spec;
      spec.name = "v" + std::to_string(++evolutions);
      evolution.Add(std::make_unique<SerialInsertOp>(
          spec, (*current)->Predecessors(end, EdgeType::kControl)[0], end));
      auto evolved = cluster.EvolveProcessType(latest, std::move(evolution));
      ASSERT_TRUE(evolved.ok()) << evolved.status();
      latest = *evolved;
      ASSERT_TRUE(cluster.MigrateToLatest("warm").ok());
    }
    if (op % 25 == 0) {
      ASSERT_TRUE(cluster.SaveSnapshot().ok());
    }
  }
  ASSERT_GT(evolutions, 0);
  // A WAL tail after the last checkpoint: the twin replays it, and the warm
  // checkpoint mixes fresh texts into the cached ones.
  for (int i = 0; i < 6; ++i) {
    const InstanceId id = ids[rng.NextIndex(ids.size())];
    (void)cluster.Apply(InstanceOp::DriveStep(id));
  }

  // The twin: copies of both shards' files, recovered cold.
  TempDir twin_dir;
  const ClusterOptions twin_options = PinClusterOptions(twin_dir);
  for (size_t k = 0; k < 2; ++k) {
    for (const auto& [from, to] :
         {std::make_pair(options.wal_path, twin_options.wal_path),
          std::make_pair(options.snapshot_path, twin_options.snapshot_path)}) {
      std::filesystem::copy_file(ShardRouting::PathFor(from, k),
                                 ShardRouting::PathFor(to, k));
    }
  }
  auto twin = AdeptCluster::Recover(twin_options);
  ASSERT_TRUE(twin.ok()) << twin.status();

  const std::vector<uint64_t> warm_before = Serializations(cluster);
  const std::vector<uint64_t> cold_before = Serializations(**twin);
  ASSERT_TRUE(cluster.SaveSnapshot().ok());
  ASSERT_TRUE((*twin)->SaveSnapshot().ok());
  const std::vector<uint64_t> warm = SerializedSince(cluster, warm_before);
  const std::vector<uint64_t> cold = SerializedSince(**twin, cold_before);
  for (size_t k = 0; k < 2; ++k) {
    EXPECT_LT(warm[k], cold[k] / 2)
        << "shard " << k << ": the warm checkpoint should be mostly cached";
    EXPECT_EQ(cold[k], cluster.shard(k).engine().InstanceIds().size());
    const std::string warm_file = ShardSnapshot(options, k);
    EXPECT_EQ(warm_file, ShardSnapshot(twin_options, k)) << "shard " << k;
    EXPECT_GT(warm_file.size(), 10000u) << "shard " << k;
  }
}

}  // namespace
}  // namespace adept
