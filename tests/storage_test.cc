#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "change/change_op.h"
#include "change/delta.h"
#include "common/rng.h"
#include "model/serialization.h"
#include "storage/instance_store.h"
#include "storage/overlay_schema.h"
#include "storage/schema_repository.h"
#include "storage/state_serialization.h"
#include "storage/substitution_block.h"
#include "storage/wal.h"
#include "storage/wal_writer.h"
#include "runtime/driver.h"
#include "tests/test_fixtures.h"

namespace adept {
namespace {

using testing_fixtures::ComplexSchema;
using testing_fixtures::OnlineOrderV1;
using testing_fixtures::SequenceSchema;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

Delta OneSerialInsert(const ProcessSchema& base, const std::string& name,
                      const std::string& pred, const std::string& succ) {
  Delta delta;
  NewActivitySpec spec;
  spec.name = name;
  delta.Add(std::make_unique<SerialInsertOp>(spec, base.FindNodeByName(pred),
                                             base.FindNodeByName(succ)));
  return delta;
}

// The block the merge computes holds what looking every entity up in the
// other schema finds: added or changed entities of `biased` (in full) and
// ids only `base` has.
void ExpectBlockMatchesLookupDiff(const ProcessSchema& base,
                                  const ProcessSchema& biased,
                                  const SubstitutionBlock& block) {
  size_t nodes = 0, edges = 0, data = 0;
  biased.VisitNodes([&](const Node& n) {
    const Node* b = base.FindNode(n.id);
    auto it = block.nodes.find(n.id);
    if (b == nullptr || !(*b == n)) {
      ++nodes;
      ASSERT_NE(it, block.nodes.end()) << "node " << n.id;
      EXPECT_EQ(it->second, n);
    } else {
      EXPECT_EQ(it, block.nodes.end()) << "node " << n.id;
    }
  });
  biased.VisitEdges([&](const Edge& e) {
    const Edge* b = base.FindEdge(e.id);
    auto it = block.edges.find(e.id);
    if (b == nullptr || !(*b == e)) {
      ++edges;
      ASSERT_NE(it, block.edges.end()) << "edge " << e.id;
      EXPECT_EQ(it->second, e);
    } else {
      EXPECT_EQ(it, block.edges.end()) << "edge " << e.id;
    }
  });
  biased.VisitData([&](const DataElement& d) {
    const DataElement* b = base.FindData(d.id);
    if (b == nullptr || !(*b == d)) {
      ++data;
      EXPECT_EQ(block.data.count(d.id), 1u) << "data " << d.id;
    }
  });
  EXPECT_EQ(block.nodes.size(), nodes);
  EXPECT_EQ(block.edges.size(), edges);
  EXPECT_EQ(block.data.size(), data);
  size_t removed_nodes = 0, removed_edges = 0, removed_data = 0;
  base.VisitNodes([&](const Node& n) {
    bool gone = biased.FindNode(n.id) == nullptr;
    removed_nodes += gone ? 1 : 0;
    EXPECT_EQ(block.removed_nodes.count(n.id), gone ? 1u : 0u);
  });
  base.VisitEdges([&](const Edge& e) {
    bool gone = biased.FindEdge(e.id) == nullptr;
    removed_edges += gone ? 1 : 0;
    EXPECT_EQ(block.removed_edges.count(e.id), gone ? 1u : 0u);
  });
  base.VisitData([&](const DataElement& d) {
    bool gone = biased.FindData(d.id) == nullptr;
    removed_data += gone ? 1 : 0;
    EXPECT_EQ(block.removed_data.count(d.id), gone ? 1u : 0u);
  });
  EXPECT_EQ(block.removed_nodes.size(), removed_nodes);
  EXPECT_EQ(block.removed_edges.size(), removed_edges);
  EXPECT_EQ(block.removed_data.size(), removed_data);
}

TEST(SubstitutionBlockTest, DiffCapturesInsert) {
  auto base = OnlineOrderV1();
  Delta delta = OneSerialInsert(*base, "extra", "get order", "collect data");
  BiasIdAllocator alloc;
  auto biased = delta.ApplyToSchema(*base, base->version(), &alloc);
  ASSERT_TRUE(biased.ok()) << biased.status();

  SubstitutionBlock block = ComputeSubstitutionBlock(*base, **biased);
  EXPECT_EQ(block.nodes.size(), 1u);   // the new activity
  EXPECT_EQ(block.edges.size(), 2u);   // two new control edges
  EXPECT_EQ(block.removed_edges.size(), 1u);
  EXPECT_TRUE(block.removed_nodes.empty());
  EXPECT_FALSE(block.empty());
}

TEST(SubstitutionBlockTest, DiffCapturesDelete) {
  auto base = SequenceSchema(3);
  Delta delta;
  delta.Add(std::make_unique<DeleteActivityOp>(base->FindNodeByName("a2")));
  BiasIdAllocator alloc;
  auto biased = delta.ApplyToSchema(*base, base->version(), &alloc);
  ASSERT_TRUE(biased.ok());

  SubstitutionBlock block = ComputeSubstitutionBlock(*base, **biased);
  EXPECT_EQ(block.removed_nodes.size(), 1u);
  EXPECT_EQ(block.removed_edges.size(), 2u);
  EXPECT_EQ(block.edges.size(), 1u);  // the bridge edge
  EXPECT_TRUE(block.nodes.empty());
}

TEST(SubstitutionBlockTest, EmptyDiffForIdenticalSchemas) {
  auto base = OnlineOrderV1();
  auto clone = base->Clone();
  ASSERT_TRUE(clone->Freeze().ok());
  SubstitutionBlock block = ComputeSubstitutionBlock(*base, *clone);
  EXPECT_TRUE(block.empty());
}

// Property: overlay(base, diff(base, biased)) is observably identical to
// the biased schema, across randomized deltas on a non-trivial base.
TEST(OverlayTest, OverlayEquivalentToMaterialized) {
  auto base = ComplexSchema();
  ASSERT_NE(base, nullptr);
  Rng rng(2024);

  for (int round = 0; round < 30; ++round) {
    // Random delta: insert into a random control edge, delete a random
    // activity, or both; sometimes also replace an activity's template.
    Delta delta;
    std::vector<const Edge*> control_edges;
    std::vector<NodeId> activities;
    base->VisitEdges([&](const Edge& e) {
      if (e.type == EdgeType::kControl) {
        control_edges.push_back(base->FindEdge(e.id));
      }
    });
    base->VisitNodes([&](const Node& n) {
      if (n.type == NodeType::kActivity) activities.push_back(n.id);
    });
    int which = static_cast<int>(rng.NextBelow(3));
    if (which == 0 || which == 2) {
      const Edge* e = control_edges[rng.NextIndex(control_edges.size())];
      NewActivitySpec spec;
      spec.name = "rnd" + std::to_string(round);
      delta.Add(std::make_unique<SerialInsertOp>(spec, e->src, e->dst));
    }
    if (which == 1 || which == 2) {
      delta.Add(std::make_unique<DeleteActivityOp>(
          activities[rng.NextIndex(activities.size())]));
    }
    // Half the deltas also change a base node in place, which the block
    // must carry as a replacement under the same id.
    if (rng.NextBool()) {
      delta.Add(std::make_unique<ReplaceActivityImplOp>(
          activities[rng.NextIndex(activities.size())],
          "impl" + std::to_string(round)));
    }

    BiasIdAllocator alloc;
    auto biased = delta.ApplyRaw(*base, base->version(), &alloc);
    if (!biased.ok()) continue;  // structurally inapplicable; fine

    auto block = std::make_shared<const SubstitutionBlock>(
        ComputeSubstitutionBlock(*base, **biased));
    ExpectBlockMatchesLookupDiff(*base, **biased, *block);
    OverlaySchema overlay(base, block);

    // Counts agree, and the counts the block carries are what walking
    // the overlay finds.
    ASSERT_EQ(overlay.node_count(), (*biased)->node_count());
    ASSERT_EQ(overlay.edge_count(), (*biased)->edge_count());
    ASSERT_EQ(overlay.data_count(), (*biased)->data_count());
    size_t nodes = 0, edges = 0, data = 0;
    overlay.VisitNodes([&](const Node&) { ++nodes; });
    overlay.VisitEdges([&](const Edge&) { ++edges; });
    overlay.VisitData([&](const DataElement&) { ++data; });
    EXPECT_EQ(overlay.node_count(), nodes);
    EXPECT_EQ(overlay.edge_count(), edges);
    EXPECT_EQ(overlay.data_count(), data);

    // Entity-by-entity agreement, both directions.
    (*biased)->VisitNodes([&](const Node& n) {
      const Node* o = overlay.FindNode(n.id);
      ASSERT_NE(o, nullptr);
      EXPECT_EQ(*o, n);
    });
    overlay.VisitNodes([&](const Node& n) {
      ASSERT_NE((*biased)->FindNode(n.id), nullptr);
    });
    (*biased)->VisitEdges([&](const Edge& e) {
      const Edge* o = overlay.FindEdge(e.id);
      ASSERT_NE(o, nullptr);
      EXPECT_EQ(*o, e);
    });

    // Adjacency agreement per node.
    (*biased)->VisitNodes([&](const Node& n) {
      auto expect_succ = (*biased)->Successors(n.id, EdgeType::kControl);
      auto got_succ = overlay.Successors(n.id, EdgeType::kControl);
      EXPECT_EQ(got_succ, expect_succ);
      auto expect_pred = (*biased)->Predecessors(n.id, EdgeType::kControl);
      auto got_pred = overlay.Predecessors(n.id, EdgeType::kControl);
      EXPECT_EQ(got_pred, expect_pred);
    });

    // Materialization reproduces the biased schema byte for byte.
    auto materialized = overlay.Materialize();
    ASSERT_TRUE(materialized.ok()) << materialized.status();
    EXPECT_EQ(SchemaToJson(**materialized).Dump(),
              SchemaToJson(**biased).Dump());
  }
}

TEST(OverlayTest, FootprintFarBelowFullCopy) {
  auto base = OnlineOrderV1();
  Delta delta = OneSerialInsert(*base, "x", "get order", "collect data");
  BiasIdAllocator alloc;
  auto biased = delta.ApplyToSchema(*base, base->version(), &alloc);
  ASSERT_TRUE(biased.ok());
  auto block = std::make_shared<const SubstitutionBlock>(
      ComputeSubstitutionBlock(*base, **biased));
  OverlaySchema overlay(base, block);
  EXPECT_LT(overlay.MemoryFootprint(), (*biased)->MemoryFootprint());
}

TEST(SchemaRepositoryTest, DeployAndDerive) {
  SchemaRepository repo;
  auto v1 = OnlineOrderV1();
  auto id1 = repo.Deploy(v1);
  ASSERT_TRUE(id1.ok()) << id1.status();

  Delta delta =
      OneSerialInsert(*v1, "check stock", "get order", "collect data");
  auto id2 = repo.DeriveVersion(*id1, std::move(delta));
  ASSERT_TRUE(id2.ok()) << id2.status();

  auto v2 = repo.Get(*id2);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ((*v2)->version(), 2);
  EXPECT_TRUE((*v2)->FindNodeByName("check stock").valid());

  auto latest = repo.Latest("online_order");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, *id2);
  auto parent = repo.ParentOf(*id2);
  ASSERT_TRUE(parent.ok());
  EXPECT_EQ(*parent, *id1);
  auto delta_back = repo.DeltaFor(*id2);
  ASSERT_TRUE(delta_back.ok());
  EXPECT_EQ((*delta_back)->size(), 1u);
  EXPECT_EQ(repo.VersionsOf("online_order").size(), 2u);
}

TEST(SchemaRepositoryTest, RejectsDuplicateDeployAndStaleDerive) {
  SchemaRepository repo;
  auto v1 = OnlineOrderV1();
  auto id1 = repo.Deploy(v1);
  ASSERT_TRUE(id1.ok());
  EXPECT_EQ(repo.Deploy(OnlineOrderV1()).status().code(),
            StatusCode::kAlreadyExists);

  Delta d1 = OneSerialInsert(*v1, "s1", "get order", "collect data");
  auto id2 = repo.DeriveVersion(*id1, std::move(d1));
  ASSERT_TRUE(id2.ok());

  // Deriving from the outdated version is rejected.
  Delta d2 = OneSerialInsert(*v1, "s2", "pack goods", "deliver goods");
  EXPECT_EQ(repo.DeriveVersion(*id1, std::move(d2)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SchemaRepositoryTest, RejectsUnverifiableDerivation) {
  SchemaRepository repo;
  auto v1 = OnlineOrderV1();
  auto id1 = repo.Deploy(v1);
  ASSERT_TRUE(id1.ok());
  Delta bad;
  bad.Add(std::make_unique<InsertSyncEdgeOp>(
      v1->FindNodeByName("get order"), v1->FindNodeByName("collect data")));
  EXPECT_EQ(repo.DeriveVersion(*id1, std::move(bad)).status().code(),
            StatusCode::kVerificationFailed);
}

TEST(SchemaRepositoryTest, JsonRoundTrip) {
  SchemaRepository repo;
  auto v1 = OnlineOrderV1();
  auto id1 = repo.Deploy(v1);
  ASSERT_TRUE(id1.ok());
  Delta delta = OneSerialInsert(*v1, "x", "get order", "collect data");
  auto id2 = repo.DeriveVersion(*id1, std::move(delta));
  ASSERT_TRUE(id2.ok());

  SchemaRepository restored;
  ASSERT_TRUE(restored.LoadFromJson(repo.ToJson()).ok());
  EXPECT_EQ(restored.size(), repo.size());
  auto v2 = restored.Get(*id2);
  ASSERT_TRUE(v2.ok());
  EXPECT_TRUE((*v2)->FindNodeByName("x").valid());
  // Deltas survive with pins intact.
  auto d = restored.DeltaFor(*id2);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ((*d)->size(), 1u);
}

class InstanceStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    v1_ = OnlineOrderV1();
    auto id = repo_.Deploy(v1_);
    ASSERT_TRUE(id.ok());
    v1_id_ = *id;
  }

  SchemaRepository repo_;
  std::shared_ptr<const ProcessSchema> v1_;
  SchemaId v1_id_;
};

TEST_F(InstanceStoreTest, UnbiasedSharesBaseSchema) {
  InstanceStore store(&repo_);
  ASSERT_TRUE(store.Register(InstanceId(1), v1_id_).ok());
  auto view = store.ExecutionSchema(InstanceId(1));
  ASSERT_TRUE(view.ok());
  // Same underlying object: redundant-free storage.
  EXPECT_EQ(view->get(), static_cast<const SchemaView*>(v1_.get()));
  EXPECT_FALSE(store.IsBiased(InstanceId(1)));
}

TEST_F(InstanceStoreTest, AddBiasPerStrategy) {
  for (StorageStrategy strategy :
       {StorageStrategy::kOverlay, StorageStrategy::kFullCopy,
        StorageStrategy::kMaterializeOnDemand}) {
    InstanceStore store(&repo_);
    InstanceId id(42);
    ASSERT_TRUE(store.Register(id, v1_id_, strategy).ok());
    Delta delta = OneSerialInsert(*v1_, "adhoc", "get order", "collect data");
    auto view = store.AddBias(id, std::move(delta));
    ASSERT_TRUE(view.ok()) << StorageStrategyToString(strategy) << ": "
                           << view.status();
    EXPECT_TRUE(store.IsBiased(id));
    EXPECT_TRUE((*view)->FindNodeByName("adhoc").valid());
    EXPECT_EQ((*view)->node_count(), v1_->node_count() + 1);

    auto again = store.ExecutionSchema(id);
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE((*again)->FindNodeByName("adhoc").valid());
  }
}

TEST_F(InstanceStoreTest, IncrementalBiasAccumulates) {
  InstanceStore store(&repo_);
  InstanceId id(7);
  ASSERT_TRUE(store.Register(id, v1_id_).ok());
  ASSERT_TRUE(store
                  .AddBias(id, OneSerialInsert(*v1_, "first", "get order",
                                               "collect data"))
                  .ok());
  auto view = store.AddBias(
      id, OneSerialInsert(*v1_, "second", "pack goods", "deliver goods"));
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_TRUE((*view)->FindNodeByName("first").valid());
  EXPECT_TRUE((*view)->FindNodeByName("second").valid());
  auto record = store.Get(id);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ((*record)->bias.size(), 2u);
}

// What the migration's structural probe hands to InstanceStore::Rebase:
// the record's bias re-applied over `to` with its pinned ids, verified
// incrementally from `to`'s cached analysis.
struct RebasedBias {
  Delta bias;
  Delta::VerifiedSchema verified;
};

Result<RebasedBias> VerifyBiasOver(SchemaRepository& repo,
                                   const InstanceStore& store, InstanceId id,
                                   SchemaId to) {
  ADEPT_ASSIGN_OR_RETURN(const InstanceStore::Record* record, store.Get(id));
  ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<const ProcessSchema> target,
                         repo.Get(to));
  ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<const SchemaAnalysis> analysis,
                         repo.AnalysisFor(to));
  RebasedBias out{record->bias.Clone(), {}};
  BiasIdAllocator alloc;
  ADEPT_ASSIGN_OR_RETURN(out.verified,
                         out.bias.ApplyVerified(*target, analysis.get(),
                                                target->version(), &alloc));
  return out;
}

TEST_F(InstanceStoreTest, RebaseInstallsVerifiedBias) {
  InstanceStore store(&repo_);
  InstanceId id(9);
  ASSERT_TRUE(store.Register(id, v1_id_).ok());
  auto biased_view =
      store.AddBias(id, OneSerialInsert(*v1_, "adhoc", "pack goods",
                                        "deliver goods"));
  ASSERT_TRUE(biased_view.ok());
  NodeId adhoc_id = (*biased_view)->FindNodeByName("adhoc");

  Delta type_change =
      OneSerialInsert(*v1_, "typed", "get order", "collect data");
  auto v2_id = repo_.DeriveVersion(v1_id_, std::move(type_change));
  ASSERT_TRUE(v2_id.ok());

  // A biased record cannot move without its bias verified over the new
  // base, and stays where it was.
  auto unverified = store.Rebase(id, *v2_id);
  EXPECT_EQ(unverified.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*store.Get(id))->base_schema, v1_id_);
  EXPECT_EQ(store.IdsOnBase(v1_id_), std::vector<InstanceId>{id});

  auto probe = VerifyBiasOver(repo_, store, id, *v2_id);
  ASSERT_TRUE(probe.ok()) << probe.status();
  auto rebased = store.Rebase(id, *v2_id, std::move(probe->bias),
                              std::move(probe->verified));
  ASSERT_TRUE(rebased.ok()) << rebased.status();
  // Both the type change and the bias are visible; the bias node keeps its id.
  EXPECT_TRUE((*rebased)->FindNodeByName("typed").valid());
  EXPECT_EQ((*rebased)->FindNodeByName("adhoc"), adhoc_id);
  EXPECT_EQ((*store.Get(id))->base_schema, *v2_id);
  EXPECT_TRUE(store.IdsOnBase(v1_id_).empty());
  EXPECT_EQ(store.IdsOnBase(*v2_id), std::vector<InstanceId>{id});
}

// The base index against a brute-force filter over Ids(), after every step
// of random Register/AddBias/Rebase/ClearBias/Unregister sequences.
TEST_F(InstanceStoreTest, BaseIndexMatchesRecordsUnderRandomOps) {
  std::vector<SchemaId> bases = {v1_id_};
  std::string pred = "get order";
  for (std::string name : {"typed1", "typed2", "typed3"}) {
    auto latest = repo_.Get(bases.back());
    ASSERT_TRUE(latest.ok());
    auto derived = repo_.DeriveVersion(
        bases.back(), OneSerialInsert(**latest, name, pred, "collect data"));
    ASSERT_TRUE(derived.ok()) << derived.status();
    bases.push_back(*derived);
    pred = name;
  }
  const char* bias_edges[][2] = {{"pack goods", "deliver goods"},
                                 {"confirm order", "and_join"},
                                 {"collect data", "and_split"}};
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    InstanceStore store(&repo_);
    Rng rng(seed);
    for (int step = 0; step < 200; ++step) {
      const InstanceId id(1 + rng.NextBelow(12));
      const SchemaId base = bases[rng.NextIndex(bases.size())];
      switch (rng.NextBelow(5)) {
        case 0:
          (void)store.Register(id, base);
          break;
        case 1: {
          auto record = store.Get(id);
          if (!record.ok()) break;
          auto schema = repo_.Get((*record)->base_schema);
          ASSERT_TRUE(schema.ok());
          const auto& edge = bias_edges[rng.NextIndex(3)];
          (void)store.AddBias(
              id, OneSerialInsert(**schema, "b" + std::to_string(step),
                                  edge[0], edge[1]));
          break;
        }
        case 2: {
          if (!store.IsBiased(id)) {
            (void)store.Rebase(id, base);
            break;
          }
          auto probe = VerifyBiasOver(repo_, store, id, base);
          if (!probe.ok()) break;
          ASSERT_TRUE(store
                          .Rebase(id, base, std::move(probe->bias),
                                  std::move(probe->verified))
                          .ok());
          break;
        }
        case 3:
          (void)store.ClearBias(id, base);
          break;
        default:
          (void)store.Unregister(id);
          break;
      }
      for (SchemaId on : bases) {
        std::vector<InstanceId> expected;
        for (InstanceId candidate : store.Ids()) {
          if ((*store.Get(candidate))->base_schema == on) {
            expected.push_back(candidate);
          }
        }
        ASSERT_EQ(store.IdsOnBase(on), expected)
            << "seed " << seed << " step " << step << " base " << on;
      }
    }
  }
}

TEST_F(InstanceStoreTest, MemoryStatsOrdering) {
  // Fig. 2's point: blocks are much smaller than full copies.
  InstanceStore overlay_store(&repo_);
  InstanceStore copy_store(&repo_);
  for (uint64_t i = 1; i <= 20; ++i) {
    ASSERT_TRUE(overlay_store
                    .Register(InstanceId(i), v1_id_, StorageStrategy::kOverlay)
                    .ok());
    ASSERT_TRUE(copy_store
                    .Register(InstanceId(i), v1_id_, StorageStrategy::kFullCopy)
                    .ok());
    ASSERT_TRUE(overlay_store
                    .AddBias(InstanceId(i), OneSerialInsert(*v1_, "b",
                                                            "get order",
                                                            "collect data"))
                    .ok());
    ASSERT_TRUE(copy_store
                    .AddBias(InstanceId(i), OneSerialInsert(*v1_, "b",
                                                            "get order",
                                                            "collect data"))
                    .ok());
  }
  auto overlay_mem = overlay_store.Memory();
  auto copy_mem = copy_store.Memory();
  EXPECT_GT(overlay_mem.blocks, 0u);
  EXPECT_EQ(overlay_mem.full_copies, 0u);
  EXPECT_GT(copy_mem.full_copies, overlay_mem.blocks * 2);
}

// Every payload kind survives the JSON form: a loop reset's region, the
// detail of a failure, an ad-hoc change and a migration, an event with
// both and events with neither. The expected text is what TraceToJson
// wrote when both payloads were inline fields of the event; Reduced()
// keeps the same events.
TEST(StateSerializationTest, TraceRoundTripKeepsEveryPayload) {
  ExecutionTrace trace;
  trace.Append({.kind = TraceEventKind::kInstanceStarted});
  trace.Append({.kind = TraceEventKind::kActivityStarted, .node = NodeId(3)});
  trace.Append({.kind = TraceEventKind::kDataWrite,
                .node = NodeId(3),
                .data = DataId(2)});
  trace.Append(
      {.kind = TraceEventKind::kActivityCompleted, .node = NodeId(3)});
  trace.Append({.kind = TraceEventKind::kBranchChosen,
                .node = NodeId(4),
                .branch_value = 2});
  trace.Append({.kind = TraceEventKind::kActivitySkipped, .node = NodeId(5)});
  trace.Append({.kind = TraceEventKind::kActivityFailed,
                .node = NodeId(6),
                .payload = {{}, "disk full"}});
  trace.Append({.kind = TraceEventKind::kActivityRetried, .node = NodeId(6)});
  trace.Append({.kind = TraceEventKind::kLoopReset,
                .node = NodeId(7),
                .iteration = 1,
                .payload = {{NodeId(7), NodeId(3), NodeId(8)}, {}}});
  trace.Append({.kind = TraceEventKind::kAdHocChange,
                .payload = {{}, "serialInsert('x', n1 -> n2)"}});
  trace.Append(
      {.kind = TraceEventKind::kMigrated, .payload = {{}, "to version 2"}});
  trace.Append({.kind = TraceEventKind::kLoopReset,
                .node = NodeId(7),
                .iteration = 2,
                .payload = {{NodeId(7)}, "both"}});

  JsonValue json = TraceToJson(trace);
  EXPECT_EQ(
      json.Dump(),
      R"js({"events":[{"k":0,"q":0},{"k":1,"n":3,"q":1},{"d":2,"k":7,"n":3,"q":2},)js"
      R"js({"k":2,"n":3,"q":3},{"b":2,"k":8,"n":4,"q":4},{"k":3,"n":5,"q":5},)js"
      R"js({"k":4,"n":6,"q":6,"t":"disk full"},{"k":5,"n":6,"q":7},)js"
      R"js({"i":1,"k":6,"n":7,"q":8,"r":[7,3,8]},)js"
      R"js({"k":9,"q":9,"t":"serialInsert('x', n1 -> n2)"},)js"
      R"js({"k":10,"q":10,"t":"to version 2"},)js"
      R"js({"i":2,"k":6,"n":7,"q":11,"r":[7],"t":"both"}]})js");

  auto reparsed = JsonValue::Parse(json.Dump());
  ASSERT_TRUE(reparsed.ok());
  auto restored = TraceFromJson(*reparsed);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(TraceToJson(*restored).Dump(), json.Dump());
  EXPECT_EQ(restored->DebugString(), trace.DebugString());
  ASSERT_EQ(restored->events().size(), trace.events().size());
  for (size_t i = 0; i < trace.events().size(); ++i) {
    EXPECT_EQ(restored->events()[i].reset_nodes(),
              trace.events()[i].reset_nodes());
    EXPECT_EQ(restored->events()[i].detail(), trace.events()[i].detail());
  }
  // Events without payloads hold none.
  EXPECT_EQ(restored->events()[1].payload.MemoryFootprint(), 0u);

  // The first reset erases node 3's start, write and completion; the
  // second names node 7 again and so erases the first.
  std::vector<int64_t> kept;
  for (const TraceEvent& e : restored->Reduced()) kept.push_back(e.sequence);
  EXPECT_EQ(kept, (std::vector<int64_t>{0, 4, 5, 6, 7, 9, 10, 11}));
}

TEST(StateSerializationTest, InstanceStateRoundTrip) {
  auto schema = ComplexSchema();
  ProcessInstance original(InstanceId(5), schema, SchemaId(1));
  ASSERT_TRUE(original.Start().ok());
  SimulationDriver driver({.seed = 99});
  ASSERT_TRUE(driver.RunToProgress(original, 0.5).ok());

  JsonValue state = InstanceStateToJson(original);
  // Through a JSON text round trip, like the snapshot file does.
  auto reparsed = JsonValue::Parse(state.Dump());
  ASSERT_TRUE(reparsed.ok());

  ProcessInstance restored(InstanceId(5), schema, SchemaId(1));
  TraceNotePool notes;
  ASSERT_TRUE(RestoreInstanceState(restored, *reparsed, notes).ok());

  EXPECT_EQ(restored.marking(), original.marking());
  EXPECT_EQ(restored.trace().DebugString(), original.trace().DebugString());
  EXPECT_EQ(restored.loop_iterations().size(),
            original.loop_iterations().size());
  EXPECT_EQ(restored.started(), original.started());

  // The restored instance continues executing normally.
  SimulationDriver driver2({.seed = 100});
  ASSERT_TRUE(driver2.RunToCompletion(restored).ok());
  EXPECT_TRUE(restored.Finished());
}

TEST(WalTest, AppendAndReadBack) {
  std::string path = TempPath("adept_wal_test.log");
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 10; ++i) {
      JsonValue record = JsonValue::MakeObject();
      record.Set("k", JsonValue(i));
      ASSERT_TRUE((*wal)->Append(record).ok());
    }
    EXPECT_EQ((*wal)->records_written(), 10u);
  }
  auto records = WriteAheadLog::ReadAll(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 10u);
  EXPECT_EQ((*records)[7].Get("k").as_int(), 7);
  std::remove(path.c_str());
}

TEST(WalTest, AppendAcrossReopens) {
  std::string path = TempPath("adept_wal_reopen.log");
  std::remove(path.c_str());
  for (int batch = 0; batch < 3; ++batch) {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    JsonValue record = JsonValue::MakeObject();
    record.Set("batch", JsonValue(batch));
    ASSERT_TRUE((*wal)->Append(record).ok());
  }
  auto records = WriteAheadLog::ReadAll(path);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 3u);
  std::remove(path.c_str());
}

TEST(WalTest, TruncatedTailTolerated) {
  std::string path = TempPath("adept_wal_trunc.log");
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 5; ++i) {
      JsonValue record = JsonValue::MakeObject();
      record.Set("k", JsonValue(i));
      ASSERT_TRUE((*wal)->Append(record).ok());
    }
  }
  // Crash injection: chop bytes off the tail.
  auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 4);

  auto records = WriteAheadLog::ReadAll(path);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 4u);  // last record lost, rest intact

  // Appending after the truncation point still works for new opens (the
  // damaged tail is simply re-read as garbage-free prefix).
  std::remove(path.c_str());
}

TEST(WalTest, ScanFeedsOpenWithoutRescan) {
  std::string path = TempPath("adept_wal_scan.log");
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 3; ++i) {
      JsonValue record = JsonValue::MakeObject();
      record.Set("k", JsonValue(i));
      ASSERT_TRUE((*wal)->Append(record).ok());
    }
    ASSERT_TRUE((*wal)->Sync(SyncMode::kFlush).ok());
  }
  // Crash injection: damage the tail so OpenScanned must repair it from
  // the scan's framing facts alone.
  auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 3);

  auto scan = WriteAheadLog::Scan(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->exists);
  EXPECT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->last_lsn, 2u);
  EXPECT_LT(scan->valid_bytes, scan->total_bytes);

  const uint64_t scans_before = WriteAheadLog::scan_count();
  auto wal = WriteAheadLog::OpenScanned(path, *scan);
  ASSERT_TRUE(wal.ok());
  // No re-read: the scan counter is untouched and LSNs resume correctly
  // past the repaired tail.
  EXPECT_EQ(WriteAheadLog::scan_count(), scans_before);
  EXPECT_EQ((*wal)->last_lsn(), 2u);
  JsonValue record = JsonValue::MakeObject();
  record.Set("k", JsonValue(99));
  auto lsn = (*wal)->Append(record);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 3u);
  ASSERT_TRUE((*wal)->Sync(SyncMode::kFlush).ok());

  auto records = WriteAheadLog::ReadRecords(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ(records->back().lsn, 3u);
  std::remove(path.c_str());
}

TEST(WalTest, GarbageFileYieldsNoRecords) {
  std::string path = TempPath("adept_wal_garbage.log");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a wal", f);
  std::fclose(f);
  auto records = WriteAheadLog::ReadAll(path);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
  std::remove(path.c_str());
}

TEST(WalTest, MissingFileYieldsEmpty) {
  auto records = WriteAheadLog::ReadAll(TempPath("does_not_exist_123.log"));
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

TEST(WalTest, LsnsAreMonotonicAndSurviveReopenAndTruncate) {
  std::string path = TempPath("adept_wal_lsn.log");
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 3; ++i) {
      auto lsn = (*wal)->Append(JsonValue::MakeObject());
      ASSERT_TRUE(lsn.ok());
      EXPECT_EQ(*lsn, static_cast<uint64_t>(i + 1));
    }
  }
  {
    // A reopen resumes numbering from the persisted frames.
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ((*wal)->last_lsn(), 3u);
    auto lsn = (*wal)->Append(JsonValue::MakeObject());
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(*lsn, 4u);
    // Truncation empties the file but never reuses an LSN: a snapshot that
    // recorded coverage up to 4 stays unambiguous.
    ASSERT_TRUE((*wal)->Truncate().ok());
    auto after = (*wal)->Append(JsonValue::MakeObject());
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after, 5u);
  }
  auto records = WriteAheadLog::ReadRecords(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].lsn, 5u);
  std::remove(path.c_str());
}

// Regression: a forged header with a long digit run used to overflow the
// size_t length accumulator, wrap the bounds check, and index out of
// bounds. The parser must reject it and salvage the prefix.
TEST(WalTest, ForgedOversizedHeaderIsRejected) {
  std::string path = TempPath("adept_wal_forged.log");
  const char* forged_lengths[] = {
      // 20+ digit runs: would overflow uint64 accumulation.
      "184467440737095516151",
      "99999999999999999999999999999999",
      // Parses fine but exceeds any plausible payload: must be capped.
      "18446744073709551615",
      "4294967296",
  };
  for (const char* forged : forged_lengths) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    // One good frame, then the forged one.
    std::fputs("1:7:{\"k\":1}\n", f);
    std::fprintf(f, "2:%s:{}\n", forged);
    std::fclose(f);
    auto records = WriteAheadLog::ReadRecords(path);
    ASSERT_TRUE(records.ok());
    ASSERT_EQ(records->size(), 1u) << "forged length " << forged;
    EXPECT_EQ((*records)[0].lsn, 1u);
  }
  std::remove(path.c_str());
}

TEST(WalTest, NonMonotonicLsnEndsScan) {
  std::string path = TempPath("adept_wal_replayed_lsn.log");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  // LSN 7 twice: the second frame is forged/stale and must end the scan.
  std::fputs("7:7:{\"k\":1}\n7:7:{\"k\":2}\n", f);
  std::fclose(f);
  auto records = WriteAheadLog::ReadRecords(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].value.Get("k").as_int(), 1);
  std::remove(path.c_str());
}

// Scan (replay) and ReadTail (replication) walk frames with one walker, so
// on a damaged log they agree on the first and last LSN and on the frame
// count. The one difference is Scan's own: it stops at an unparsable
// payload, which ReadTail ships as raw bytes.
TEST(WalTest, ScanAndReadTailAgreeOnDamagedLogs) {
  const std::string path = TempPath("adept_wal_walker.log");
  const std::string good = "1:7:{\"k\":1}\n2:7:{\"k\":2}\n";
  // Every log numbers its frames 1, 2, ..., so a reader's last LSN is its
  // frame count.
  const struct {
    const char* name;
    std::string content;
    size_t scanned;  // Scan's records
    size_t tailed;   // ReadTail's frames
  } logs[] = {
      {"intact", good + "3:7:{\"k\":3}\n", 3, 3},
      {"truncated header", good + "3:7", 2, 2},
      {"forged length", good + "3:99999999999999999999:{}\n", 2, 2},
      {"missing terminator", good + "3:7:{\"k\":3}X4:2:{}\n", 2, 2},
      {"non-monotonic LSN", good + "2:7:{\"k\":3}\n", 2, 2},
      {"truncated payload", good + "3:7:{\"k\"", 2, 2},
      {"unparsable payload", good + "3:3:{{{\n4:7:{\"k\":4}\n", 2, 4},
  };
  for (const auto& log : logs) {
    SCOPED_TRACE(log.name);
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs(log.content.c_str(), f);
    std::fclose(f);
    auto scan = WriteAheadLog::Scan(path);
    auto tail = WriteAheadLog::ReadTail(path, 0);
    ASSERT_TRUE(scan.ok() && tail.ok());
    ASSERT_EQ(scan->records.size(), log.scanned);
    ASSERT_EQ(tail->frames.size(), log.tailed);
    EXPECT_EQ(scan->records.front().lsn, 1u);
    EXPECT_EQ(tail->first_lsn, 1u);
    EXPECT_EQ(scan->last_lsn, log.scanned);
    EXPECT_EQ(tail->last_lsn, log.tailed);
    for (size_t i = 0; i < log.scanned; ++i) {
      EXPECT_EQ(scan->records[i].lsn, tail->frames[i].lsn);
      EXPECT_EQ(scan->records[i].value.Dump(), tail->frames[i].payload);
    }
  }
  std::remove(path.c_str());
}

TEST(WalTest, DamagedTailIsRepairedOnOpen) {
  std::string path = TempPath("adept_wal_repair.log");
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    JsonValue record = JsonValue::MakeObject();
    record.Set("k", JsonValue(1));
    ASSERT_TRUE((*wal)->Append(record).ok());
  }
  {
    // Crash injection: garbage after the last complete frame.
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("####garbage####", f);
    std::fclose(f);
  }
  {
    // Open truncates back to the last good frame so the next append is not
    // hidden behind unreadable bytes.
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    JsonValue record = JsonValue::MakeObject();
    record.Set("k", JsonValue(2));
    ASSERT_TRUE((*wal)->Append(record).ok());
  }
  auto records = WriteAheadLog::ReadAll(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[1].Get("k").as_int(), 2);
  std::remove(path.c_str());
}

// Regression: a failed Truncate() used to leave a null FILE* behind, and
// the next Append crashed in fwrite. Both must report kCorruption instead,
// and a later successful Truncate() revives the log.
TEST(WalTest, FailedTruncateThenAppendReturnsCorruption) {
  std::string dir_path = TempPath("adept_wal_deadhandle");
  std::string path = dir_path + "/wal.log";
  std::filesystem::remove_all(dir_path);
  ASSERT_TRUE(std::filesystem::create_directories(dir_path));
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(JsonValue::MakeObject()).ok());

  // Make the reopen inside Truncate() fail: replace the log file with a
  // directory of the same name (fopen(..., "wb") then fails with EISDIR).
  std::filesystem::remove_all(dir_path);
  ASSERT_TRUE(std::filesystem::create_directories(path));
  EXPECT_EQ((*wal)->Truncate().code(), StatusCode::kCorruption);
  EXPECT_TRUE((*wal)->dead());

  // Dead handle: error, not a crash.
  EXPECT_EQ((*wal)->Append(JsonValue::MakeObject()).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ((*wal)->Sync(SyncMode::kFlush).code(), StatusCode::kCorruption);

  // Once the path is writable again, Truncate() revives the handle.
  std::filesystem::remove_all(path);
  ASSERT_TRUE((*wal)->Truncate().ok());
  EXPECT_FALSE((*wal)->dead());
  EXPECT_TRUE((*wal)->Append(JsonValue::MakeObject()).ok());
  std::filesystem::remove_all(dir_path);
}

// Fuzz loop: random byte corruptions of a valid log must never trip the
// parser (the ASan/UBSan CI job turns any OOB index into a failure).
TEST(WalTest, CorruptHeaderFuzzLoopCompletesReadAll) {
  std::string path = TempPath("adept_wal_fuzz.log");
  std::remove(path.c_str());
  std::string pristine;
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 20; ++i) {
      JsonValue record = JsonValue::MakeObject();
      record.Set("k", JsonValue(i));
      record.Set("pad", JsonValue(std::string(32, 'x')));
      ASSERT_TRUE((*wal)->Append(record).ok());
    }
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buffer[1 << 16];
    size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
      pristine.append(buffer, n);
    }
    std::fclose(f);
  }

  Rng rng(20260726);
  const std::string digit_runs[] = {"9", "99999999999999999999",
                                    "18446744073709551615", ":", "\n"};
  for (int round = 0; round < 200; ++round) {
    std::string mutated = pristine;
    // Flip a handful of bytes and splice a hostile digit run somewhere.
    for (int flips = 0; flips < 4; ++flips) {
      mutated[rng.NextIndex(mutated.size())] =
          static_cast<char>(rng.NextBelow(256));
    }
    const std::string& splice = digit_runs[rng.NextIndex(5)];
    mutated.insert(rng.NextIndex(mutated.size()), splice);

    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(mutated.data(), 1, mutated.size(), f);
    std::fclose(f);

    auto records = WriteAheadLog::ReadAll(path);
    ASSERT_TRUE(records.ok()) << "round " << round;
    EXPECT_LE(records->size(), 20u);
  }
  std::remove(path.c_str());
}

TEST(WalWriterTest, SingleThreadAppendIsDurableAndReadable) {
  std::string path = TempPath("adept_walwriter_single.log");
  std::remove(path.c_str());
  for (SyncMode mode : {SyncMode::kNone, SyncMode::kFlush, SyncMode::kFsync}) {
    std::remove(path.c_str());
    WalWriterOptions options;
    options.sync = mode;
    {
      auto writer = WalWriter::Open(path, options);
      ASSERT_TRUE(writer.ok()) << SyncModeToString(mode);
      for (int i = 0; i < 10; ++i) {
        JsonValue record = JsonValue::MakeObject();
        record.Set("k", JsonValue(i));
        ASSERT_TRUE((*writer)->Append(record).ok());
      }
      EXPECT_EQ((*writer)->last_enqueued_lsn(), 10u);
      EXPECT_EQ((*writer)->durable_lsn(), 10u);
    }
    auto records = WriteAheadLog::ReadRecords(path);
    ASSERT_TRUE(records.ok());
    ASSERT_EQ(records->size(), 10u) << SyncModeToString(mode);
    EXPECT_EQ((*records)[9].value.Get("k").as_int(), 9);
  }
  std::remove(path.c_str());
}

// Group commit: N appender threads, every ticket LSN becomes durable, and
// the replayed log contains each record exactly once in LSN order.
TEST(WalWriterTest, ConcurrentAppendersAllLsnsDurableAndReplayable) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::string path = TempPath("adept_walwriter_group.log");
  std::remove(path.c_str());
  {
    WalWriterOptions options;
    options.sync = SyncMode::kFlush;
    auto writer = WalWriter::Open(path, options);
    ASSERT_TRUE(writer.ok());

    std::vector<std::thread> appenders;
    std::vector<Status> results(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      appenders.emplace_back([&, t] {
        uint64_t max_lsn = 0;
        for (int i = 0; i < kPerThread; ++i) {
          JsonValue record = JsonValue::MakeObject();
          record.Set("payload", JsonValue(t * kPerThread + i));
          max_lsn = std::max(max_lsn, (*writer)->Enqueue(record));
        }
        results[t] = (*writer)->WaitDurable(max_lsn);
      });
    }
    for (auto& appender : appenders) appender.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_TRUE(results[t].ok()) << "thread " << t << ": " << results[t];
    }
    EXPECT_EQ((*writer)->durable_lsn(),
              static_cast<uint64_t>(kThreads * kPerThread));
  }

  auto records = WriteAheadLog::ReadRecords(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), static_cast<size_t>(kThreads * kPerThread));
  std::set<int64_t> payloads;
  uint64_t previous_lsn = 0;
  for (const WalRecord& record : *records) {
    EXPECT_GT(record.lsn, previous_lsn);  // strictly increasing on disk
    previous_lsn = record.lsn;
    EXPECT_TRUE(
        payloads.insert(record.value.Get("payload").as_int()).second);
  }
  EXPECT_EQ(payloads.size(), static_cast<size_t>(kThreads * kPerThread));
  std::remove(path.c_str());
}

// Records every batch the writer delivers: its LSNs, the delivering
// thread, and (when `path` is set) how many records the file held then.
class RecordingHook : public WalCommitHook {
 public:
  struct Batch {
    std::vector<uint64_t> lsns;
    std::thread::id thread;
    size_t on_disk = 0;
  };

  explicit RecordingHook(std::string path = "") : path_(std::move(path)) {}

  void OnDurableBatch(const std::vector<WalFrame>& frames) override {
    Batch batch{{}, std::this_thread::get_id(), 0};
    for (const WalFrame& frame : frames) batch.lsns.push_back(frame.lsn);
    if (!path_.empty()) {
      auto records = WriteAheadLog::ReadRecords(path_);
      if (records.ok()) batch.on_disk = records->size();
    }
    std::lock_guard<std::mutex> lock(mu_);
    batches_.push_back(std::move(batch));
  }
  Status WaitRemote(uint64_t) override { return Status::OK(); }

  std::vector<Batch> batches() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batches_;
  }
  // Every delivered LSN, in delivery order.
  std::vector<uint64_t> delivered() const {
    std::vector<uint64_t> all;
    for (const Batch& batch : batches()) {
      all.insert(all.end(), batch.lsns.begin(), batch.lsns.end());
    }
    return all;
  }

 private:
  const std::string path_;
  mutable std::mutex mu_;
  std::vector<Batch> batches_;
};

TEST(WalWriterTest, TruncateDrainsAndContinuesLsns) {
  std::string path = TempPath("adept_walwriter_trunc.log");
  std::remove(path.c_str());
  RecordingHook hook(path);
  auto writer = WalWriter::Open(path, {});
  ASSERT_TRUE(writer.ok());
  (*writer)->SetCommitHook(&hook);
  for (int i = 0; i < 5; ++i) {
    (*writer)->Enqueue(JsonValue::MakeObject());
  }
  ASSERT_TRUE((*writer)->Truncate().ok());
  EXPECT_EQ((*writer)->durable_lsn(), 5u);
  // Nobody waited for the five records, yet the checkpoint wrote them
  // through the hook (the standbys' stream) before emptying the file.
  EXPECT_EQ(hook.delivered(), (std::vector<uint64_t>{1, 2, 3, 4, 5}));
  ASSERT_FALSE(hook.batches().empty());
  EXPECT_EQ(hook.batches().back().on_disk, 5u);
  JsonValue record = JsonValue::MakeObject();
  record.Set("post", JsonValue(true));
  ASSERT_TRUE((*writer)->Append(record).ok());
  EXPECT_EQ(hook.delivered(), (std::vector<uint64_t>{1, 2, 3, 4, 5, 6}));
  auto records = WriteAheadLog::ReadRecords(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].lsn, 6u);
  EXPECT_TRUE((*records)[0].value.Get("post").as_bool());
  (*writer)->SetCommitHook(nullptr);
  std::remove(path.c_str());
}

#ifdef __linux__
size_t ThreadCount() {
  size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}
#endif

// One drain path: the thread that waits writes the batch, so opening a
// writer and committing through it starts no thread.
TEST(WalWriterTest, StartsNoThread) {
#ifndef __linux__
  GTEST_SKIP() << "counts threads through /proc/self/task";
#else
  std::string path = TempPath("adept_walwriter_threads.log");
  std::remove(path.c_str());
  const size_t before = ThreadCount();
  {
    auto writer = WalWriter::Open(path, {});
    ASSERT_TRUE(writer.ok());
    const size_t opened = ThreadCount();
    ASSERT_TRUE(
        (*writer)->WaitDurable((*writer)->Enqueue(JsonValue::MakeObject()))
            .ok());
    const size_t committed = ThreadCount();
    EXPECT_EQ(opened, before);
    EXPECT_EQ(committed, before);
  }
  std::remove(path.c_str());
#endif
}

// A record nobody waits for rides the next commit: the waiter for B
// writes A and B as one batch on its own thread.
TEST(WalWriterTest, UnwaitedRecordsRideTheNextCommit) {
  std::string path = TempPath("adept_walwriter_ride.log");
  std::remove(path.c_str());
  RecordingHook hook;
  {
    auto writer = WalWriter::Open(path, {});
    ASSERT_TRUE(writer.ok());
    (*writer)->SetCommitHook(&hook);
    const uint64_t a = (*writer)->Enqueue(JsonValue::MakeObject());
    // Room for a drain on some other thread to write A on its own.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const uint64_t b = (*writer)->Enqueue(JsonValue::MakeObject());
    ASSERT_TRUE((*writer)->WaitDurable(b).ok());
    const std::vector<RecordingHook::Batch> batches = hook.batches();
    ASSERT_EQ(batches.size(), 1u);
    EXPECT_EQ(batches[0].lsns, (std::vector<uint64_t>{a, b}));
    EXPECT_EQ(batches[0].thread, std::this_thread::get_id());
    (*writer)->SetCommitHook(nullptr);
  }
  std::remove(path.c_str());
}

TEST(WalWriterTest, CloseWritesUnwaitedRecords) {
  std::string path = TempPath("adept_walwriter_close.log");
  std::remove(path.c_str());
  {
    auto writer = WalWriter::Open(path, {});
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 3; ++i) {
      JsonValue record = JsonValue::MakeObject();
      record.Set("k", JsonValue(i));
      (*writer)->Enqueue(record);
    }
  }
  auto records = WriteAheadLog::ReadRecords(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ((*records)[i].lsn, static_cast<uint64_t>(i + 1));
    EXPECT_EQ((*records)[i].value.Get("k").as_int(), i);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace adept
