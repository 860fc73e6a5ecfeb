#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>

#include "model/block_tree.h"
#include "model/schema.h"
#include "model/schema_builder.h"
#include "model/serialization.h"
#include "tests/test_fixtures.h"

namespace adept {
namespace {

using testing_fixtures::ComplexSchema;
using testing_fixtures::LoopSchema;
using testing_fixtures::OnlineOrderV1;
using testing_fixtures::OnlineOrderV2;
using testing_fixtures::SequenceSchema;
using testing_fixtures::XorSchema;

TEST(SchemaTest, BuilderProducesFrozenSchema) {
  auto schema = OnlineOrderV1();
  ASSERT_NE(schema, nullptr);
  EXPECT_TRUE(schema->frozen());
  EXPECT_EQ(schema->type_name(), "online_order");
  EXPECT_EQ(schema->version(), 1);
  // start, 4 activities + 2 in parallel, and split/join, end = 10 nodes.
  EXPECT_EQ(schema->node_count(), 10u);
  EXPECT_TRUE(schema->FindNodeByName("pack goods").valid());
  EXPECT_FALSE(schema->FindNodeByName("no such").valid());
}

TEST(SchemaTest, MutationAfterFreezeRejected) {
  auto schema = OnlineOrderV1();
  auto clone = schema->Clone();  // mutable again
  EXPECT_FALSE(clone->frozen());
  Node extra;
  extra.type = NodeType::kActivity;
  extra.name = "extra";
  EXPECT_TRUE(clone->AddNode(extra).ok());

  // The original stays frozen and immutable.
  auto frozen = std::const_pointer_cast<ProcessSchema>(schema);
  EXPECT_EQ(frozen->AddNode(extra).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SchemaTest, CloneKeepsIdsStable) {
  auto schema = OnlineOrderV1();
  NodeId pack = schema->FindNodeByName("pack goods");
  auto clone = schema->Clone();
  ASSERT_TRUE(clone->Freeze().ok());
  EXPECT_EQ(clone->FindNodeByName("pack goods"), pack);
  EXPECT_EQ(clone->next_node_id(), schema->next_node_id());
}

TEST(SchemaTest, RemoveNodeDropsIncidentEdges) {
  auto schema = SequenceSchema(3)->Clone();
  NodeId a2 = schema->FindNodeByName("a2");
  ASSERT_TRUE(a2.valid());
  size_t edges_before = schema->edge_count();
  ASSERT_TRUE(schema->RemoveNode(a2).ok());
  EXPECT_EQ(schema->edge_count(), edges_before - 2);
  EXPECT_EQ(schema->FindNode(a2), nullptr);
  // Freeze fails gracefully? No: freeze succeeds (graph is just split);
  // the verifier rejects it later.
  EXPECT_TRUE(schema->Freeze().ok());
}

TEST(SchemaTest, DeletedIdsAreNotReused) {
  auto schema = SequenceSchema(3)->Clone();
  NodeId a2 = schema->FindNodeByName("a2");
  uint32_t next_before = schema->next_node_id();
  ASSERT_TRUE(schema->RemoveNode(a2).ok());
  Node fresh;
  fresh.type = NodeType::kActivity;
  fresh.name = "fresh";
  auto id = schema->AddNode(fresh);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id->value(), next_before);
  EXPECT_NE(*id, a2);
}

TEST(SchemaTest, FreezeRejectsMissingStartOrEnd) {
  ProcessSchema s("broken", 1);
  Node a;
  a.type = NodeType::kActivity;
  a.name = "a";
  ASSERT_TRUE(s.AddNode(a).ok());
  EXPECT_EQ(s.Freeze().code(), StatusCode::kVerificationFailed);
}

TEST(SchemaTest, FreezeRejectsDuplicateStart) {
  ProcessSchema s("broken", 1);
  Node start;
  start.type = NodeType::kStartFlow;
  ASSERT_TRUE(s.AddNode(start).ok());
  ASSERT_TRUE(s.AddNode(start).ok());
  Node end;
  end.type = NodeType::kEndFlow;
  ASSERT_TRUE(s.AddNode(end).ok());
  EXPECT_EQ(s.Freeze().code(), StatusCode::kVerificationFailed);
}

// The adjacency lists against a brute-force scan of VisitEdges: per-node
// out/in visits (ascending edge id) and FindEdgeBetween for every ordered
// node pair and edge type.
void ExpectAdjacencyMatchesScan(const ProcessSchema& s) {
  std::map<uint32_t, std::vector<EdgeId>> out, in;
  s.VisitEdges([&](const Edge& e) {
    out[e.src.value()].push_back(e.id);
    in[e.dst.value()].push_back(e.id);
  });
  const std::vector<NodeId> nodes = s.NodeIds();
  for (NodeId n : nodes) {
    std::vector<EdgeId> got_out, got_in;
    s.VisitOutEdges(n, [&](const Edge& e) { got_out.push_back(e.id); });
    s.VisitInEdges(n, [&](const Edge& e) { got_in.push_back(e.id); });
    EXPECT_EQ(got_out, out[n.value()]) << "out-edges of n" << n.value();
    EXPECT_EQ(got_in, in[n.value()]) << "in-edges of n" << n.value();
    for (NodeId m : nodes) {
      for (EdgeType type :
           {EdgeType::kControl, EdgeType::kSync, EdgeType::kLoop}) {
        const Edge* expected = nullptr;
        for (EdgeId id : out[n.value()]) {
          const Edge* e = s.FindEdge(id);
          if (e->dst == m && e->type == type) {
            expected = e;
            break;
          }
        }
        EXPECT_EQ(s.FindEdgeBetween(n, m, type), expected);
      }
    }
  }
}

TEST(SchemaTest, MutableAdjacencyMatchesEdgeScan) {
  for (uint32_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
    std::shared_ptr<ProcessSchema> s = SequenceSchema(4)->Clone();
    std::vector<EdgeId> removed_edges;
    for (int step = 0; step < 150; ++step) {
      const std::vector<NodeId> nodes = s->NodeIds();
      const std::vector<EdgeId> edges = s->EdgeIds();
      const EdgeType type = static_cast<EdgeType>(pick(3));
      switch (pick(7)) {
        case 0: {
          Node n;
          n.type = NodeType::kActivity;
          n.name = "x" + std::to_string(step);
          ASSERT_TRUE(s->AddNode(n).ok());
          break;
        }
        case 1:
        case 2: {
          // Self-loops included: RemoveNode must drop them exactly once.
          NodeId src = nodes[pick(nodes.size())];
          NodeId dst = nodes[pick(nodes.size())];
          ASSERT_TRUE(s->AddEdge(src, dst, type).ok());
          break;
        }
        case 3: {
          // Re-using a freed id inserts below the largest edge id, so the
          // lists must insert in order rather than append.
          if (removed_edges.empty()) break;
          size_t i = pick(removed_edges.size());
          Edge e;
          e.id = removed_edges[i];
          e.src = nodes[pick(nodes.size())];
          e.dst = nodes[pick(nodes.size())];
          e.type = type;
          removed_edges.erase(removed_edges.begin() + i);
          ASSERT_TRUE(s->AddEdgeWithId(e).ok());
          break;
        }
        case 4:
        case 5: {
          if (edges.empty()) break;
          EdgeId id = edges[pick(edges.size())];
          ASSERT_TRUE(s->RemoveEdge(id).ok());
          removed_edges.push_back(id);
          break;
        }
        default: {
          if (nodes.size() <= 2) break;
          NodeId victim = nodes[pick(nodes.size())];
          s->VisitOutEdges(victim,
                           [&](const Edge& e) { removed_edges.push_back(e.id); });
          s->VisitInEdges(victim, [&](const Edge& e) {
            if (e.src != victim) removed_edges.push_back(e.id);
          });
          ASSERT_TRUE(s->RemoveNode(victim).ok());
          break;
        }
      }
      ExpectAdjacencyMatchesScan(*s);
      if (step % 25 == 24) {
        s = s->Clone();  // the copy carries the lists
        ExpectAdjacencyMatchesScan(*s);
      }
    }
  }
}

// Block-preserving rewrites (serial insert, parallel wrap, activity delete)
// made from the raw primitives: after every step the block tree parsed from
// the mutable schema equals the one Freeze() builds.
TEST(SchemaTest, MutableBlockTreeMatchesFrozen) {
  int parsed_ok = 0;
  for (uint32_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    std::shared_ptr<ProcessSchema> s = ComplexSchema()->Clone();
    for (int step = 0; step < 30; ++step) {
      std::vector<NodeId> activities;
      s->VisitNodes([&](const Node& n) {
        if (n.type == NodeType::kActivity) activities.push_back(n.id);
      });
      ASSERT_FALSE(activities.empty());
      NodeId x = activities[rng() % activities.size()];
      NodeId p = s->ControlPredecessor(x);
      NodeId q = s->ControlSuccessor(x);
      ASSERT_TRUE(p.valid() && q.valid());
      const Edge in = *s->FindEdgeBetween(p, x, EdgeType::kControl);
      const Edge out = *s->FindEdgeBetween(x, q, EdgeType::kControl);
      auto add_node = [&](NodeType type) {
        Node n;
        n.type = type;
        n.name = "s" + std::to_string(step) + "_" + NodeTypeToString(type);
        return *s->AddNode(n);
      };
      auto link = [&](NodeId a, NodeId b, int branch_value = 0) {
        ASSERT_TRUE(s->AddEdge(a, b, EdgeType::kControl, branch_value).ok());
      };
      switch (rng() % 3) {
        case 0: {  // serial insert after x
          ASSERT_TRUE(s->RemoveEdge(out.id).ok());
          NodeId y = add_node(NodeType::kActivity);
          link(x, y, out.branch_value);
          link(y, q);
          break;
        }
        case 1: {  // wrap x in a parallel block beside a new activity
          ASSERT_TRUE(s->RemoveEdge(in.id).ok());
          ASSERT_TRUE(s->RemoveEdge(out.id).ok());
          NodeId split = add_node(NodeType::kAndSplit);
          NodeId join = add_node(NodeType::kAndJoin);
          NodeId y = add_node(NodeType::kActivity);
          link(p, split, in.branch_value);
          link(split, x);
          link(x, join);
          link(join, q, out.branch_value);
          link(split, y);
          link(y, join);
          break;
        }
        default: {  // delete x, bridging its neighbours
          if (activities.size() <= 1) break;
          ASSERT_TRUE(s->RemoveNode(x).ok());
          link(p, q, in.branch_value);
          break;
        }
      }
      ExpectAdjacencyMatchesScan(*s);
      auto parsed = BlockTree::Build(*s);
      parsed_ok += parsed.ok() ? 1 : 0;
      std::string from_mutable =
          parsed.ok() ? parsed->DebugString(*s) : parsed.status().message();
      std::shared_ptr<ProcessSchema> frozen = s->Clone();
      ASSERT_TRUE(frozen->Freeze().ok());
      auto tree = frozen->block_tree();
      std::string from_frozen =
          tree.ok() ? (*tree)->DebugString(*frozen) : tree.status().message();
      EXPECT_EQ(from_mutable, from_frozen);
      ExpectAdjacencyMatchesScan(*frozen);
    }
  }
  // Most steps keep a parseable structure; the comparison is not vacuous.
  EXPECT_GT(parsed_ok, 12 * 30 / 2);
}

TEST(SchemaViewTest, SuccessorsAndPredecessors) {
  auto schema = OnlineOrderV1();
  NodeId get_order = schema->FindNodeByName("get order");
  NodeId collect = schema->FindNodeByName("collect data");
  EXPECT_EQ(schema->ControlSuccessor(get_order), collect);
  EXPECT_EQ(schema->ControlPredecessor(collect), get_order);

  NodeId split = schema->FindNodeByName("and_split");
  auto branches = schema->Successors(split, EdgeType::kControl);
  EXPECT_EQ(branches.size(), 2u);
  EXPECT_FALSE(schema->ControlSuccessor(split).valid());  // ambiguous
}

TEST(SchemaViewTest, ReachabilityByControl) {
  auto schema = OnlineOrderV1();
  NodeId get_order = schema->FindNodeByName("get order");
  NodeId pack = schema->FindNodeByName("pack goods");
  NodeId confirm = schema->FindNodeByName("confirm order");
  NodeId compose = schema->FindNodeByName("compose order");
  EXPECT_TRUE(schema->ReachableByControl(get_order, pack));
  EXPECT_FALSE(schema->ReachableByControl(pack, get_order));
  EXPECT_FALSE(schema->ReachableByControl(confirm, compose));
  EXPECT_FALSE(schema->ReachableByControl(compose, confirm));
}

TEST(SchemaViewTest, TopologicalOrderRespectsEdges) {
  auto schema = ComplexSchema();
  ASSERT_NE(schema, nullptr);
  auto order = schema->TopologicalOrder();
  EXPECT_EQ(order.size(), schema->node_count());
  std::unordered_map<NodeId, size_t> pos;
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  schema->VisitEdges([&](const Edge& e) {
    if (e.type == EdgeType::kControl) {
      EXPECT_LT(pos[e.src], pos[e.dst]);
    }
  });
}

TEST(BlockTreeTest, ParsesSequence) {
  auto schema = SequenceSchema(4);
  auto tree = schema->block_tree();
  ASSERT_TRUE(tree.ok()) << tree.status();
  const BlockTree& t = **tree;
  EXPECT_EQ(t.root().kind, BlockTree::BlockKind::kRoot);
  EXPECT_EQ(t.root().sequence.size(), 6u);  // start, a1..a4, end
  EXPECT_EQ(t.size(), 1u);
}

TEST(BlockTreeTest, ParsesParallelBlock) {
  auto schema = OnlineOrderV1();
  auto tree = schema->block_tree();
  ASSERT_TRUE(tree.ok());
  const BlockTree& t = **tree;
  // root + parallel + 2 branches
  EXPECT_EQ(t.size(), 4u);
  NodeId split = schema->FindNodeByName("and_split");
  NodeId join = schema->FindNodeByName("and_join");
  auto block = t.BlockOfNode(split);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(t.block(*block).exit, join);
  auto exit = WalkToCloser(*schema, split);
  ASSERT_TRUE(exit.ok());
  EXPECT_EQ(*exit, join);
  // Only openers have a closer.
  EXPECT_FALSE(WalkToCloser(*schema, join).ok());
}

TEST(BlockTreeTest, ParallelBranchDetection) {
  auto schema = OnlineOrderV2();
  ASSERT_NE(schema, nullptr);
  auto tree = schema->block_tree();
  ASSERT_TRUE(tree.ok());
  NodeId confirm = schema->FindNodeByName("confirm order");
  NodeId compose = schema->FindNodeByName("compose order");
  NodeId send_q = schema->FindNodeByName("send questions");
  NodeId pack = schema->FindNodeByName("pack goods");
  EXPECT_TRUE((*tree)->InDifferentParallelBranches(confirm, compose));
  EXPECT_TRUE((*tree)->InDifferentParallelBranches(send_q, confirm));
  EXPECT_FALSE((*tree)->InDifferentParallelBranches(compose, send_q));
  EXPECT_FALSE((*tree)->InDifferentParallelBranches(confirm, pack));
}

TEST(BlockTreeTest, LoopBlockAndMembership) {
  auto schema = LoopSchema();
  ASSERT_NE(schema, nullptr);
  auto tree = schema->block_tree();
  ASSERT_TRUE(tree.ok()) << tree.status();
  NodeId check = schema->FindNodeByName("check");
  NodeId prepare = schema->FindNodeByName("prepare");
  int loop = (*tree)->InnermostLoop(check);
  EXPECT_GE(loop, 0);
  EXPECT_EQ((*tree)->InnermostLoop(prepare), -1);
  auto nodes = (*tree)->NodesIn(loop);
  // loop start + check + loop end
  EXPECT_EQ(nodes.size(), 3u);
  auto walked = WalkBlockNodes(*schema, (*tree)->block(loop).entry);
  ASSERT_TRUE(walked.ok()) << walked.status();
  EXPECT_EQ(*walked, nodes);
}

TEST(BlockTreeTest, NestedBlocksParse) {
  auto schema = ComplexSchema();
  ASSERT_NE(schema, nullptr);
  auto tree = schema->block_tree();
  ASSERT_TRUE(tree.ok()) << tree.status();
  // root, AND, 2 AND-branches, XOR, 2 XOR-branches, loop, loop branch
  EXPECT_EQ((*tree)->size(), 9u);
}

TEST(BlockWalkTest, SequenceRangeInOneSequence) {
  auto schema = SequenceSchema(5);
  NodeId a2 = schema->FindNodeByName("a2");
  NodeId a4 = schema->FindNodeByName("a4");
  EXPECT_TRUE(WalkSequenceRange(*schema, a2, a4).ok());
  EXPECT_TRUE(WalkSequenceRange(*schema, a2, a2).ok());

  // Reversed endpoints are rejected.
  EXPECT_FALSE(WalkSequenceRange(*schema, a4, a2).ok());
}

TEST(BlockWalkTest, SequenceRangeAcrossComposite) {
  auto schema = OnlineOrderV1();
  NodeId collect = schema->FindNodeByName("collect data");
  NodeId pack = schema->FindNodeByName("pack goods");
  NodeId split = schema->FindNodeByName("and_split");
  NodeId join = schema->FindNodeByName("and_join");
  // The AND block is one item of the root sequence.
  EXPECT_TRUE(WalkSequenceRange(*schema, collect, pack).ok());
  EXPECT_TRUE(WalkSequenceRange(*schema, split, join).ok());
  EXPECT_TRUE(WalkSequenceRange(*schema, collect, join).ok());
  // A closer is no item's node, so no range starts there.
  EXPECT_FALSE(WalkSequenceRange(*schema, join, pack).ok());

  // Endpoints in different branches do not form a region, and a branch
  // ends before the join that closes it.
  NodeId confirm = schema->FindNodeByName("confirm order");
  NodeId compose = schema->FindNodeByName("compose order");
  EXPECT_FALSE(WalkSequenceRange(*schema, confirm, compose).ok());
  EXPECT_FALSE(WalkSequenceRange(*schema, confirm, pack).ok());
}

TEST(BlockTreeTest, RejectsUnmatchedJoin) {
  ProcessSchema s("bad", 1);
  Node n;
  n.type = NodeType::kStartFlow;
  NodeId start = *s.AddNode(n);
  n.type = NodeType::kAndSplit;
  NodeId split = *s.AddNode(n);
  n.type = NodeType::kActivity;
  n.name = "a";
  NodeId a = *s.AddNode(n);
  n.name = "b";
  NodeId bnode = *s.AddNode(n);
  n.type = NodeType::kEndFlow;
  NodeId end = *s.AddNode(n);
  ASSERT_TRUE(s.AddEdge(start, split, EdgeType::kControl).ok());
  ASSERT_TRUE(s.AddEdge(split, a, EdgeType::kControl).ok());
  ASSERT_TRUE(s.AddEdge(split, bnode, EdgeType::kControl).ok());
  // Branches never join: b -> end, a dangles into end too.
  ASSERT_TRUE(s.AddEdge(a, end, EdgeType::kControl).ok());
  ASSERT_TRUE(s.AddEdge(bnode, end, EdgeType::kControl).ok());
  ASSERT_TRUE(s.Freeze().ok());
  EXPECT_FALSE(s.block_tree().ok());
}

TEST(SerializationTest, RoundTripPreservesEverything) {
  auto schema = ComplexSchema();
  ASSERT_NE(schema, nullptr);
  JsonValue json = SchemaToJson(*schema);
  auto restored = SchemaFromJson(json);
  ASSERT_TRUE(restored.ok()) << restored.status();

  EXPECT_EQ((*restored)->type_name(), schema->type_name());
  EXPECT_EQ((*restored)->version(), schema->version());
  EXPECT_EQ((*restored)->node_count(), schema->node_count());
  EXPECT_EQ((*restored)->edge_count(), schema->edge_count());
  EXPECT_EQ((*restored)->data_count(), schema->data_count());
  EXPECT_EQ((*restored)->data_edges().size(), schema->data_edges().size());
  EXPECT_EQ((*restored)->next_node_id(), schema->next_node_id());

  // Byte-stable re-serialization.
  EXPECT_EQ(SchemaToJson(**restored).Dump(), json.Dump());

  schema->VisitNodes([&](const Node& n) {
    const Node* r = (*restored)->FindNode(n.id);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(*r, n);
  });
  schema->VisitEdges([&](const Edge& e) {
    const Edge* r = (*restored)->FindEdge(e.id);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(*r, e);
  });
}

TEST(SerializationTest, RejectsGarbage) {
  EXPECT_FALSE(SchemaFromJson(JsonValue(42)).ok());
  JsonValue wrong_format = JsonValue::MakeObject();
  wrong_format.Set("format", JsonValue(99));
  EXPECT_FALSE(SchemaFromJson(wrong_format).ok());
}

// No schema holds a dangling edge: AddEdgeWithId refuses one while the
// schema is read, before Freeze() would see it.
TEST(SerializationTest, RejectsDanglingEdge) {
  auto schema = OnlineOrderV1();
  std::string text = SchemaToJson(*schema).Dump();
  const std::string key = "\"dst\":";
  size_t at = text.find(key);
  ASSERT_NE(at, std::string::npos);
  at += key.size();
  size_t end = text.find_first_not_of("0123456789", at);
  text.replace(at, end - at, "9999");
  auto json = JsonValue::Parse(text);
  ASSERT_TRUE(json.ok());
  auto restored = SchemaFromJson(*json);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
      << restored.status();

  auto copy = schema->Clone();
  Edge dangling;
  dangling.id = EdgeId(copy->next_edge_id());
  dangling.src = schema->start_node();
  dangling.dst = NodeId(9999);
  EXPECT_EQ(copy->AddEdgeWithId(dangling).code(),
            StatusCode::kInvalidArgument);
}

TEST(SerializationTest, MaterializeViewCopiesAll) {
  auto schema = OnlineOrderV2();
  auto copy = MaterializeView(*schema, schema->next_node_id(),
                              schema->next_edge_id(), schema->next_data_id());
  ASSERT_TRUE(copy->Freeze().ok());
  EXPECT_EQ(copy->node_count(), schema->node_count());
  EXPECT_EQ(copy->edge_count(), schema->edge_count());
  EXPECT_EQ(SchemaToJson(*copy).Dump(), SchemaToJson(*schema).Dump());
}

TEST(BuilderTest, ConditionalTagsBranchCodes) {
  auto schema = XorSchema();
  ASSERT_NE(schema, nullptr);
  NodeId split = schema->FindNodeByName("xor_split");
  NodeId standard = schema->FindNodeByName("standard care");
  NodeId intensive = schema->FindNodeByName("intensive care");
  const Edge* e0 = schema->FindEdgeBetween(split, standard, EdgeType::kControl);
  const Edge* e1 =
      schema->FindEdgeBetween(split, intensive, EdgeType::kControl);
  ASSERT_NE(e0, nullptr);
  ASSERT_NE(e1, nullptr);
  EXPECT_EQ(e0->branch_value, 0);
  EXPECT_EQ(e1->branch_value, 1);
}

TEST(BuilderTest, EmptyConditionalBranchAllowed) {
  SchemaBuilder b("opt", 1);
  DataId flag = b.Data("flag", DataType::kInt);
  NodeId init = b.Activity("init");
  b.Writes(init, flag);
  b.Conditional(flag, {
      [](SchemaBuilder& s) { s.Activity("extra step"); },
      [](SchemaBuilder&) { /* skip */ },
  });
  b.Activity("wrap up");
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok()) << schema.status();
  auto tree = (*schema)->block_tree();
  ASSERT_TRUE(tree.ok()) << tree.status();
}

TEST(BuilderTest, ErrorsAreLatched) {
  SchemaBuilder b("bad", 1);
  b.Parallel({});  // needs >= 2 branches
  auto schema = b.Build();
  EXPECT_FALSE(schema.ok());
  EXPECT_EQ(schema.status().code(), StatusCode::kInvalidArgument);
}

TEST(BuilderTest, LoopRequiresBody) {
  SchemaBuilder b("bad_loop", 1);
  DataId c = b.Data("c", DataType::kBool);
  b.Loop(c, [](SchemaBuilder&) {});
  auto schema = b.Build();
  EXPECT_FALSE(schema.ok());
}

TEST(MemoryFootprintTest, GrowsWithSchemaSize) {
  auto small = SequenceSchema(5);
  auto large = SequenceSchema(200);
  EXPECT_GT(large->MemoryFootprint(), small->MemoryFootprint());
}

}  // namespace
}  // namespace adept
