// The block parse and the walks that stand in for it.
//
// WalksMatchTree: the walks of model/block_tree.h answer single structural
// questions without parsing the schema, and change ops and loop resets rely
// on them giving the tree's answer on every schema that parses. Over seeded
// bench::ScaledSchemas, as generated and after chains of random verified
// changes (checked frozen and as mutable clones, which is what change ops
// see), every opener's walked closer is its composite's exit, every
// composite's walked nodes are BlockTree::NodesIn, and every (from, to)
// pair is accepted by WalkSequenceRange iff it is a forward item range of
// one tree sequence.
//
// BlockParsePinTest: folds BlockTree::Build's DebugString and node-to-block
// map (or the failure's status code) of seeded schemas, of candidates that
// random change ops produce, and of candidates with randomly rewired
// control edges (mostly malformed) into one FNV-1a-64 digest per seed. The
// expected digests were recorded by running this same test body, in a
// separate checkout, against the parser that pre-walked every branch to its
// join before parsing it. The one-pass parser must build the same tree for
// every schema that parses and reject every other one with
// kVerificationFailed.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "change/change_op.h"
#include "change/delta.h"
#include "common/rng.h"
#include "model/block_tree.h"
#include "model/schema.h"
#include "net/transport.h"

namespace adept {
namespace {

// --- Walks against the tree -------------------------------------------------

void ExpectWalksMatchTree(const SchemaView& schema) {
  auto tree = BlockTree::Build(schema);
  ASSERT_TRUE(tree.ok()) << tree.status();
  std::set<std::pair<NodeId, NodeId>> ranges;
  for (size_t b = 0; b < tree->size(); ++b) {
    const BlockTree::Block& block = tree->block(static_cast<int>(b));
    if (block.kind != BlockTree::BlockKind::kBranch &&
        block.kind != BlockTree::BlockKind::kRoot) {
      auto closer = WalkToCloser(schema, block.entry);
      ASSERT_TRUE(closer.ok()) << closer.status();
      EXPECT_EQ(*closer, block.exit);
      auto nodes = WalkBlockNodes(schema, block.entry);
      ASSERT_TRUE(nodes.ok()) << nodes.status();
      EXPECT_EQ(*nodes, tree->NodesIn(static_cast<int>(b)));
      continue;
    }
    // Forward item ranges: `from` is an item's node, `to` the node or the
    // closer of the same or a later item.
    const auto& items = block.sequence;
    for (size_t i = 0; i < items.size(); ++i) {
      for (size_t j = i; j < items.size(); ++j) {
        ranges.emplace(items[i].node, items[j].node);
        if (items[j].composite_block >= 0) {
          ranges.emplace(items[i].node,
                         tree->block(items[j].composite_block).exit);
        }
      }
    }
  }
  const std::vector<NodeId> nodes = schema.NodeIds();
  size_t accepted = 0;
  for (NodeId from : nodes) {
    for (NodeId to : nodes) {
      const bool walked = WalkSequenceRange(schema, from, to).ok();
      const bool in_tree = ranges.count({from, to}) > 0;
      EXPECT_EQ(walked, in_tree) << "from n" << from.value() << " to n"
                                 << to.value();
      accepted += walked ? 1 : 0;
    }
  }
  EXPECT_EQ(accepted, ranges.size());
}

// A random change of `schema`: serial, parallel and branch inserts,
// deletes and moves, with anchors drawn at random (many do not apply).
Delta RandomChange(const ProcessSchema& schema, Rng& rng, int round) {
  std::vector<NodeId> activities, xor_splits, nodes;
  std::vector<std::pair<NodeId, NodeId>> control;
  schema.VisitNodes([&](const Node& n) {
    nodes.push_back(n.id);
    if (n.type == NodeType::kActivity) activities.push_back(n.id);
    if (n.type == NodeType::kXorSplit) xor_splits.push_back(n.id);
  });
  schema.VisitEdges([&](const Edge& e) {
    if (e.type == EdgeType::kControl) control.emplace_back(e.src, e.dst);
  });
  NewActivitySpec spec;
  spec.name = "chg" + std::to_string(round);
  Delta delta;
  const uint64_t roll = rng.NextBelow(100);
  if (roll < 25) {
    auto [pred, succ] = control[rng.NextIndex(control.size())];
    delta.Add(std::make_unique<SerialInsertOp>(spec, pred, succ));
  } else if (roll < 45) {
    NodeId a = activities[rng.NextIndex(activities.size())];
    delta.Add(std::make_unique<ParallelInsertOp>(spec, a, a));
  } else if (roll < 60) {
    delta.Add(std::make_unique<ParallelInsertOp>(
        spec, nodes[rng.NextIndex(nodes.size())],
        nodes[rng.NextIndex(nodes.size())]));
  } else if (roll < 70 && !xor_splits.empty()) {
    delta.Add(std::make_unique<BranchInsertOp>(
        spec, xor_splits[rng.NextIndex(xor_splits.size())],
        100 + round));
  } else if (roll < 85) {
    delta.Add(std::make_unique<DeleteActivityOp>(
        activities[rng.NextIndex(activities.size())]));
  } else {
    auto [pred, succ] = control[rng.NextIndex(control.size())];
    delta.Add(std::make_unique<MoveActivityOp>(
        activities[rng.NextIndex(activities.size())], pred, succ));
  }
  return delta;
}

class WalkTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WalkTest, WalksMatchTree) {
  const uint64_t seed = GetParam();
  const int activities = 20 + static_cast<int>((seed * 37) % 101);
  std::shared_ptr<const ProcessSchema> schema =
      bench::ScaledSchema(activities, seed, "walk");
  ASSERT_NE(schema, nullptr);
  ExpectWalksMatchTree(*schema);

  Rng rng(seed * 104729 + 7);
  int applied = 0;
  for (int round = 0; round < 12; ++round) {
    Delta delta = RandomChange(*schema, rng, round);
    auto changed = delta.ApplyToSchema(*schema);
    if (!changed.ok()) continue;
    ++applied;
    schema = *changed;
    ExpectWalksMatchTree(*schema);
    ExpectWalksMatchTree(*schema->Clone());
  }
  EXPECT_GT(applied, 3) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalkTest, ::testing::Range<uint64_t>(1, 9));

// --- Malformed shapes -------------------------------------------------------

// A schema of `types` (ids 0..n-1) with control edges `control` and loop
// edges `loop`, left mutable: Build runs on it as change ops do.
struct Shape {
  const char* what;
  std::vector<NodeType> types;
  std::vector<std::pair<uint32_t, uint32_t>> control;
  std::vector<std::pair<uint32_t, uint32_t>> loop;
};

std::unique_ptr<ProcessSchema> Make(const Shape& shape) {
  auto schema = std::make_unique<ProcessSchema>("malformed", 1);
  for (NodeType type : shape.types) {
    Node n;
    n.type = type;
    EXPECT_TRUE(schema->AddNode(n).ok());
  }
  for (auto [src, dst] : shape.control) {
    EXPECT_TRUE(
        schema->AddEdge(NodeId(src), NodeId(dst), EdgeType::kControl).ok());
  }
  for (auto [src, dst] : shape.loop) {
    EXPECT_TRUE(
        schema->AddEdge(NodeId(src), NodeId(dst), EdgeType::kLoop).ok());
  }
  return schema;
}

std::vector<Shape> MalformedShapes() {
  constexpr NodeType S = NodeType::kStartFlow, E = NodeType::kEndFlow,
                     A = NodeType::kActivity, AS = NodeType::kAndSplit,
                     AJ = NodeType::kAndJoin, XS = NodeType::kXorSplit,
                     LS = NodeType::kLoopStart, LE = NodeType::kLoopEnd;
  return {
      {"split without join", {S, AS, A, A, E},
       {{0, 1}, {1, 2}, {1, 3}, {2, 4}, {3, 4}}, {}},
      {"branches meet different joins", {S, AS, A, A, AJ, AJ, E},
       {{0, 1}, {1, 2}, {1, 3}, {2, 4}, {3, 5}, {4, 6}, {5, 6}}, {}},
      {"XOR block closed by an AND join", {S, XS, A, A, AJ, E},
       {{0, 1}, {1, 2}, {1, 3}, {2, 4}, {3, 4}, {4, 5}}, {}},
      {"loop without loop edge", {S, LS, A, LE, E},
       {{0, 1}, {1, 2}, {2, 3}, {3, 4}}, {}},
      {"loop edge from the wrong node", {S, LS, A, LE, E},
       {{0, 1}, {1, 2}, {2, 3}, {3, 4}}, {{2, 1}}},
      {"loop with two bodies", {S, LS, A, A, LE, E},
       {{0, 1}, {1, 2}, {1, 3}, {2, 4}, {3, 4}, {4, 5}}, {{4, 1}}},
      {"unmatched closer", {S, A, AJ, E}, {{0, 1}, {1, 2}, {2, 3}}, {}},
      {"control cycle", {S, A, A, E}, {{0, 1}, {1, 2}, {2, 1}}, {}},
      {"unreachable node", {S, A, E, A}, {{0, 1}, {1, 2}}, {}},
      {"activity with two successors", {S, A, A, A, E},
       {{0, 1}, {1, 2}, {1, 3}, {2, 4}, {3, 4}}, {}},
      {"nested block shares its closer", {S, AS, AS, A, A, A, AJ, E},
       {{0, 1}, {1, 2}, {1, 5}, {2, 3}, {2, 4}, {3, 6}, {4, 6}, {5, 6},
        {6, 7}},
       {}},
      {"split with one branch", {S, AS, A, AJ, E},
       {{0, 1}, {1, 2}, {2, 3}, {3, 4}}, {}},
      {"process ends in a block", {S, AS, A, A, AJ, E},
       {{0, 1}, {1, 2}, {1, 3}, {2, 4}, {3, 4}}, {}},
      {"branch runs into a dead end", {S, AS, A, A, AJ, E},
       {{0, 1}, {1, 2}, {1, 3}, {2, 4}, {4, 5}}, {}},
      {"split loops back to itself", {S, AS, A, AJ, E},
       {{0, 1}, {1, 1}, {1, 2}, {2, 3}, {3, 4}}, {}},
      {"join with two successors", {S, AS, A, A, AJ, A, E},
       {{0, 1}, {1, 2}, {1, 3}, {2, 4}, {3, 4}, {4, 5}, {4, 6}, {5, 6}}, {}},
      {"no end node", {S, A}, {{0, 1}}, {}},
  };
}

TEST(BlockParseTest, MalformedShapesFailVerification) {
  for (const Shape& shape : MalformedShapes()) {
    auto tree = BlockTree::Build(*Make(shape));
    ASSERT_FALSE(tree.ok()) << shape.what;
    EXPECT_EQ(tree.status().code(), StatusCode::kVerificationFailed)
        << shape.what << ": " << tree.status();
  }
}

// --- The parse pin ----------------------------------------------------------

// How many pinned schemas parsed and how many did not, across all seeds.
struct ParseCounts {
  int parsed = 0;
  int failed = 0;
};
ParseCounts counts;

// The tree as text: DebugString plus the block of every node in ascending
// id order; for a schema that does not parse, the status code.
std::string ParseTrail(const ProcessSchema& schema) {
  auto tree = BlockTree::Build(schema);
  ++(tree.ok() ? counts.parsed : counts.failed);
  if (!tree.ok()) {
    return "fail:" + std::to_string(static_cast<int>(tree.status().code())) +
           "\n";
  }
  std::string trail = tree->DebugString(schema);
  schema.VisitNodes([&](const Node& n) {
    auto block = tree->BlockOfNode(n.id);
    trail += std::to_string(n.id.value()) + ":" +
             (block.ok() ? std::to_string(*block) : std::string("-")) + " ";
  });
  return trail + "\n";
}

// A clone of `schema` with `rewires` control edges redirected to random
// targets (RemoveEdge + AddEdge keeps the adjacency lists current).
std::shared_ptr<ProcessSchema> Rewired(const ProcessSchema& schema, Rng& rng,
                                       int rewires) {
  std::shared_ptr<ProcessSchema> copy = schema.Clone();
  std::vector<NodeId> nodes = copy->NodeIds();
  for (int k = 0; k < rewires; ++k) {
    std::vector<EdgeId> control;
    copy->VisitEdges([&](const Edge& e) {
      if (e.type == EdgeType::kControl) control.push_back(e.id);
    });
    const Edge edge = *copy->FindEdge(control[rng.NextIndex(control.size())]);
    NodeId target = nodes[rng.NextIndex(nodes.size())];
    EXPECT_TRUE(copy->RemoveEdge(edge.id).ok());
    EXPECT_TRUE(
        copy->AddEdge(edge.src, target, EdgeType::kControl, edge.branch_value)
            .ok());
  }
  EXPECT_TRUE(copy->Freeze().ok());
  return copy;
}

uint64_t ParseDigest(uint64_t seed) {
  const int activities = 20 + static_cast<int>((seed * 53) % 381);
  std::shared_ptr<const ProcessSchema> schema =
      bench::ScaledSchema(activities, seed, "pin");
  EXPECT_NE(schema, nullptr);
  Rng rng(seed * 7907 + 1);
  std::string trail = ParseTrail(*schema);
  for (int round = 0; round < 40; ++round) {
    Delta delta = RandomChange(*schema, rng, round);
    BiasIdAllocator alloc;
    auto candidate = delta.ApplyRaw(*schema, schema->version(), &alloc);
    if (candidate.ok()) {
      trail += ParseTrail(**candidate);
    } else {
      trail += "op:" +
               std::to_string(static_cast<int>(candidate.status().code())) +
               "\n";
    }
    trail += ParseTrail(*Rewired(*schema, rng, 1 + round % 3));
  }
  return NetChecksum(trail);
}

struct Pin {
  uint64_t seed;
  uint64_t digest;
};

class BlockParsePinTest : public ::testing::TestWithParam<Pin> {};

TEST_P(BlockParsePinTest, TreesMatchRecordedDigests) {
  const Pin& pin = GetParam();
  counts = {};
  EXPECT_EQ(ParseDigest(pin.seed), pin.digest) << "seed " << pin.seed;
  // Both sides of the parse are pinned, not just one.
  EXPECT_GE(counts.parsed, 20) << "seed " << pin.seed;
  EXPECT_GE(counts.failed, 20) << "seed " << pin.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, BlockParsePinTest,
    ::testing::Values(Pin{1, 12280148369743211146u},
                      Pin{2, 15910447062070282100u},
                      Pin{3, 7657560154264816093u},
                      Pin{4, 12753173547578030391u},
                      Pin{5, 9550616280812074186u},
                      Pin{6, 3051940615414364090u},
                      Pin{7, 6048797803484728323u},
                      Pin{8, 9961812569228363132u}));

}  // namespace
}  // namespace adept
