// BlockTree: the parsed block structure of a WSM net.
//
// ADEPT schemas are block-structured: every AND-/XOR-split has exactly one
// matching join, every loop-start one matching loop-end, and blocks are
// properly nested. The block tree makes this nesting explicit:
//
//   kRoot        the whole process (entry = start-flow, exit = end-flow)
//   kParallel    an AND block   (entry = AndSplit,  exit = AndJoin)
//   kConditional an XOR block   (entry = XorSplit,  exit = XorJoin)
//   kLoop        a loop block   (entry = LoopStart, exit = LoopEnd)
//   kBranch      one branch of a composite; holds the branch's sequence
//
// Branch (and root) blocks carry an ordered list of SequenceItems: a plain
// node, or a nested composite (represented by its entry node + block index).
// The verifier uses the tree to summarize blocks and to check sync edges
// ("are a and b in different branches of a common parallel block?").
//
// Build parses in one pass: each branch is parsed until the first closer it
// reaches at its own nesting level, and the closers reached by the branches
// of one split must agree. Every node is visited once.
//
// Questions about a single spot of a schema do not need the whole tree.
// The walks at the end of this header answer them from the nodes involved:
// "which closer matches this opener?" (branch insertion), "is [from..to] a
// forward range of one sequence?" (parallel insertion) and "which nodes
// belong to this block?" (loop-back reset). On every schema Build accepts
// they give the tree's answer; tests/block_walk_test.cc checks that.

#ifndef ADEPT_MODEL_BLOCK_TREE_H_
#define ADEPT_MODEL_BLOCK_TREE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "model/types.h"

namespace adept {

class SchemaView;

class BlockTree {
 public:
  enum class BlockKind { kRoot, kParallel, kConditional, kLoop, kBranch };

  // One item of a branch/root sequence.
  struct SequenceItem {
    NodeId node;              // plain node, or entry node of the composite
    int composite_block = -1; // index of nested composite block; -1 if plain
  };

  struct Block {
    int index = -1;
    int parent = -1;  // -1 for root
    BlockKind kind = BlockKind::kRoot;
    NodeId entry;     // see kind table above; invalid for empty branches
    NodeId exit;
    std::vector<int> children;          // nested blocks, in control order
    std::vector<SequenceItem> sequence; // branch/root blocks only
  };

  // Parses the block structure. Fails with kVerificationFailed on broken
  // nesting (split without matching join, branches meeting different joins,
  // type mismatches, unreachable/duplicated nodes, ...). Sync edges are
  // ignored here; their rules are enforced by the verifier using the tree.
  static Result<BlockTree> Build(const SchemaView& schema);

  const Block& root() const { return blocks_[0]; }
  const Block& block(int index) const { return blocks_[index]; }
  size_t size() const { return blocks_.size(); }

  // Innermost block containing `node`. Composite entry/exit nodes map to the
  // composite block itself; plain members map to their branch/root block.
  Result<int> BlockOfNode(NodeId node) const;

  // Lowest common ancestor block of two blocks.
  int CommonAncestor(int b1, int b2) const;

  // True iff a and b lie in *different* branches of a common parallel (AND)
  // block — the legality condition for a sync edge between them.
  bool InDifferentParallelBranches(NodeId a, NodeId b) const;

  // All nodes transitively contained in `block` (including entry/exit of
  // nested composites; including `block`'s own entry/exit for composites).
  std::vector<NodeId> NodesIn(int block) const;

  // Innermost loop block containing `node`, -1 if none.
  int InnermostLoop(NodeId node) const;

  // Human-readable dump (tests / monitor).
  std::string DebugString(const SchemaView& schema) const;

 private:
  friend class BlockTreeBuilder;

  void CollectNodes(int block, std::vector<NodeId>& out) const;

  std::vector<Block> blocks_;
  std::unordered_map<NodeId, int> node_block_;
};

// --- Walks ------------------------------------------------------------------
//
// Each walk follows control edges from the nodes it is asked about and
// costs the part of the schema it crosses, not the schema. On a schema that
// BlockTree::Build rejects a walk may fail (kFailedPrecondition) or answer
// from the part it crossed; it never runs longer than node_count() steps.

// The closer matching `opener` (AndJoin for AndSplit, ...): the first
// closer at nesting depth 0 along the opener's first branch. Equals the
// exit of the opener's composite block.
Result<NodeId> WalkToCloser(const SchemaView& schema, NodeId opener);

// OK iff `from` and `to` delimit a forward range of items of one branch or
// root sequence: walking `from`'s sequence, where a nested composite is one
// item (entered at its opener, left at its closer), reaches an item whose
// node or closer is `to` before the sequence ends. `from` must be an item's
// node: a plain node or an opener.
Status WalkSequenceRange(const SchemaView& schema, NodeId from, NodeId to);

// The nodes of the composite block opened by `opener`, in the order of
// BlockTree::NodesIn for that block: the opener, each branch (in ascending
// edge id order) with nested composites expanded, then the closer.
Result<std::vector<NodeId>> WalkBlockNodes(const SchemaView& schema,
                                           NodeId opener);

}  // namespace adept

#endif  // ADEPT_MODEL_BLOCK_TREE_H_
