#include "model/block_tree.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "common/string_util.h"
#include "model/node.h"
#include "model/schema_view.h"

namespace adept {

namespace {

std::string NodeDesc(const SchemaView& schema, NodeId id) {
  const Node* n = schema.FindNode(id);
  if (n == nullptr) return "<missing>";
  return n->name.empty() ? std::string(NodeTypeToString(n->type)) : n->name;
}

// The first control successor of a node (ascending edge id) and how many
// control successors it has.
struct ControlNext {
  NodeId first;
  size_t count = 0;
};

ControlNext NextByControl(const SchemaView& schema, NodeId node) {
  ControlNext next;
  schema.VisitOutEdges(node, [&next](const Edge& e) {
    if (e.type != EdgeType::kControl) return;
    if (next.count++ == 0) next.first = e.dst;
  });
  return next;
}

}  // namespace

// Stateful recursive-descent parser for the block structure. Every node is
// visited once: a branch is parsed until the first closer it reaches at its
// own level, and a composite compares the closers its branches reached.
class BlockTreeBuilder {
 public:
  explicit BlockTreeBuilder(const SchemaView& schema) : schema_(schema) {}

  Result<BlockTree> Run() {
    if (!schema_.start_node().valid() || !schema_.end_node().valid()) {
      return Status::VerificationFailed("schema has no start/end node");
    }
    tree_.node_block_.reserve(schema_.node_count());
    int root = NewBlock(BlockTree::BlockKind::kRoot, -1);
    tree_.blocks_[root].entry = schema_.start_node();
    tree_.blocks_[root].exit = schema_.end_node();
    ADEPT_RETURN_IF_ERROR(ParseSequence(root, schema_.start_node()).status());
    const auto& seq = tree_.blocks_[root].sequence;
    if (seq.empty() || seq.back().node != schema_.end_node() ||
        seq.back().composite_block != -1) {
      return Status::VerificationFailed(
          "process does not terminate in the end-flow node");
    }
    if (tree_.node_block_.size() != schema_.node_count()) {
      return Status::VerificationFailed(StrFormat(
          "%zu of %zu nodes are not reachable within the block structure",
          schema_.node_count() - tree_.node_block_.size(),
          schema_.node_count()));
    }
    return std::move(tree_);
  }

 private:
  int NewBlock(BlockTree::BlockKind kind, int parent) {
    BlockTree::Block b;
    b.index = static_cast<int>(tree_.blocks_.size());
    b.parent = parent;
    b.kind = kind;
    if (parent >= 0) tree_.blocks_[parent].children.push_back(b.index);
    tree_.blocks_.push_back(std::move(b));
    return tree_.blocks_.back().index;
  }

  // Every node is assigned once, so revisiting one (a cycle, or two blocks
  // sharing a closer) fails here; this also bounds the parse.
  Status AssignNode(NodeId node, int block) {
    if (!tree_.node_block_.emplace(node, block).second) {
      return Status::VerificationFailed(
          "node " + NodeDesc(schema_, node) +
          " is reached twice while parsing the block structure");
    }
    return Status::OK();
  }

  // Parses the sequence starting at `first` into `block`. A branch ends at
  // the first closer it reaches at its own level, which is returned (not
  // assigned: the composite owns it). The root sequence ends after a node
  // without control successors (the end-flow node) and returns an invalid
  // id; a closer there is unmatched.
  Result<NodeId> ParseSequence(int block, NodeId first) {
    const bool root = tree_.blocks_[block].kind == BlockTree::BlockKind::kRoot;
    NodeId cur = first;
    while (true) {
      const Node* node = schema_.FindNode(cur);
      if (node == nullptr) {
        return Status::VerificationFailed("dangling control edge target");
      }
      if (IsBlockCloser(node->type)) {
        if (root) {
          return Status::VerificationFailed("unmatched block closer " +
                                            NodeDesc(schema_, cur));
        }
        return cur;
      }
      // The node whose control successor continues the sequence.
      NodeId last = cur;
      if (IsBlockOpener(node->type)) {
        ADEPT_ASSIGN_OR_RETURN(Composite comp, ParseComposite(cur, block));
        tree_.blocks_[block].sequence.push_back(
            BlockTree::SequenceItem{cur, comp.block});
        last = comp.exit;
      } else {
        ADEPT_RETURN_IF_ERROR(AssignNode(cur, block));
        tree_.blocks_[block].sequence.push_back(
            BlockTree::SequenceItem{cur, -1});
      }
      ControlNext next = NextByControl(schema_, last);
      if (root && next.count == 0) return NodeId::Invalid();  // end-flow
      if (next.count != 1) {
        return Status::VerificationFailed(StrFormat(
            "node %s has %zu control successors, expected exactly 1",
            NodeDesc(schema_, last).c_str(), next.count));
      }
      cur = next.first;
    }
  }

  struct Composite {
    int block;
    NodeId exit;
  };

  // Parses the composite block opened by `opener` (already known to be an
  // opener). Creates the composite block and its branch children.
  Result<Composite> ParseComposite(NodeId opener, int parent) {
    const Node* open_node = schema_.FindNode(opener);
    BlockTree::BlockKind kind;
    NodeType closer_type;
    switch (open_node->type) {
      case NodeType::kAndSplit:
        kind = BlockTree::BlockKind::kParallel;
        closer_type = NodeType::kAndJoin;
        break;
      case NodeType::kXorSplit:
        kind = BlockTree::BlockKind::kConditional;
        closer_type = NodeType::kXorJoin;
        break;
      case NodeType::kLoopStart:
        kind = BlockTree::BlockKind::kLoop;
        closer_type = NodeType::kLoopEnd;
        break;
      default:
        return Status::Internal("ParseComposite on non-opener");
    }

    auto branch_heads = schema_.Successors(opener, EdgeType::kControl);
    if (branch_heads.empty()) {
      return Status::VerificationFailed(
          "block opener " + NodeDesc(schema_, opener) + " has no branches");
    }
    if (kind == BlockTree::BlockKind::kLoop && branch_heads.size() != 1) {
      return Status::VerificationFailed(
          "loop start " + NodeDesc(schema_, opener) +
          " must have exactly one body branch");
    }
    if (kind != BlockTree::BlockKind::kLoop && branch_heads.size() < 2) {
      return Status::VerificationFailed(
          "split " + NodeDesc(schema_, opener) + " needs >= 2 branches");
    }

    int comp = NewBlock(kind, parent);
    tree_.blocks_[comp].entry = opener;
    ADEPT_RETURN_IF_ERROR(AssignNode(opener, comp));

    // Parse every branch to the closer it reaches; all must agree.
    NodeId closer;
    for (NodeId head : branch_heads) {
      int branch = NewBlock(BlockTree::BlockKind::kBranch, comp);
      ADEPT_ASSIGN_OR_RETURN(NodeId reached, ParseSequence(branch, head));
      if (!closer.valid()) {
        closer = reached;
      } else if (closer != reached) {
        return Status::VerificationFailed(
            "branches of " + NodeDesc(schema_, opener) +
            " meet different joins (" + NodeDesc(schema_, closer) + " vs " +
            NodeDesc(schema_, reached) + ")");
      }
      BlockTree::Block& b = tree_.blocks_[branch];
      b.entry = (head == reached) ? NodeId::Invalid() : head;
      if (!b.sequence.empty()) {
        const auto& last = b.sequence.back();
        b.exit = last.composite_block >= 0
                     ? tree_.blocks_[last.composite_block].exit
                     : last.node;
      }
    }
    const Node* close_node = schema_.FindNode(closer);
    if (close_node == nullptr || close_node->type != closer_type) {
      return Status::VerificationFailed(
          "block opened by " + NodeDesc(schema_, opener) +
          " is closed by incompatible node " + NodeDesc(schema_, closer));
    }
    if (kind == BlockTree::BlockKind::kLoop) {
      // The loop edge must connect exactly this closer back to the opener.
      auto loop_preds = schema_.Predecessors(opener, EdgeType::kLoop);
      if (loop_preds.size() != 1 || loop_preds[0] != closer) {
        return Status::VerificationFailed(
            "loop block " + NodeDesc(schema_, opener) +
            " lacks a matching loop edge from its loop end");
      }
    }
    tree_.blocks_[comp].exit = closer;
    ADEPT_RETURN_IF_ERROR(AssignNode(closer, comp));
    return Composite{comp, closer};
  }

  const SchemaView& schema_;
  BlockTree tree_;
};

Result<BlockTree> BlockTree::Build(const SchemaView& schema) {
  return BlockTreeBuilder(schema).Run();
}

Result<int> BlockTree::BlockOfNode(NodeId node) const {
  auto it = node_block_.find(node);
  if (it == node_block_.end()) {
    return Status::NotFound("node not covered by block tree");
  }
  return it->second;
}

int BlockTree::CommonAncestor(int b1, int b2) const {
  std::unordered_set<int> ancestors;
  for (int b = b1; b >= 0; b = blocks_[b].parent) ancestors.insert(b);
  for (int b = b2; b >= 0; b = blocks_[b].parent) {
    if (ancestors.count(b)) return b;
  }
  return 0;
}

bool BlockTree::InDifferentParallelBranches(NodeId a, NodeId b) const {
  auto ba = BlockOfNode(a);
  auto bb = BlockOfNode(b);
  if (!ba.ok() || !bb.ok()) return false;
  int lca = CommonAncestor(*ba, *bb);
  if (blocks_[lca].kind != BlockKind::kParallel) return false;
  // Climb from each block to the child of lca on its path. If a node *is*
  // the split/join itself its path child does not exist -> not in a branch.
  auto child_towards = [&](int from) {
    int prev = -1;
    for (int b = from; b >= 0; b = blocks_[b].parent) {
      if (b == lca) return prev;
      prev = b;
    }
    return -1;
  };
  int ca = child_towards(*ba);
  int cb = child_towards(*bb);
  return ca >= 0 && cb >= 0 && ca != cb;
}

void BlockTree::CollectNodes(int block, std::vector<NodeId>& out) const {
  const Block& b = blocks_[block];
  if (b.kind == BlockKind::kBranch || b.kind == BlockKind::kRoot) {
    for (const SequenceItem& item : b.sequence) {
      if (item.composite_block >= 0) {
        CollectNodes(item.composite_block, out);
      } else {
        out.push_back(item.node);
      }
    }
  } else {
    out.push_back(b.entry);
    for (int child : b.children) CollectNodes(child, out);
    out.push_back(b.exit);
  }
}

std::vector<NodeId> BlockTree::NodesIn(int block) const {
  std::vector<NodeId> out;
  CollectNodes(block, out);
  return out;
}

int BlockTree::InnermostLoop(NodeId node) const {
  auto b = BlockOfNode(node);
  if (!b.ok()) return -1;
  for (int cur = *b; cur >= 0; cur = blocks_[cur].parent) {
    if (blocks_[cur].kind == BlockKind::kLoop) return cur;
  }
  return -1;
}

std::string BlockTree::DebugString(const SchemaView& schema) const {
  std::ostringstream os;
  std::function<void(int, int)> dump = [&](int block, int indent) {
    const Block& b = blocks_[block];
    os << std::string(static_cast<size_t>(indent) * 2, ' ');
    switch (b.kind) {
      case BlockKind::kRoot:
        os << "root";
        break;
      case BlockKind::kParallel:
        os << "AND[" << NodeDesc(schema, b.entry) << ".."
           << NodeDesc(schema, b.exit) << "]";
        break;
      case BlockKind::kConditional:
        os << "XOR[" << NodeDesc(schema, b.entry) << ".."
           << NodeDesc(schema, b.exit) << "]";
        break;
      case BlockKind::kLoop:
        os << "LOOP[" << NodeDesc(schema, b.entry) << ".."
           << NodeDesc(schema, b.exit) << "]";
        break;
      case BlockKind::kBranch:
        os << "branch";
        break;
    }
    if (b.kind == BlockKind::kBranch || b.kind == BlockKind::kRoot) {
      os << ":";
      for (const SequenceItem& item : b.sequence) {
        if (item.composite_block >= 0) {
          os << " <block#" << item.composite_block << ">";
        } else {
          os << " " << NodeDesc(schema, item.node);
        }
      }
    }
    os << "\n";
    for (int child : b.children) dump(child, indent + 1);
  };
  dump(0, 0);
  return os.str();
}

namespace {

// Appends the nodes of the composite opened by `opener` to `out` in
// BlockTree::NodesIn order and returns its closer.
Result<NodeId> AppendBlockNodes(const SchemaView& schema, NodeId opener,
                                std::vector<NodeId>& out) {
  out.push_back(opener);
  NodeId closer;
  for (NodeId head : schema.Successors(opener, EdgeType::kControl)) {
    NodeId cur = head;
    while (true) {
      if (out.size() > schema.node_count()) {
        return Status::FailedPrecondition(
            "block of " + NodeDesc(schema, opener) + " does not close");
      }
      const Node* node = schema.FindNode(cur);
      if (node == nullptr) {
        return Status::FailedPrecondition("dangling control edge target");
      }
      if (IsBlockCloser(node->type)) break;
      NodeId last = cur;
      if (IsBlockOpener(node->type)) {
        ADEPT_ASSIGN_OR_RETURN(last, AppendBlockNodes(schema, cur, out));
      } else {
        out.push_back(cur);
      }
      ControlNext next = NextByControl(schema, last);
      if (next.count != 1) {
        return Status::FailedPrecondition(
            "branch of " + NodeDesc(schema, opener) +
            " ends before reaching a closer");
      }
      cur = next.first;
    }
    if (closer.valid() && closer != cur) {
      return Status::FailedPrecondition(
          "branches of " + NodeDesc(schema, opener) + " meet different joins");
    }
    closer = cur;
  }
  if (!closer.valid()) {
    return Status::FailedPrecondition(
        "block opener " + NodeDesc(schema, opener) + " has no branches");
  }
  out.push_back(closer);
  return closer;
}

}  // namespace

Result<NodeId> WalkToCloser(const SchemaView& schema, NodeId opener) {
  const Node* open_node = schema.FindNode(opener);
  if (open_node == nullptr || !IsBlockOpener(open_node->type)) {
    return Status::FailedPrecondition(
        StrFormat("n%u is not a block opener", opener.value()));
  }
  NodeId cur = opener;
  int depth = 0;
  for (size_t step = 0; step < schema.node_count(); ++step) {
    ControlNext next = NextByControl(schema, cur);
    if (next.count == 0) break;
    cur = next.first;
    const Node* node = schema.FindNode(cur);
    if (node == nullptr) break;
    if (IsBlockCloser(node->type)) {
      if (depth == 0) return cur;
      --depth;
    } else if (IsBlockOpener(node->type)) {
      ++depth;
    }
  }
  return Status::FailedPrecondition("no closer matches " +
                                    NodeDesc(schema, opener));
}

Status WalkSequenceRange(const SchemaView& schema, NodeId from, NodeId to) {
  NodeId cur = from;
  for (size_t step = 0; step < schema.node_count(); ++step) {
    const Node* node = schema.FindNode(cur);
    if (node == nullptr || IsBlockCloser(node->type)) break;
    NodeId last = cur;
    if (IsBlockOpener(node->type)) {
      ADEPT_ASSIGN_OR_RETURN(last, WalkToCloser(schema, cur));
    }
    if (cur == to || last == to) return Status::OK();
    ControlNext next = NextByControl(schema, last);
    if (next.count != 1) break;
    cur = next.first;
  }
  return Status::FailedPrecondition(
      "the sequence of " + NodeDesc(schema, from) + " ends before reaching " +
      NodeDesc(schema, to));
}

Result<std::vector<NodeId>> WalkBlockNodes(const SchemaView& schema,
                                           NodeId opener) {
  const Node* open_node = schema.FindNode(opener);
  if (open_node == nullptr || !IsBlockOpener(open_node->type)) {
    return Status::FailedPrecondition(
        StrFormat("n%u is not a block opener", opener.value()));
  }
  std::vector<NodeId> out;
  ADEPT_RETURN_IF_ERROR(AppendBlockNodes(schema, opener, out).status());
  return out;
}

}  // namespace adept
