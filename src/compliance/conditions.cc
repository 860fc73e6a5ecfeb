#include "compliance/conditions.h"

#include <unordered_set>

#include "common/string_util.h"

namespace adept {

namespace {

bool Started(NodeState s) {
  return s == NodeState::kRunning || s == NodeState::kSuspended ||
         s == NodeState::kFailed || s == NodeState::kCompleted;
}

bool NotStarted(NodeState s) {
  return s == NodeState::kNotActivated || s == NodeState::kActivated;
}

std::string NodeDesc(const ProcessInstance& instance, NodeId id) {
  const Node* n = instance.schema().FindNode(id);
  if (n == nullptr) return StrFormat("n%u", id.value());
  return "'" + n->name + "'";
}

// Resolves the effective state of a node reference under the context:
// delta-created nodes behave as fresh NotActivated nodes; alias-translated
// ids are looked up in the instance marking. Returns nullopt if the
// reference cannot be resolved at all.
std::optional<NodeState> EffectiveState(const ProcessInstance& instance,
                                        const ConditionContext& ctx,
                                        NodeId raw) {
  NodeId resolved = ctx.Resolve(raw);
  if (instance.schema().FindNode(resolved) != nullptr) {
    return instance.node_state(resolved);
  }
  if (ctx.IsCreated(raw)) return NodeState::kNotActivated;
  return std::nullopt;
}

// The paper's insertion clause: the node behind the insertion point must
// not have been started; a skipped node is acceptable as long as nothing
// behind it (transitively, along control edges) has started either — the
// dead region has not been "passed".
ConditionResult InsertionPointCondition(const ProcessInstance& instance,
                                        const ConditionContext& ctx,
                                        NodeId behind,
                                        const std::string& op_name) {
  std::optional<NodeState> state = EffectiveState(instance, ctx, behind);
  if (!state.has_value()) {
    return ConditionResult::Fail(
        op_name + ": anchor node no longer exists in the instance schema");
  }
  if (NotStarted(*state)) return ConditionResult::Ok();
  if (*state == NodeState::kSkipped) {
    const SchemaView& schema = instance.schema();
    NodeId start = ctx.Resolve(behind);
    std::vector<NodeId> stack{start};
    std::unordered_set<NodeId> seen{start};
    while (!stack.empty()) {
      NodeId cur = stack.back();
      stack.pop_back();
      bool bad = false;
      schema.VisitOutEdges(cur, [&](const Edge& e) {
        if (e.type != EdgeType::kControl || bad) return;
        NodeState s = instance.node_state(e.dst);
        if (Started(s)) {
          bad = true;
          return;
        }
        if (s == NodeState::kSkipped && seen.insert(e.dst).second) {
          stack.push_back(e.dst);
        }
      });
      if (bad) {
        return ConditionResult::Fail(StrFormat(
            "%s: skipped insertion point %s lies before already started "
            "nodes",
            op_name.c_str(), NodeDesc(instance, start).c_str()));
      }
    }
    return ConditionResult::Ok();
  }
  return ConditionResult::Fail(StrFormat(
      "%s: node %s is already %s", op_name.c_str(),
      NodeDesc(instance, ctx.Resolve(behind)).c_str(),
      NodeStateToString(*state)));
}

ConditionResult NotStartedCondition(const ProcessInstance& instance,
                                    const ConditionContext& ctx, NodeId target,
                                    const std::string& op_name,
                                    const std::string& what) {
  std::optional<NodeState> state = EffectiveState(instance, ctx, target);
  if (!state.has_value()) {
    return ConditionResult::Fail(
        op_name + ": " + what + " no longer exists in the instance schema");
  }
  if (NotStarted(*state) || *state == NodeState::kSkipped) {
    return ConditionResult::Ok();
  }
  return ConditionResult::Fail(StrFormat(
      "%s: %s %s is already %s", op_name.c_str(), what.c_str(),
      NodeDesc(instance, ctx.Resolve(target)).c_str(),
      NodeStateToString(*state)));
}

}  // namespace

ConditionContext ConditionContext::ForDelta(const Delta& delta) {
  ConditionContext ctx;
  for (const auto& op : delta.ops()) {
    for (uint32_t id : op->pinned_node_ids()) {
      ctx.created_nodes.insert(NodeId(id));
    }
  }
  return ctx;
}

ConditionResult CheckOpStateCondition(const ProcessInstance& instance,
                                      const ChangeOp& op,
                                      const ConditionContext& ctx) {
  const SchemaView& schema = instance.schema();
  switch (op.kind()) {
    case ChangeOpKind::kSerialInsert: {
      const auto& insert = static_cast<const SerialInsertOp&>(op);
      return InsertionPointCondition(instance, ctx, insert.succ(),
                                     "serialInsert");
    }
    case ChangeOpKind::kParallelInsert: {
      const auto& insert = static_cast<const ParallelInsertOp&>(op);
      NodeId to = ctx.Resolve(insert.to());
      if (schema.FindNode(to) == nullptr) {
        return ConditionResult::Fail(
            "parallelInsert: region exit no longer exists");
      }
      NodeId behind = schema.ControlSuccessor(to);
      if (!behind.valid()) {
        return ConditionResult::Fail(
            "parallelInsert: region exit has no unique control successor");
      }
      return InsertionPointCondition(instance, ctx, behind, "parallelInsert");
    }
    case ChangeOpKind::kBranchInsert: {
      const auto& insert = static_cast<const BranchInsertOp&>(op);
      if (!EffectiveState(instance, ctx, insert.split()).has_value()) {
        return ConditionResult::Fail("branchInsert: split no longer exists");
      }
      // A branch added to a decided (or undecided) XOR block is always
      // replay-compatible: it is either still selectable or dead.
      return ConditionResult::Ok();
    }
    case ChangeOpKind::kDeleteActivity: {
      const auto& del = static_cast<const DeleteActivityOp&>(op);
      return NotStartedCondition(instance, ctx, del.target(), "deleteActivity",
                                 "activity");
    }
    case ChangeOpKind::kMoveActivity: {
      const auto& move = static_cast<const MoveActivityOp&>(op);
      ConditionResult del = NotStartedCondition(
          instance, ctx, move.target(), "moveActivity", "activity");
      if (!del.compliant) return del;
      return InsertionPointCondition(instance, ctx, move.new_succ(),
                                     "moveActivity");
    }
    case ChangeOpKind::kInsertSyncEdge: {
      const auto& sync = static_cast<const InsertSyncEdgeOp&>(op);
      std::optional<NodeState> from_state =
          EffectiveState(instance, ctx, sync.from());
      std::optional<NodeState> to_state =
          EffectiveState(instance, ctx, sync.to());
      if (!from_state.has_value() || !to_state.has_value()) {
        return ConditionResult::Fail(
            "insertSyncEdge: endpoint no longer exists");
      }
      if (NotStarted(*to_state) || *to_state == NodeState::kSkipped) {
        return ConditionResult::Ok();
      }
      // Target already started: the trace must witness that the source was
      // resolved (completed or skipped) before the target started. A node
      // freshly created by this delta has no such witness.
      NodeId from = ctx.Resolve(sync.from());
      NodeId to = ctx.Resolve(sync.to());
      int64_t started = instance.trace().LastStartSeq(to);
      int64_t resolved = instance.trace().LastResolutionSeq(from);
      if (resolved >= 0 && started >= 0 && resolved < started) {
        return ConditionResult::Ok();
      }
      return ConditionResult::Fail(StrFormat(
          "insertSyncEdge: %s already started but %s was not resolved "
          "before it",
          NodeDesc(instance, to).c_str(), NodeDesc(instance, from).c_str()));
    }
    case ChangeOpKind::kDeleteSyncEdge:
      return ConditionResult::Ok();
    case ChangeOpKind::kAddDataElement:
      return ConditionResult::Ok();
    case ChangeOpKind::kAddDataEdge: {
      const auto& add = static_cast<const AddDataEdgeOp&>(op);
      if (add.mode() == AccessMode::kRead && add.optional()) {
        return ConditionResult::Ok();
      }
      ConditionResult untouched =
          NotStartedCondition(instance, ctx, add.node(), "addDataEdge", "node");
      if (untouched.compliant) return untouched;
      if (add.mode() == AccessMode::kRead) {
        // Mandatory read added to a started node: compliant iff a value was
        // already available when the node started (the replay would find it).
        NodeId node = ctx.Resolve(add.node());
        int64_t started = instance.trace().LastStartSeq(node);
        for (const auto& v : instance.data().History(add.data())) {
          if (started >= 0 && v.sequence < started) {
            return ConditionResult::Ok();
          }
        }
        return ConditionResult::Fail(
            "addDataEdge: mandatory input added to a started node without a "
            "previously available value");
      }
      return untouched;  // write edges cannot be added retroactively
    }
    case ChangeOpKind::kDeleteDataEdge: {
      const auto& del = static_cast<const DeleteDataEdgeOp&>(op);
      // Removing a read edge never invalidates the recorded history (the
      // consumed value stays consumed); removing a write edge of a started
      // node would contradict its recorded output.
      if (del.mode() == AccessMode::kRead) return ConditionResult::Ok();
      return NotStartedCondition(instance, ctx, del.node(), "deleteDataEdge",
                                 "node");
    }
    case ChangeOpKind::kReplaceActivityImpl: {
      const auto& repl = static_cast<const ReplaceActivityImplOp&>(op);
      return NotStartedCondition(instance, ctx, repl.node(),
                                 "replaceActivityImpl", "activity");
    }
  }
  return ConditionResult::Fail("unknown change operation kind");
}

ConditionResult CheckStateConditions(const ProcessInstance& instance,
                                     const Delta& delta) {
  return CheckStateConditions(instance, delta,
                              ConditionContext::ForDelta(delta));
}

ConditionResult CheckStateConditions(const ProcessInstance& instance,
                                     const Delta& delta,
                                     const ConditionContext& ctx) {
  for (const auto& op : delta.ops()) {
    ConditionResult r = CheckOpStateCondition(instance, *op, ctx);
    if (!r.compliant) return r;
  }
  return ConditionResult::Ok();
}

}  // namespace adept
