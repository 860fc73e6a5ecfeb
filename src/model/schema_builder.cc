#include "model/schema_builder.h"

#include <algorithm>

namespace adept {

SchemaBuilder::SchemaBuilder(std::string type_name, int version)
    : schema_(std::make_shared<ProcessSchema>(std::move(type_name), version)) {
  Node start;
  start.type = NodeType::kStartFlow;
  start.name = "start";
  cursor_ = AppendNode(std::move(start));
}

void SchemaBuilder::Latch(const Status& s) {
  if (status_.ok() && !s.ok()) status_ = s;
}

NodeId SchemaBuilder::AppendNode(Node node) {
  auto added = schema_->AddNode(std::move(node));
  if (!added.ok()) {
    Latch(added.status());
    return NodeId::Invalid();
  }
  if (cursor_.valid()) {
    auto edge = schema_->AddEdge(cursor_, *added, EdgeType::kControl);
    if (!edge.ok()) Latch(edge.status());
  }
  cursor_ = *added;
  return *added;
}

NodeId SchemaBuilder::Activity(const std::string& name) {
  return Activity(name, ActivityOptions{});
}

NodeId SchemaBuilder::Activity(const std::string& name,
                               const ActivityOptions& opts) {
  Node n;
  n.type = NodeType::kActivity;
  n.name = name;
  n.activity_template = opts.activity_template;
  n.role = opts.role;
  n.server = opts.server;
  return AppendNode(std::move(n));
}

DataId SchemaBuilder::Data(const std::string& name, DataType type) {
  auto added = schema_->AddData(name, type);
  if (!added.ok()) {
    Latch(added.status());
    return DataId::Invalid();
  }
  return *added;
}

void SchemaBuilder::Reads(NodeId node, DataId data, bool optional) {
  Latch(schema_->AddDataEdge(node, data, AccessMode::kRead, optional));
}

void SchemaBuilder::Writes(NodeId node, DataId data) {
  Latch(schema_->AddDataEdge(node, data, AccessMode::kWrite));
}

SchemaBuilder::BlockIds SchemaBuilder::Parallel(
    const std::vector<BranchFn>& branches) {
  if (branches.size() < 2) {
    Latch(Status::InvalidArgument("parallel block needs >= 2 branches"));
    return {};
  }
  Node split;
  split.type = NodeType::kAndSplit;
  split.name = "and_split";
  NodeId split_id = AppendNode(std::move(split));

  std::vector<NodeId> tails;
  for (const BranchFn& fn : branches) {
    cursor_ = split_id;
    fn(*this);
    tails.push_back(cursor_);
  }

  Node join;
  join.type = NodeType::kAndJoin;
  join.name = "and_join";
  cursor_ = NodeId::Invalid();  // suppress auto-link; we wire tails below
  NodeId join_id = AppendNode(std::move(join));
  for (NodeId tail : tails) {
    auto edge = schema_->AddEdge(tail, join_id, EdgeType::kControl);
    if (!edge.ok()) Latch(edge.status());
  }
  cursor_ = join_id;
  return {split_id, join_id};
}

SchemaBuilder::BlockIds SchemaBuilder::Conditional(
    DataId decision, const std::vector<BranchFn>& branches) {
  if (branches.size() < 2) {
    Latch(Status::InvalidArgument("conditional block needs >= 2 branches"));
    return {};
  }
  Node split;
  split.type = NodeType::kXorSplit;
  split.name = "xor_split";
  split.decision_data = decision;
  NodeId split_id = AppendNode(std::move(split));

  // Branch entry edges carry the branch index as selection code. The first
  // node appended inside a branch callback creates the split's new out-edge;
  // we detect it by diffing the split's out-edges around the callback.
  std::vector<NodeId> tails;
  for (size_t i = 0; i < branches.size(); ++i) {
    std::vector<EdgeId> before;
    schema_->VisitOutEdges(split_id,
                           [&](const Edge& e) { before.push_back(e.id); });
    cursor_ = split_id;
    branches[i](*this);
    tails.push_back(cursor_);
    schema_->VisitOutEdges(split_id, [&](const Edge& e) {
      if (std::find(before.begin(), before.end(), e.id) == before.end()) {
        (void)schema_->SetBranchValue(e.id, static_cast<int>(i));
      }
    });
  }

  Node join;
  join.type = NodeType::kXorJoin;
  join.name = "xor_join";
  cursor_ = NodeId::Invalid();
  NodeId join_id = AppendNode(std::move(join));
  for (size_t i = 0; i < tails.size(); ++i) {
    NodeId tail = tails[i];
    if (tail == split_id) {
      // Empty branch: direct split -> join edge carrying the branch value.
      auto edge = schema_->AddEdge(split_id, join_id, EdgeType::kControl,
                                   static_cast<int>(i));
      if (!edge.ok()) Latch(edge.status());
    } else {
      auto edge = schema_->AddEdge(tail, join_id, EdgeType::kControl);
      if (!edge.ok()) Latch(edge.status());
    }
  }
  cursor_ = join_id;
  return {split_id, join_id};
}

SchemaBuilder::BlockIds SchemaBuilder::Loop(DataId condition,
                                            const BranchFn& body) {
  Node ls;
  ls.type = NodeType::kLoopStart;
  ls.name = "loop_start";
  NodeId start_id = AppendNode(std::move(ls));

  body(*this);
  NodeId tail = cursor_;

  Node le;
  le.type = NodeType::kLoopEnd;
  le.name = "loop_end";
  le.loop_data = condition;
  cursor_ = NodeId::Invalid();
  NodeId end_id = AppendNode(std::move(le));
  if (tail == start_id) {
    Latch(Status::InvalidArgument("loop body must contain at least one node"));
  } else {
    auto edge = schema_->AddEdge(tail, end_id, EdgeType::kControl);
    if (!edge.ok()) Latch(edge.status());
  }
  auto loop_edge = schema_->AddEdge(end_id, start_id, EdgeType::kLoop);
  if (!loop_edge.ok()) Latch(loop_edge.status());
  cursor_ = end_id;
  return {start_id, end_id};
}

void SchemaBuilder::SyncEdge(NodeId from, NodeId to) {
  auto edge = schema_->AddEdge(from, to, EdgeType::kSync);
  if (!edge.ok()) Latch(edge.status());
}

Result<std::shared_ptr<const ProcessSchema>> SchemaBuilder::Build() {
  if (built_) return Status::FailedPrecondition("Build() called twice");
  built_ = true;
  Node end;
  end.type = NodeType::kEndFlow;
  end.name = "end";
  AppendNode(std::move(end));
  if (!status_.ok()) return status_;
  ADEPT_RETURN_IF_ERROR(schema_->Freeze());
  return std::shared_ptr<const ProcessSchema>(schema_);
}

}  // namespace adept
