#include "storage/overlay_schema.h"

#include <algorithm>

namespace adept {

OverlaySchema::OverlaySchema(std::shared_ptr<const ProcessSchema> base,
                             std::shared_ptr<const SubstitutionBlock> block)
    : base_(std::move(base)), block_(std::move(block)) {}

const Node* OverlaySchema::FindNode(NodeId id) const {
  auto it = block_->nodes.find(id);
  if (it != block_->nodes.end()) return &it->second;
  if (block_->removed_nodes.count(id) > 0) return nullptr;
  return base_->FindNode(id);
}

const Edge* OverlaySchema::FindEdge(EdgeId id) const {
  auto it = block_->edges.find(id);
  if (it != block_->edges.end()) {
    return EdgeVisible(it->second) ? &it->second : nullptr;
  }
  if (block_->removed_edges.count(id) > 0) return nullptr;
  const Edge* e = base_->FindEdge(id);
  if (e == nullptr || !EdgeVisible(*e)) return nullptr;
  return e;
}

const DataElement* OverlaySchema::FindData(DataId id) const {
  auto it = block_->data.find(id);
  if (it != block_->data.end()) return &it->second;
  if (block_->removed_data.count(id) > 0) return nullptr;
  return base_->FindData(id);
}

bool OverlaySchema::EdgeVisible(const Edge& e) const {
  return FindNode(e.src) != nullptr && FindNode(e.dst) != nullptr;
}

void OverlaySchema::VisitNodes(
    const std::function<void(const Node&)>& fn) const {
  // Base ids first (replacements emitted in place), then bias-added nodes.
  // Added ids are always greater than base ids (see id_allocator.h), so the
  // combined order stays ascending.
  base_->VisitNodes([&](const Node& n) {
    if (block_->removed_nodes.count(n.id) > 0) return;
    auto it = block_->nodes.find(n.id);
    fn(it != block_->nodes.end() ? it->second : n);
  });
  std::vector<NodeId> added;
  for (const auto& [id, _] : block_->nodes) {
    if (base_->FindNode(id) == nullptr) added.push_back(id);
  }
  std::sort(added.begin(), added.end());
  for (NodeId id : added) fn(block_->nodes.at(id));
}

void OverlaySchema::VisitEdges(
    const std::function<void(const Edge&)>& fn) const {
  base_->VisitEdges([&](const Edge& e) {
    if (block_->removed_edges.count(e.id) > 0) return;
    auto it = block_->edges.find(e.id);
    const Edge& effective = it != block_->edges.end() ? it->second : e;
    if (EdgeVisible(effective)) fn(effective);
  });
  std::vector<EdgeId> added;
  for (const auto& [id, _] : block_->edges) {
    if (base_->FindEdge(id) == nullptr) added.push_back(id);
  }
  std::sort(added.begin(), added.end());
  for (EdgeId id : added) {
    const Edge& e = block_->edges.at(id);
    if (EdgeVisible(e)) fn(e);
  }
}

void OverlaySchema::VisitData(
    const std::function<void(const DataElement&)>& fn) const {
  base_->VisitData([&](const DataElement& d) {
    if (block_->removed_data.count(d.id) > 0) return;
    auto it = block_->data.find(d.id);
    fn(it != block_->data.end() ? it->second : d);
  });
  std::vector<DataId> added;
  for (const auto& [id, _] : block_->data) {
    if (base_->FindData(id) == nullptr) added.push_back(id);
  }
  std::sort(added.begin(), added.end());
  for (DataId id : added) fn(block_->data.at(id));
}

void OverlaySchema::VisitOutEdges(
    NodeId node, const std::function<void(const Edge&)>& fn) const {
  if (block_->edges.empty() && block_->removed_edges.empty() &&
      block_->removed_nodes.empty()) {
    base_->VisitOutEdges(node, fn);
    return;
  }
  std::vector<const Edge*> out;
  base_->VisitOutEdges(node, [&](const Edge& e) {
    if (block_->removed_edges.count(e.id) > 0) return;
    auto it = block_->edges.find(e.id);
    const Edge& effective = it != block_->edges.end() ? it->second : e;
    if (effective.src == node && EdgeVisible(effective)) {
      out.push_back(&effective);
    }
  });
  for (const auto& [id, e] : block_->edges) {
    if (e.src != node || !EdgeVisible(e)) continue;
    // Replacements whose base src was already `node` were handled above.
    const Edge* base_edge = base_->FindEdge(id);
    if (base_edge != nullptr && base_edge->src == node) continue;
    out.push_back(&e);
  }
  std::sort(out.begin(), out.end(),
            [](const Edge* a, const Edge* b) { return a->id < b->id; });
  for (const Edge* e : out) fn(*e);
}

void OverlaySchema::VisitInEdges(
    NodeId node, const std::function<void(const Edge&)>& fn) const {
  if (block_->edges.empty() && block_->removed_edges.empty() &&
      block_->removed_nodes.empty()) {
    base_->VisitInEdges(node, fn);
    return;
  }
  std::vector<const Edge*> in;
  base_->VisitInEdges(node, [&](const Edge& e) {
    if (block_->removed_edges.count(e.id) > 0) return;
    auto it = block_->edges.find(e.id);
    const Edge& effective = it != block_->edges.end() ? it->second : e;
    if (effective.dst == node && EdgeVisible(effective)) {
      in.push_back(&effective);
    }
  });
  for (const auto& [id, e] : block_->edges) {
    if (e.dst != node || !EdgeVisible(e)) continue;
    const Edge* base_edge = base_->FindEdge(id);
    if (base_edge != nullptr && base_edge->dst == node) continue;
    in.push_back(&e);
  }
  std::sort(in.begin(), in.end(),
            [](const Edge* a, const Edge* b) { return a->id < b->id; });
  for (const Edge* e : in) fn(*e);
}

void OverlaySchema::VisitDataEdges(
    NodeId node, const std::function<void(const DataEdge&)>& fn) const {
  auto removed = [&](const DataEdge& de) {
    return std::any_of(block_->removed_data_edges.begin(),
                       block_->removed_data_edges.end(),
                       [&](const DataEdge& r) {
                         return r.node == de.node && r.data == de.data &&
                                r.mode == de.mode;
                       });
  };
  if (FindNode(node) == nullptr) return;
  base_->VisitDataEdges(node, [&](const DataEdge& de) {
    if (!removed(de) && FindData(de.data) != nullptr) fn(de);
  });
  for (const DataEdge& de : block_->added_data_edges) {
    if (de.node == node && FindData(de.data) != nullptr) fn(de);
  }
}

Result<std::shared_ptr<ProcessSchema>> OverlaySchema::Materialize() const {
  auto schema = std::make_shared<ProcessSchema>(type_name(), version());
  Status st = Status::OK();
  VisitNodes([&](const Node& n) {
    if (st.ok()) st = schema->AddNodeWithId(n);
  });
  VisitEdges([&](const Edge& e) {
    if (st.ok()) st = schema->AddEdgeWithId(e);
  });
  VisitData([&](const DataElement& d) {
    if (st.ok()) st = schema->AddDataWithId(d);
  });
  VisitNodes([&](const Node& n) {
    VisitDataEdges(n.id, [&](const DataEdge& de) {
      if (st.ok()) {
        st = schema->AddDataEdge(de.node, de.data, de.mode, de.optional);
      }
    });
  });
  ADEPT_RETURN_IF_ERROR(st);
  schema->BumpCounters(block_->next_node_id, block_->next_edge_id,
                       block_->next_data_id);
  ADEPT_RETURN_IF_ERROR(schema->Freeze());
  return schema;
}

}  // namespace adept
