#include "model/schema_view.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

namespace adept {

std::vector<NodeId> SchemaView::NodeIds() const {
  std::vector<NodeId> out;
  out.reserve(node_count());
  VisitNodes([&](const Node& n) { out.push_back(n.id); });
  return out;
}

std::vector<EdgeId> SchemaView::EdgeIds() const {
  std::vector<EdgeId> out;
  out.reserve(edge_count());
  VisitEdges([&](const Edge& e) { out.push_back(e.id); });
  return out;
}

std::vector<NodeId> SchemaView::Successors(NodeId node, EdgeType type) const {
  std::vector<NodeId> out;
  VisitOutEdges(node, [&](const Edge& e) {
    if (e.type == type) out.push_back(e.dst);
  });
  return out;
}

std::vector<NodeId> SchemaView::Predecessors(NodeId node, EdgeType type) const {
  std::vector<NodeId> out;
  VisitInEdges(node, [&](const Edge& e) {
    if (e.type == type) out.push_back(e.src);
  });
  return out;
}

NodeId SchemaView::ControlSuccessor(NodeId node) const {
  auto succs = Successors(node, EdgeType::kControl);
  if (succs.size() != 1) return NodeId::Invalid();
  return succs[0];
}

NodeId SchemaView::ControlPredecessor(NodeId node) const {
  auto preds = Predecessors(node, EdgeType::kControl);
  if (preds.size() != 1) return NodeId::Invalid();
  return preds[0];
}

const Edge* SchemaView::FindEdgeBetween(NodeId src, NodeId dst,
                                        EdgeType type) const {
  const Edge* found = nullptr;
  VisitOutEdges(src, [&](const Edge& e) {
    if (found == nullptr && e.dst == dst && e.type == type) {
      found = FindEdge(e.id);
    }
  });
  return found;
}

NodeId SchemaView::FindNodeByName(const std::string& name) const {
  NodeId found = NodeId::Invalid();
  VisitNodes([&](const Node& n) {
    if (!found.valid() && n.name == name) found = n.id;
  });
  return found;
}

DataId SchemaView::FindDataByName(const std::string& name) const {
  DataId found = DataId::Invalid();
  VisitData([&](const DataElement& d) {
    if (!found.valid() && d.name == name) found = d.id;
  });
  return found;
}

std::vector<DataEdge> SchemaView::DataEdgesOf(NodeId node,
                                              AccessMode mode) const {
  std::vector<DataEdge> out;
  VisitDataEdges(node, [&](const DataEdge& de) {
    if (de.mode == mode) out.push_back(de);
  });
  return out;
}

bool SchemaView::ReachableByControl(NodeId a, NodeId b) const {
  if (a == b) return true;
  std::unordered_set<NodeId> visited;
  std::deque<NodeId> queue{a};
  visited.insert(a);
  while (!queue.empty()) {
    NodeId cur = queue.front();
    queue.pop_front();
    bool hit = false;
    VisitOutEdges(cur, [&](const Edge& e) {
      if (e.type != EdgeType::kControl || hit) return;
      if (e.dst == b) {
        hit = true;
        return;
      }
      if (visited.insert(e.dst).second) queue.push_back(e.dst);
    });
    if (hit) return true;
  }
  return false;
}

std::vector<NodeId> SchemaView::TopologicalOrder() const {
  // Kahn's algorithm over control edges.
  std::unordered_map<NodeId, int> indegree;
  std::vector<NodeId> nodes = NodeIds();
  for (NodeId n : nodes) indegree[n] = 0;
  VisitEdges([&](const Edge& e) {
    if (e.type == EdgeType::kControl) indegree[e.dst]++;
  });
  std::deque<NodeId> ready;
  for (NodeId n : nodes) {
    if (indegree[n] == 0) ready.push_back(n);
  }
  // Deterministic tie-breaking: smallest id first.
  std::sort(ready.begin(), ready.end());
  std::vector<NodeId> order;
  order.reserve(nodes.size());
  while (!ready.empty()) {
    NodeId cur = ready.front();
    ready.pop_front();
    order.push_back(cur);
    std::vector<NodeId> next;
    VisitOutEdges(cur, [&](const Edge& e) {
      if (e.type != EdgeType::kControl) return;
      if (--indegree[e.dst] == 0) next.push_back(e.dst);
    });
    std::sort(next.begin(), next.end());
    for (NodeId n : next) ready.push_back(n);
  }
  return order;  // shorter than nodes.size() iff control graph has a cycle
}

}  // namespace adept
