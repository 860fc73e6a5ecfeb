#include "storage/substitution_block.h"

#include <algorithm>

namespace adept {

namespace {

bool DataEdgeEq(const DataEdge& a, const DataEdge& b) {
  return a.node == b.node && a.data == b.data && a.mode == b.mode &&
         a.optional == b.optional;
}

// One merge of two entity sequences that both visit in ascending id order.
// An id only `biased` has, or whose entity differs, goes to `changed`; an id
// only `base` has goes to `removed`. Both are filled in ascending id order.
template <typename Entity, typename Id, typename VisitBase,
          typename VisitBiased>
void MergeById(const VisitBase& visit_base, const VisitBiased& visit_biased,
               size_t biased_count, std::unordered_map<Id, Entity>& changed,
               std::unordered_set<Id>& removed) {
  std::vector<const Entity*> biased;
  biased.reserve(biased_count);
  visit_biased([&](const Entity& e) { biased.push_back(&e); });
  size_t next = 0;
  visit_base([&](const Entity& b) {
    for (; next < biased.size() && biased[next]->id < b.id; ++next) {
      changed.emplace(biased[next]->id, *biased[next]);
    }
    if (next < biased.size() && biased[next]->id == b.id) {
      if (!(*biased[next] == b)) changed.emplace(b.id, *biased[next]);
      ++next;
    } else {
      removed.insert(b.id);
    }
  });
  for (; next < biased.size(); ++next) {
    changed.emplace(biased[next]->id, *biased[next]);
  }
}

}  // namespace

size_t SubstitutionBlock::MemoryFootprint() const {
  size_t bytes = sizeof(*this);
  for (const auto& [_, n] : nodes) {
    bytes += 48 + sizeof(Node) + n.name.capacity() +
             n.activity_template.capacity();
  }
  bytes += edges.size() * (48 + sizeof(Edge));
  for (const auto& [_, d] : data) {
    bytes += 48 + sizeof(DataElement) + d.name.capacity();
  }
  bytes += added_data_edges.capacity() * sizeof(DataEdge);
  bytes += removed_nodes.size() * 24;
  bytes += removed_edges.size() * 24;
  bytes += removed_data.size() * 24;
  bytes += removed_data_edges.capacity() * sizeof(DataEdge);
  return bytes;
}

SubstitutionBlock ComputeSubstitutionBlock(const ProcessSchema& base,
                                           const ProcessSchema& biased) {
  SubstitutionBlock block;
  block.next_node_id = biased.next_node_id();
  block.next_edge_id = biased.next_edge_id();
  block.next_data_id = biased.next_data_id();
  block.version = biased.version();
  block.node_count = biased.node_count();
  block.edge_count = biased.edge_count();
  block.data_count = biased.data_count();

  MergeById<Node, NodeId>(
      [&](const auto& fn) { base.VisitNodes(fn); },
      [&](const auto& fn) { biased.VisitNodes(fn); }, biased.node_count(),
      block.nodes, block.removed_nodes);
  MergeById<Edge, EdgeId>(
      [&](const auto& fn) { base.VisitEdges(fn); },
      [&](const auto& fn) { biased.VisitEdges(fn); }, biased.edge_count(),
      block.edges, block.removed_edges);
  MergeById<DataElement, DataId>(
      [&](const auto& fn) { base.VisitData(fn); },
      [&](const auto& fn) { biased.VisitData(fn); }, biased.data_count(),
      block.data, block.removed_data);

  for (const DataEdge& de : biased.data_edges()) {
    bool in_base =
        std::any_of(base.data_edges().begin(), base.data_edges().end(),
                    [&](const DataEdge& b) { return DataEdgeEq(b, de); });
    if (!in_base) block.added_data_edges.push_back(de);
  }
  for (const DataEdge& de : base.data_edges()) {
    bool in_biased =
        std::any_of(biased.data_edges().begin(), biased.data_edges().end(),
                    [&](const DataEdge& b) { return DataEdgeEq(b, de); });
    if (!in_biased) block.removed_data_edges.push_back(de);
  }
  return block;
}

}  // namespace adept
