// SubstitutionBlock: the minimal difference between a base schema and a
// biased instance's execution schema (paper Fig. 2).
//
// "For each biased instance we maintain a minimal substitution block that
// captures all changes applied to it so far. This block is then used to
// overlay parts of the original schema when accessing the instance."
//
// The block is computed as a structural diff (added/replaced and removed
// entities), which by construction guarantees
//     overlay(base, block) == apply(bias delta, base)
// — a property the test suite checks for randomized deltas. Both schemas
// visit their entities in ascending id order, so the diff is one merge per
// entity kind. The block also records the biased schema's entity counts,
// which an overlay reports without walking itself.
//
// A block is never serialized: recovery re-derives it from the bias.

#ifndef ADEPT_STORAGE_SUBSTITUTION_BLOCK_H_
#define ADEPT_STORAGE_SUBSTITUTION_BLOCK_H_

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "model/node.h"
#include "model/schema.h"

namespace adept {

struct SubstitutionBlock {
  // Entities present in the biased schema but absent from (or differing
  // from) the base. Keyed by id for O(1) overlay resolution.
  std::unordered_map<NodeId, Node> nodes;
  std::unordered_map<EdgeId, Edge> edges;
  std::unordered_map<DataId, DataElement> data;
  std::vector<DataEdge> added_data_edges;

  // Base entities hidden by the bias.
  std::unordered_set<NodeId> removed_nodes;
  std::unordered_set<EdgeId> removed_edges;
  std::unordered_set<DataId> removed_data;
  std::vector<DataEdge> removed_data_edges;

  // Id counters of the biased schema (for faithful materialization).
  uint32_t next_node_id = 0;
  uint32_t next_edge_id = 0;
  uint32_t next_data_id = 0;
  int version = 0;

  // Live entity counts of the biased schema.
  size_t node_count = 0;
  size_t edge_count = 0;
  size_t data_count = 0;

  bool empty() const {
    return nodes.empty() && edges.empty() && data.empty() &&
           added_data_edges.empty() && removed_nodes.empty() &&
           removed_edges.empty() && removed_data.empty() &&
           removed_data_edges.empty();
  }

  size_t MemoryFootprint() const;
};

// Diffs `biased` against `base`.
SubstitutionBlock ComputeSubstitutionBlock(const ProcessSchema& base,
                                           const ProcessSchema& biased);

}  // namespace adept

#endif  // ADEPT_STORAGE_SUBSTITUTION_BLOCK_H_
