// ProcessSchema: the concrete, owning representation of a WSM net.
//
// Lifecycle: a schema is built (or cloned) in *mutable* state, populated via
// the Add*/Remove* primitives, then Freeze()d. The control/sync/loop
// adjacency lists are maintained by every edge mutation in both states, so
// graph lookups cost O(degree) even mid-transformation (change operations
// walk the block structure of a mutable candidate, model/block_tree.h).
//
// No schema holds a dangling edge, and this is enforced at mutation time:
// AddEdge and AddEdgeWithId reject an edge whose endpoint does not exist,
// and RemoveNode drops every incident edge. Freezing therefore only locates
// the unique start/end nodes, indexes data edges and attempts to parse the
// block structure; it derives nothing else (no topological ranks: the
// readers of a topological order, the verifier's fallback for unparsable
// schemas and the monitor's rendering, call SchemaView::TopologicalOrder
// when they need one). After Freeze() the schema is immutable and may be
// shared (shared_ptr<const ProcessSchema>) between the repository,
// instances, and overlay views.
//
// Node/edge/data ids are *stable across versions*: Clone() preserves ids and
// id counters, deleted ids are never reused. This is what lets the
// compliance checker and the storage overlay correlate entities between a
// schema version S, its successor S', and instance-specific schemas.

#ifndef ADEPT_MODEL_SCHEMA_H_
#define ADEPT_MODEL_SCHEMA_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "model/block_tree.h"
#include "model/node.h"
#include "model/schema_view.h"
#include "model/types.h"

namespace adept {

class ProcessSchema final : public SchemaView {
 public:
  ProcessSchema(std::string type_name, int version);

  ProcessSchema(const ProcessSchema&) = delete;
  ProcessSchema& operator=(const ProcessSchema&) = delete;

  // --- Mutation API (only legal while !frozen()) ---------------------------

  // Adds a node; `node.id` is assigned by the schema and returned.
  Result<NodeId> AddNode(Node node);
  // Adds a node under a caller-chosen id (deserialization, overlays).
  // The id must be unused; counters advance past it.
  Status AddNodeWithId(Node node);

  // Both fail (kInvalidArgument) when an endpoint does not exist.
  Result<EdgeId> AddEdge(NodeId src, NodeId dst, EdgeType type,
                         int branch_value = 0);
  Status AddEdgeWithId(Edge edge);

  Result<DataId> AddData(std::string name, DataType type);
  Status AddDataWithId(DataElement element);

  Status AddDataEdge(NodeId node, DataId data, AccessMode mode,
                     bool optional = false);

  // Removes a node together with all incident control/sync/loop edges and
  // data edges. The caller (change framework) is responsible for re-linking
  // the graph.
  Status RemoveNode(NodeId id);
  Status RemoveEdge(EdgeId id);
  Status RemoveData(DataId id);
  Status RemoveDataEdge(NodeId node, DataId data, AccessMode mode);

  // Mutable access to a live node (attribute edits); nullptr if absent.
  Node* MutableNode(NodeId id);
  // Sets an edge's XOR selection code. Edges expose no mutable pointer:
  // rewriting an endpoint in place would bypass the adjacency lists.
  Status SetBranchValue(EdgeId id, int branch_value);

  void set_version(int version) { version_ = version; }

  // --- Freezing -------------------------------------------------------------

  // Switches to immutable state. Fails (kVerificationFailed) only on
  // malformed shapes that make indexes meaningless: a missing/duplicate
  // start or end node. Deeper properties (block nesting, sync-edge rules,
  // data flow) are the verifier's job; a frozen schema may still be
  // rejected by the verifier.
  Status Freeze();
  bool frozen() const { return frozen_; }

  // Deep copy in mutable state (ids and counters preserved).
  std::shared_ptr<ProcessSchema> Clone() const;

  // --- SchemaView -----------------------------------------------------------

  const std::string& type_name() const override { return type_name_; }
  int version() const override { return version_; }
  // Frozen schemas return the cached unique start/end; mutable schemas scan
  // the nodes. Edge adjacency is O(degree) in both states.
  NodeId start_node() const override;
  NodeId end_node() const override;
  size_t node_count() const override { return nodes_.size(); }
  size_t edge_count() const override { return edges_.size(); }
  size_t data_count() const override { return data_.size(); }
  const Node* FindNode(NodeId id) const override;
  const Edge* FindEdge(EdgeId id) const override;
  const DataElement* FindData(DataId id) const override;
  void VisitNodes(const std::function<void(const Node&)>& fn) const override;
  void VisitEdges(const std::function<void(const Edge&)>& fn) const override;
  void VisitData(
      const std::function<void(const DataElement&)>& fn) const override;
  void VisitOutEdges(
      NodeId node, const std::function<void(const Edge&)>& fn) const override;
  void VisitInEdges(
      NodeId node, const std::function<void(const Edge&)>& fn) const override;
  void VisitDataEdges(NodeId node,
                      const std::function<void(const DataEdge&)>& fn)
      const override;

  // --- Frozen-only structural services ---------------------------------------

  // Parsed block structure. kVerificationFailed if parsing failed at
  // Freeze() (malformed nesting); the stored failure message is returned.
  Result<const BlockTree*> block_tree() const;

  // All data edges (in insertion order).
  const std::vector<DataEdge>& data_edges() const { return data_edges_; }

  // Approximate heap footprint in bytes (used by the Fig. 2 storage bench).
  size_t MemoryFootprint() const;

  // Id counters (serialization support).
  uint32_t next_node_id() const { return next_node_id_; }
  uint32_t next_edge_id() const { return next_edge_id_; }
  uint32_t next_data_id() const { return next_data_id_; }
  void BumpCounters(uint32_t node, uint32_t edge, uint32_t data);

 private:
  using Adjacency = std::unordered_map<uint32_t, std::vector<EdgeId>>;

  Status CheckMutable() const;
  // Edge id bookkeeping in the per-node lists (kept sorted by edge id).
  static void Link(Adjacency& adjacency, NodeId node, EdgeId edge);
  static void Unlink(Adjacency& adjacency, NodeId node, EdgeId edge);
  void InsertEdge(const Edge& edge);

  std::string type_name_;
  int version_;
  bool frozen_ = false;

  // Ordered maps keyed by id value: id spaces are sparse (instance-level
  // changes allocate from a reserved high range, deletions leave holes), so
  // dense vectors would waste slots; iteration order stays ascending.
  std::map<uint32_t, Node> nodes_;
  std::map<uint32_t, Edge> edges_;
  std::map<uint32_t, DataElement> data_;
  std::vector<DataEdge> data_edges_;
  uint32_t next_node_id_ = 0;
  uint32_t next_edge_id_ = 0;
  uint32_t next_data_id_ = 0;

  // Maintained by every edge mutation; keyed by node id, each list sorted
  // by edge id. A node without edges has no entry.
  Adjacency out_edges_;
  Adjacency in_edges_;

  // Built by Freeze().
  NodeId start_;
  NodeId end_;
  std::unordered_map<uint32_t, std::vector<size_t>> node_data_edges_;
  std::optional<BlockTree> block_tree_;
  std::string block_tree_error_;
};

}  // namespace adept

#endif  // ADEPT_MODEL_SCHEMA_H_
