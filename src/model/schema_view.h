// SchemaView: read interface over a process schema.
//
// The runtime, verifier, and compliance checker operate on this interface
// so they work identically on (a) a materialized ProcessSchema and (b) a
// storage overlay that resolves a biased instance's execution schema as
// "original schema + substitution block" without materializing it (paper
// Fig. 2). Keeping the interface purely read-only also documents that an
// execution schema is immutable while an instance runs; changes always go
// through the change framework.

#ifndef ADEPT_MODEL_SCHEMA_VIEW_H_
#define ADEPT_MODEL_SCHEMA_VIEW_H_

#include <functional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "model/node.h"
#include "model/types.h"

namespace adept {

class SchemaView {
 public:
  virtual ~SchemaView() = default;

  // Process type name (shared by all versions of the type).
  virtual const std::string& type_name() const = 0;
  // Version number within the type (1-based; ad-hoc biased instance schemas
  // keep the version of the schema they deviate from).
  virtual int version() const = 0;

  virtual NodeId start_node() const = 0;
  virtual NodeId end_node() const = 0;

  // Numbers of live entities.
  virtual size_t node_count() const = 0;
  virtual size_t edge_count() const = 0;
  virtual size_t data_count() const = 0;

  // Lookup; returns nullptr when the id is unknown or deleted. The pointer
  // is valid as long as the view (and its backing storage) is alive.
  virtual const Node* FindNode(NodeId id) const = 0;
  virtual const Edge* FindEdge(EdgeId id) const = 0;
  virtual const DataElement* FindData(DataId id) const = 0;

  // Enumeration (stable order: ascending id).
  virtual void VisitNodes(const std::function<void(const Node&)>& fn) const = 0;
  virtual void VisitEdges(const std::function<void(const Edge&)>& fn) const = 0;
  virtual void VisitData(
      const std::function<void(const DataElement&)>& fn) const = 0;

  // Adjacency (stable order: ascending edge id).
  virtual void VisitOutEdges(
      NodeId node, const std::function<void(const Edge&)>& fn) const = 0;
  virtual void VisitInEdges(
      NodeId node, const std::function<void(const Edge&)>& fn) const = 0;
  virtual void VisitDataEdges(
      NodeId node, const std::function<void(const DataEdge&)>& fn) const = 0;

  // --- Convenience helpers built on the virtual core -----------------------

  std::vector<NodeId> NodeIds() const;
  std::vector<EdgeId> EdgeIds() const;

  // Successors/predecessors over edges of `type`.
  std::vector<NodeId> Successors(NodeId node, EdgeType type) const;
  std::vector<NodeId> Predecessors(NodeId node, EdgeType type) const;

  // Single control successor/predecessor, or invalid id if none/ambiguous.
  NodeId ControlSuccessor(NodeId node) const;
  NodeId ControlPredecessor(NodeId node) const;

  // Finds the (first) edge of `type` from src to dst; nullptr if absent.
  const Edge* FindEdgeBetween(NodeId src, NodeId dst, EdgeType type) const;

  // Finds a node by (unique) name; invalid id if absent. Linear scan —
  // intended for tests/examples, not hot paths.
  NodeId FindNodeByName(const std::string& name) const;
  DataId FindDataByName(const std::string& name) const;

  // All data edges of `node` with the given mode.
  std::vector<DataEdge> DataEdgesOf(NodeId node, AccessMode mode) const;

  // True if `b` is reachable from `a` via control edges only (loop edges
  // excluded). BFS; O(V+E).
  bool ReachableByControl(NodeId a, NodeId b) const;

  // Topological order of all nodes over control edges (loop edges ignored).
  // Well-formed schemas are acyclic in this projection.
  std::vector<NodeId> TopologicalOrder() const;
};

}  // namespace adept

#endif  // ADEPT_MODEL_SCHEMA_VIEW_H_
