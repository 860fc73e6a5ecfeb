// OverlaySchema: a biased instance's execution schema resolved on the fly
// as "original schema + substitution block" without materialization
// (paper Fig. 2, the hybrid representation).
//
// The runtime executes against this view exactly as it would against a
// materialized ProcessSchema; every query first consults the substitution
// block (added/replaced/removed entities) and falls through to the shared
// base schema. Edges incident to removed nodes are hidden automatically.

#ifndef ADEPT_STORAGE_OVERLAY_SCHEMA_H_
#define ADEPT_STORAGE_OVERLAY_SCHEMA_H_

#include <memory>

#include "model/schema.h"
#include "model/schema_view.h"
#include "storage/substitution_block.h"

namespace adept {

class OverlaySchema final : public SchemaView {
 public:
  OverlaySchema(std::shared_ptr<const ProcessSchema> base,
                std::shared_ptr<const SubstitutionBlock> block);

  const std::string& type_name() const override { return base_->type_name(); }
  int version() const override { return block_->version; }
  NodeId start_node() const override { return base_->start_node(); }
  NodeId end_node() const override { return base_->end_node(); }
  // The block carries the counts; the view never walks itself for them.
  size_t node_count() const override { return block_->node_count; }
  size_t edge_count() const override { return block_->edge_count; }
  size_t data_count() const override { return block_->data_count; }

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

  // Materializes the overlay into a frozen, standalone schema.
  Result<std::shared_ptr<ProcessSchema>> Materialize() const;

  const std::shared_ptr<const ProcessSchema>& base() const { return base_; }
  const std::shared_ptr<const SubstitutionBlock>& block() const {
    return block_;
  }

  // Footprint attributable to this instance (the block; the base is shared).
  size_t MemoryFootprint() const {
    return sizeof(*this) + block_->MemoryFootprint();
  }

 private:
  bool EdgeVisible(const Edge& e) const;

  std::shared_ptr<const ProcessSchema> base_;
  std::shared_ptr<const SubstitutionBlock> block_;
};

}  // namespace adept

#endif  // ADEPT_STORAGE_OVERLAY_SCHEMA_H_
