// Change operations: ADEPT2's "complete set of operations for defining
// changes at a high semantic level".
//
// Each operation encapsulates
//   * structural pre-conditions (checked against the base schema),
//   * the graph transformation itself (applied to a mutable clone),
//   * pinned ids for deterministic re-application (see id_allocator.h),
//   * a target signature used by the semantic overlap analysis.
//
// State-related pre-conditions (may this op be applied to a *running*
// instance in its current marking?) are deliberately *not* here — they are
// the per-operation compliance conditions of Fig. 1 and live in
// compliance/conditions.h, because the same predicate decides both ad-hoc
// changes and type-change propagation.

#ifndef ADEPT_CHANGE_CHANGE_OP_H_
#define ADEPT_CHANGE_CHANGE_OP_H_

#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/json.h"
#include "common/status.h"
#include "change/id_allocator.h"
#include "model/schema.h"
#include "verify/analysis.h"

namespace adept {

enum class ChangeOpKind {
  kSerialInsert = 0,
  kParallelInsert,
  kBranchInsert,
  kDeleteActivity,
  kMoveActivity,
  kInsertSyncEdge,
  kDeleteSyncEdge,
  kAddDataElement,
  kAddDataEdge,
  kDeleteDataEdge,
  kReplaceActivityImpl,
};

const char* ChangeOpKindToString(ChangeOpKind kind);

// Payload describing an activity to be inserted.
struct NewActivitySpec {
  std::string name;
  std::string activity_template;
  RoleId role;
  // Data edges wired to *existing* data elements of the schema.
  struct DataWiring {
    DataId data;
    AccessMode mode = AccessMode::kRead;
    bool optional = false;
  };
  std::vector<DataWiring> data_wirings;
};

class ChangeOp {
 public:
  virtual ~ChangeOp() = default;

  virtual ChangeOpKind kind() const = 0;
  virtual std::string Describe() const = 0;
  virtual std::unique_ptr<ChangeOp> Clone() const = 0;

  // Applies the operation to `schema` (a mutable clone of the base),
  // checking structural pre-conditions. Allocates or re-uses pinned ids via
  // `alloc`.
  //
  // Precondition: `schema` is a clone of a verified schema plus the earlier
  // ops of the same delta. Verified schemas parse into a block tree and the
  // ops keep the block structure they find, so the ops that need structure
  // (parallel and branch insertion) ask the walks of model/block_tree.h
  // instead of parsing the candidate; on a candidate that parses a walk
  // gives the tree's answer. A candidate that does not parse (a parallel
  // insert whose range ends at a loop start breaks the nesting) still
  // fails, at Freeze() or verification rather than inside a later op.
  virtual Status ApplyTo(ProcessSchema& schema, IdAllocator& alloc) = 0;

  // Nodes of the *base* schema this op depends on or modifies (anchors of
  // inserts, targets of deletes/moves/sync edges). Used by the overlap
  // analysis; newly created nodes are not included.
  virtual std::vector<NodeId> TargetNodes() const = 0;

  // Incremental-verification region hooks (verify/analysis.h). RegionBefore
  // runs against the schema the op is about to modify and records every
  // pre-change node whose block summary the op can invalidate; the default
  // (the op's target nodes) suffices for ops that only touch their targets'
  // immediate blocks. Ops that detach a node from its context (delete,
  // move) also record the node's current edge partners — those stay behind
  // in a block whose identity key does not change. RegionAfter runs after a
  // successful ApplyTo and records created entities (pinned ids).
  virtual void RegionBefore(const SchemaView& schema,
                            ChangeRegion& region) const;
  virtual void RegionAfter(const SchemaView& schema,
                           ChangeRegion& region) const;

  // Renders entity references in signatures. Delta::Signatures() maps ids
  // created by sibling ops to symbolic tokens ("@n2.0" = op 2, slot 0), so
  // two deltas with identical structure but different pinned ids (type
  // change vs ad-hoc bias) produce identical signatures.
  struct SignatureContext {
    std::function<std::string(NodeId)> node = [](NodeId id) {
      return "n" + std::to_string(id.value());
    };
    std::function<std::string(DataId)> data = [](DataId id) {
      return "d" + std::to_string(id.value());
    };
  };

  // Stable signature for equivalence detection between two deltas
  // (kind + parameters + payload, ids of created entities symbolic).
  virtual std::string Signature(const SignatureContext& ctx) const = 0;
  std::string Signature() const { return Signature(SignatureContext{}); }

  virtual JsonValue ToJson() const = 0;

  // Ids created by the op on its first application (empty before).
  const std::vector<uint32_t>& pinned_node_ids() const {
    return pinned_node_ids_;
  }

  // Restores pinned ids from serialized form (used by ChangeOpFromJson).
  void DeserializePins(const JsonValue& json);

 protected:
  // Returns the id for creation slot `slot`, pinning newly allocated ids.
  NodeId PinNode(size_t slot, const ProcessSchema& schema, IdAllocator& alloc);
  EdgeId PinEdge(size_t slot, const ProcessSchema& schema, IdAllocator& alloc);
  DataId PinData(size_t slot, const ProcessSchema& schema, IdAllocator& alloc);

  void SerializePins(JsonValue& json) const;
  void CopyPinsTo(ChangeOp& other) const;

  std::vector<uint32_t> pinned_node_ids_;
  std::vector<uint32_t> pinned_edge_ids_;
  std::vector<uint32_t> pinned_data_ids_;
};

// ---------------------------------------------------------------------------
// Concrete operations
// ---------------------------------------------------------------------------

// Inserts `spec` into the control edge pred -> succ.
class SerialInsertOp final : public ChangeOp {
 public:
  SerialInsertOp(NewActivitySpec spec, NodeId pred, NodeId succ)
      : spec_(std::move(spec)), pred_(pred), succ_(succ) {}

  ChangeOpKind kind() const override { return ChangeOpKind::kSerialInsert; }
  std::string Describe() const override;
  std::unique_ptr<ChangeOp> Clone() const override;
  Status ApplyTo(ProcessSchema& schema, IdAllocator& alloc) override;
  std::vector<NodeId> TargetNodes() const override { return {pred_, succ_}; }
  std::string Signature(const SignatureContext& ctx) const override;
  JsonValue ToJson() const override;

  const NewActivitySpec& spec() const { return spec_; }
  NodeId pred() const { return pred_; }
  NodeId succ() const { return succ_; }
  // Id of the inserted activity (valid after first application).
  NodeId inserted_node() const {
    return pinned_node_ids_.empty() ? NodeId::Invalid()
                                    : NodeId(pinned_node_ids_[0]);
  }

 private:
  NewActivitySpec spec_;
  NodeId pred_;
  NodeId succ_;
};

// Wraps the SESE region [from .. to] into a new AND block and inserts
// `spec` as the second branch (X runs parallel to the region).
class ParallelInsertOp final : public ChangeOp {
 public:
  ParallelInsertOp(NewActivitySpec spec, NodeId from, NodeId to)
      : spec_(std::move(spec)), from_(from), to_(to) {}

  ChangeOpKind kind() const override { return ChangeOpKind::kParallelInsert; }
  std::string Describe() const override;
  std::unique_ptr<ChangeOp> Clone() const override;
  Status ApplyTo(ProcessSchema& schema, IdAllocator& alloc) override;
  std::vector<NodeId> TargetNodes() const override { return {from_, to_}; }
  std::string Signature(const SignatureContext& ctx) const override;
  JsonValue ToJson() const override;

  const NewActivitySpec& spec() const { return spec_; }
  NodeId from() const { return from_; }
  NodeId to() const { return to_; }
  NodeId inserted_node() const {
    return pinned_node_ids_.empty() ? NodeId::Invalid()
                                    : NodeId(pinned_node_ids_[0]);
  }

 private:
  NewActivitySpec spec_;
  NodeId from_;
  NodeId to_;
};

// Adds `spec` as a new branch (selection code `branch_value`) to an
// existing XOR block.
class BranchInsertOp final : public ChangeOp {
 public:
  BranchInsertOp(NewActivitySpec spec, NodeId xor_split, int branch_value)
      : spec_(std::move(spec)),
        split_(xor_split),
        branch_value_(branch_value) {}

  ChangeOpKind kind() const override { return ChangeOpKind::kBranchInsert; }
  std::string Describe() const override;
  std::unique_ptr<ChangeOp> Clone() const override;
  Status ApplyTo(ProcessSchema& schema, IdAllocator& alloc) override;
  std::vector<NodeId> TargetNodes() const override { return {split_}; }
  std::string Signature(const SignatureContext& ctx) const override;
  JsonValue ToJson() const override;

  const NewActivitySpec& spec() const { return spec_; }
  NodeId split() const { return split_; }
  int branch_value() const { return branch_value_; }

 private:
  NewActivitySpec spec_;
  NodeId split_;
  int branch_value_;
};

// Removes an activity, re-linking its control neighbourhood.
class DeleteActivityOp final : public ChangeOp {
 public:
  explicit DeleteActivityOp(NodeId target) : target_(target) {}

  ChangeOpKind kind() const override { return ChangeOpKind::kDeleteActivity; }
  std::string Describe() const override;
  std::unique_ptr<ChangeOp> Clone() const override;
  Status ApplyTo(ProcessSchema& schema, IdAllocator& alloc) override;
  std::vector<NodeId> TargetNodes() const override { return {target_}; }
  // The delete re-links the target's neighbours; their block keeps its
  // identity key, so the neighbours must be dirtied explicitly.
  void RegionBefore(const SchemaView& schema,
                    ChangeRegion& region) const override;
  std::string Signature(const SignatureContext& ctx) const override;
  JsonValue ToJson() const override;

  NodeId target() const { return target_; }

 private:
  NodeId target_;
};

// Moves an existing activity into the control edge new_pred -> new_succ
// ("shift"). The edge is looked up after unlinking the activity, so moving
// within the direct neighbourhood works.
class MoveActivityOp final : public ChangeOp {
 public:
  MoveActivityOp(NodeId target, NodeId new_pred, NodeId new_succ)
      : target_(target), new_pred_(new_pred), new_succ_(new_succ) {}

  ChangeOpKind kind() const override { return ChangeOpKind::kMoveActivity; }
  std::string Describe() const override;
  std::unique_ptr<ChangeOp> Clone() const override;
  Status ApplyTo(ProcessSchema& schema, IdAllocator& alloc) override;
  std::vector<NodeId> TargetNodes() const override {
    return {target_, new_pred_, new_succ_};
  }
  // The source neighbourhood (old pred/succ, sync partners) stays behind in
  // a key-stable block after the move; dirty it from the pre-change schema.
  void RegionBefore(const SchemaView& schema,
                    ChangeRegion& region) const override;
  std::string Signature(const SignatureContext& ctx) const override;
  JsonValue ToJson() const override;

  NodeId target() const { return target_; }
  NodeId new_pred() const { return new_pred_; }
  NodeId new_succ() const { return new_succ_; }

 private:
  NodeId target_;
  NodeId new_pred_;
  NodeId new_succ_;
};

// Adds a synchronization edge from -> to (paper Fig. 1: insertSyncEdge).
class InsertSyncEdgeOp final : public ChangeOp {
 public:
  InsertSyncEdgeOp(NodeId from, NodeId to) : from_(from), to_(to) {}

  ChangeOpKind kind() const override { return ChangeOpKind::kInsertSyncEdge; }
  std::string Describe() const override;
  std::unique_ptr<ChangeOp> Clone() const override;
  Status ApplyTo(ProcessSchema& schema, IdAllocator& alloc) override;
  std::vector<NodeId> TargetNodes() const override { return {from_, to_}; }
  std::string Signature(const SignatureContext& ctx) const override;
  JsonValue ToJson() const override;

  NodeId from() const { return from_; }
  NodeId to() const { return to_; }

 private:
  NodeId from_;
  NodeId to_;
};

// Removes the synchronization edge from -> to.
class DeleteSyncEdgeOp final : public ChangeOp {
 public:
  DeleteSyncEdgeOp(NodeId from, NodeId to) : from_(from), to_(to) {}

  ChangeOpKind kind() const override { return ChangeOpKind::kDeleteSyncEdge; }
  std::string Describe() const override;
  std::unique_ptr<ChangeOp> Clone() const override;
  Status ApplyTo(ProcessSchema& schema, IdAllocator& alloc) override;
  std::vector<NodeId> TargetNodes() const override { return {from_, to_}; }
  std::string Signature(const SignatureContext& ctx) const override;
  JsonValue ToJson() const override;

  NodeId from() const { return from_; }
  NodeId to() const { return to_; }

 private:
  NodeId from_;
  NodeId to_;
};

// Declares a new process data element.
class AddDataElementOp final : public ChangeOp {
 public:
  AddDataElementOp(std::string name, DataType type)
      : name_(std::move(name)), type_(type) {}

  ChangeOpKind kind() const override { return ChangeOpKind::kAddDataElement; }
  std::string Describe() const override;
  std::unique_ptr<ChangeOp> Clone() const override;
  Status ApplyTo(ProcessSchema& schema, IdAllocator& alloc) override;
  std::vector<NodeId> TargetNodes() const override { return {}; }
  std::string Signature(const SignatureContext& ctx) const override;
  JsonValue ToJson() const override;

  DataId created_data() const {
    return pinned_data_ids_.empty() ? DataId::Invalid()
                                    : DataId(pinned_data_ids_[0]);
  }

 private:
  std::string name_;
  DataType type_;
};

// Adds a read/write data edge between an existing node and data element.
class AddDataEdgeOp final : public ChangeOp {
 public:
  AddDataEdgeOp(NodeId node, DataId data, AccessMode mode, bool optional)
      : node_(node), data_(data), mode_(mode), optional_(optional) {}

  ChangeOpKind kind() const override { return ChangeOpKind::kAddDataEdge; }
  std::string Describe() const override;
  std::unique_ptr<ChangeOp> Clone() const override;
  Status ApplyTo(ProcessSchema& schema, IdAllocator& alloc) override;
  std::vector<NodeId> TargetNodes() const override { return {node_}; }
  std::string Signature(const SignatureContext& ctx) const override;
  JsonValue ToJson() const override;

  NodeId node() const { return node_; }
  DataId data() const { return data_; }
  AccessMode mode() const { return mode_; }
  bool optional() const { return optional_; }

 private:
  NodeId node_;
  DataId data_;
  AccessMode mode_;
  bool optional_;
};

// Removes a data edge.
class DeleteDataEdgeOp final : public ChangeOp {
 public:
  DeleteDataEdgeOp(NodeId node, DataId data, AccessMode mode)
      : node_(node), data_(data), mode_(mode) {}

  ChangeOpKind kind() const override { return ChangeOpKind::kDeleteDataEdge; }
  std::string Describe() const override;
  std::unique_ptr<ChangeOp> Clone() const override;
  Status ApplyTo(ProcessSchema& schema, IdAllocator& alloc) override;
  std::vector<NodeId> TargetNodes() const override { return {node_}; }
  std::string Signature(const SignatureContext& ctx) const override;
  JsonValue ToJson() const override;

  NodeId node() const { return node_; }
  DataId data() const { return data_; }
  AccessMode mode() const { return mode_; }

 private:
  NodeId node_;
  DataId data_;
  AccessMode mode_;
};

// Swaps the implementation reference (activity template) of an activity.
class ReplaceActivityImplOp final : public ChangeOp {
 public:
  ReplaceActivityImplOp(NodeId node, std::string new_template)
      : node_(node), new_template_(std::move(new_template)) {}

  ChangeOpKind kind() const override {
    return ChangeOpKind::kReplaceActivityImpl;
  }
  std::string Describe() const override;
  std::unique_ptr<ChangeOp> Clone() const override;
  Status ApplyTo(ProcessSchema& schema, IdAllocator& alloc) override;
  std::vector<NodeId> TargetNodes() const override { return {node_}; }
  std::string Signature(const SignatureContext& ctx) const override;
  JsonValue ToJson() const override;

  NodeId node() const { return node_; }
  const std::string& new_template() const { return new_template_; }

 private:
  NodeId node_;
  std::string new_template_;
};

// Deserializes any operation (inverse of ToJson).
Result<std::unique_ptr<ChangeOp>> ChangeOpFromJson(const JsonValue& json);

}  // namespace adept

#endif  // ADEPT_CHANGE_CHANGE_OP_H_
