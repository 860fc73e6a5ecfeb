// SchemaBuilder: convenience API for constructing well-formed WSM nets.
//
// The builder maintains an insertion cursor and appends nodes sequentially;
// composite blocks take one callback per branch. Errors are latched and
// reported by Build(), so modelling code stays linear:
//
//   SchemaBuilder b("online_order", 1);
//   NodeId get = b.Activity("get order");
//   b.Parallel({
//       [&](SchemaBuilder& s) { s.Activity("confirm order"); },
//       [&](SchemaBuilder& s) { s.Activity("compose order"); },
//   });
//   b.Activity("pack goods");
//   auto schema = b.Build();   // Result<shared_ptr<const ProcessSchema>>

#ifndef ADEPT_MODEL_SCHEMA_BUILDER_H_
#define ADEPT_MODEL_SCHEMA_BUILDER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "model/schema.h"

namespace adept {

class SchemaBuilder {
 public:
  // Every member has a default initializer, so designated initializers may
  // name any subset ({.role = r}) without -Wmissing-field-initializers.
  struct ActivityOptions {
    std::string activity_template{};
    RoleId role{};
    ServerId server{};
  };

  struct BlockIds {
    NodeId open;   // split / loop-start
    NodeId close;  // join / loop-end
  };

  using BranchFn = std::function<void(SchemaBuilder&)>;

  explicit SchemaBuilder(std::string type_name, int version = 1);

  // Appends an activity after the cursor and moves the cursor onto it.
  // (An overload, not a `= {}` default: GCC cannot use the nested struct's
  // member initializers before SchemaBuilder is complete.)
  NodeId Activity(const std::string& name);
  NodeId Activity(const std::string& name, const ActivityOptions& opts);

  // Declares a process data element.
  DataId Data(const std::string& name, DataType type);

  // Data edges for an existing node.
  void Reads(NodeId node, DataId data, bool optional = false);
  void Writes(NodeId node, DataId data);

  // Appends an AND block whose branches are built by the callbacks
  // (>= 2 branches; a callback that adds nothing yields an empty branch).
  BlockIds Parallel(const std::vector<BranchFn>& branches);

  // Appends an XOR block. `decision` is the integer data element evaluated
  // at the split; branch i is taken when its value equals i.
  BlockIds Conditional(DataId decision, const std::vector<BranchFn>& branches);

  // Appends a loop block. `condition` is the boolean data element evaluated
  // at the loop end; true repeats the body.
  BlockIds Loop(DataId condition, const BranchFn& body);

  // Adds a synchronization edge (from must precede to; endpoints must lie in
  // different branches of a common parallel block — verified at Build()).
  void SyncEdge(NodeId from, NodeId to);

  // Appends the end-flow node, freezes, and returns the schema.
  Result<std::shared_ptr<const ProcessSchema>> Build();

  // First latched error (OK while healthy).
  const Status& status() const { return status_; }

  // Escape hatch for constructs the convenience API does not cover.
  ProcessSchema* mutable_schema() { return schema_.get(); }

 private:
  void Latch(const Status& s);
  NodeId AppendNode(Node node);

  std::shared_ptr<ProcessSchema> schema_;
  NodeId cursor_;
  Status status_;
  bool built_ = false;
};

}  // namespace adept

#endif  // ADEPT_MODEL_SCHEMA_BUILDER_H_
