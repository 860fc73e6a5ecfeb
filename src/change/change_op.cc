#include "change/change_op.h"

#include <algorithm>

#include "common/string_util.h"

namespace adept {

namespace {

Node MakeNodeFromSpec(const NewActivitySpec& spec, NodeId id) {
  Node n;
  n.id = id;
  n.type = NodeType::kActivity;
  n.name = spec.name;
  n.activity_template = spec.activity_template;
  n.role = spec.role;
  return n;
}

Status ApplyWirings(ProcessSchema& schema, NodeId node,
                    const NewActivitySpec& spec) {
  for (const auto& w : spec.data_wirings) {
    ADEPT_RETURN_IF_ERROR(schema.AddDataEdge(node, w.data, w.mode, w.optional));
  }
  return Status::OK();
}

// Records a node and all of its current edge partners in the region. Used
// by ops that detach a node: the partners get re-linked to each other, so
// their (key-stable) block must be re-summarized.
void AddNodeAndPartners(const SchemaView& schema, NodeId node,
                        ChangeRegion& region) {
  region.AddNode(node);
  if (schema.FindNode(node) == nullptr) return;
  schema.VisitInEdges(node, [&](const Edge& e) { region.AddNode(e.src); });
  schema.VisitOutEdges(node, [&](const Edge& e) { region.AddNode(e.dst); });
}

JsonValue SpecToJson(const NewActivitySpec& spec) {
  JsonValue j = JsonValue::MakeObject();
  j.Set("name", JsonValue(spec.name));
  if (!spec.activity_template.empty()) {
    j.Set("tmpl", JsonValue(spec.activity_template));
  }
  if (spec.role.valid()) j.Set("role", JsonValue(spec.role.value()));
  JsonValue wirings = JsonValue::MakeArray();
  for (const auto& w : spec.data_wirings) {
    JsonValue wj = JsonValue::MakeObject();
    wj.Set("data", JsonValue(w.data.value()));
    wj.Set("mode", JsonValue(static_cast<int>(w.mode)));
    if (w.optional) wj.Set("optional", JsonValue(true));
    wirings.Append(std::move(wj));
  }
  if (!wirings.as_array().empty()) j.Set("wirings", std::move(wirings));
  return j;
}

NewActivitySpec SpecFromJson(const JsonValue& j) {
  NewActivitySpec spec;
  spec.name = j.Get("name").as_string();
  spec.activity_template = j.Get("tmpl").as_string();
  if (j.Has("role")) {
    spec.role = RoleId(static_cast<uint32_t>(j.Get("role").as_int()));
  }
  for (const JsonValue& wj : j.Get("wirings").as_array()) {
    NewActivitySpec::DataWiring w;
    w.data = DataId(static_cast<uint32_t>(wj.Get("data").as_int()));
    w.mode = static_cast<AccessMode>(wj.Get("mode").as_int());
    w.optional = wj.Get("optional").is_bool() && wj.Get("optional").as_bool();
    spec.data_wirings.push_back(w);
  }
  return spec;
}

std::string SpecSignature(const NewActivitySpec& spec,
                          const ChangeOp::SignatureContext& ctx) {
  std::string sig = spec.name + "/" + spec.activity_template;
  for (const auto& w : spec.data_wirings) {
    sig += "|" + ctx.data(w.data) + ":" +
           std::to_string(static_cast<int>(w.mode));
  }
  return sig;
}

// The single incoming (resp. outgoing) control edge of `node`.
Result<Edge> SingleControlIn(const ProcessSchema& schema, NodeId node) {
  std::vector<Edge> in;
  schema.VisitInEdges(node, [&](const Edge& e) {
    if (e.type == EdgeType::kControl) in.push_back(e);
  });
  if (in.size() != 1) {
    return Status::FailedPrecondition(
        StrFormat("node n%u has %zu incoming control edges, expected 1",
                  node.value(), in.size()));
  }
  return in[0];
}

Result<Edge> SingleControlOut(const ProcessSchema& schema, NodeId node) {
  std::vector<Edge> out;
  schema.VisitOutEdges(node, [&](const Edge& e) {
    if (e.type == EdgeType::kControl) out.push_back(e);
  });
  if (out.size() != 1) {
    return Status::FailedPrecondition(
        StrFormat("node n%u has %zu outgoing control edges, expected 1",
                  node.value(), out.size()));
  }
  return out[0];
}

}  // namespace

const char* ChangeOpKindToString(ChangeOpKind kind) {
  switch (kind) {
    case ChangeOpKind::kSerialInsert:
      return "serialInsert";
    case ChangeOpKind::kParallelInsert:
      return "parallelInsert";
    case ChangeOpKind::kBranchInsert:
      return "branchInsert";
    case ChangeOpKind::kDeleteActivity:
      return "deleteActivity";
    case ChangeOpKind::kMoveActivity:
      return "moveActivity";
    case ChangeOpKind::kInsertSyncEdge:
      return "insertSyncEdge";
    case ChangeOpKind::kDeleteSyncEdge:
      return "deleteSyncEdge";
    case ChangeOpKind::kAddDataElement:
      return "addDataElement";
    case ChangeOpKind::kAddDataEdge:
      return "addDataEdge";
    case ChangeOpKind::kDeleteDataEdge:
      return "deleteDataEdge";
    case ChangeOpKind::kReplaceActivityImpl:
      return "replaceActivityImpl";
  }
  return "?";
}

void ChangeOp::RegionBefore(const SchemaView& schema,
                            ChangeRegion& region) const {
  (void)schema;
  for (NodeId n : TargetNodes()) region.AddNode(n);
}

void ChangeOp::RegionAfter(const SchemaView& schema,
                           ChangeRegion& region) const {
  (void)schema;
  for (uint32_t id : pinned_node_ids_) region.AddNode(NodeId(id));
  // Created data elements can resolve decision references that previously
  // reported "data element missing"; AnalyzeDelta re-checks blocks whose
  // cached decision_refs intersect this set.
  for (uint32_t id : pinned_data_ids_) region.AddData(DataId(id));
}

NodeId ChangeOp::PinNode(size_t slot, const ProcessSchema& schema,
                         IdAllocator& alloc) {
  while (pinned_node_ids_.size() <= slot) {
    pinned_node_ids_.push_back(alloc.NextNode(schema).value());
  }
  return NodeId(pinned_node_ids_[slot]);
}

EdgeId ChangeOp::PinEdge(size_t slot, const ProcessSchema& schema,
                         IdAllocator& alloc) {
  while (pinned_edge_ids_.size() <= slot) {
    pinned_edge_ids_.push_back(alloc.NextEdge(schema).value());
  }
  return EdgeId(pinned_edge_ids_[slot]);
}

DataId ChangeOp::PinData(size_t slot, const ProcessSchema& schema,
                         IdAllocator& alloc) {
  while (pinned_data_ids_.size() <= slot) {
    pinned_data_ids_.push_back(alloc.NextData(schema).value());
  }
  return DataId(pinned_data_ids_[slot]);
}

void ChangeOp::SerializePins(JsonValue& json) const {
  if (pinned_node_ids_.empty() && pinned_edge_ids_.empty() &&
      pinned_data_ids_.empty()) {
    return;
  }
  JsonValue pins = JsonValue::MakeObject();
  auto arr = [](const std::vector<uint32_t>& v) {
    JsonValue a = JsonValue::MakeArray();
    for (uint32_t x : v) a.Append(JsonValue(x));
    return a;
  };
  pins.Set("nodes", arr(pinned_node_ids_));
  pins.Set("edges", arr(pinned_edge_ids_));
  pins.Set("data", arr(pinned_data_ids_));
  json.Set("pins", std::move(pins));
}

void ChangeOp::DeserializePins(const JsonValue& json) {
  if (!json.Has("pins")) return;
  const JsonValue& pins = json.Get("pins");
  for (const JsonValue& v : pins.Get("nodes").as_array()) {
    pinned_node_ids_.push_back(static_cast<uint32_t>(v.as_int()));
  }
  for (const JsonValue& v : pins.Get("edges").as_array()) {
    pinned_edge_ids_.push_back(static_cast<uint32_t>(v.as_int()));
  }
  for (const JsonValue& v : pins.Get("data").as_array()) {
    pinned_data_ids_.push_back(static_cast<uint32_t>(v.as_int()));
  }
}

void ChangeOp::CopyPinsTo(ChangeOp& other) const {
  other.pinned_node_ids_ = pinned_node_ids_;
  other.pinned_edge_ids_ = pinned_edge_ids_;
  other.pinned_data_ids_ = pinned_data_ids_;
}

// --- SerialInsertOp ---------------------------------------------------------

std::string SerialInsertOp::Describe() const {
  return StrFormat("serialInsert('%s', n%u -> n%u)", spec_.name.c_str(),
                   pred_.value(), succ_.value());
}

std::unique_ptr<ChangeOp> SerialInsertOp::Clone() const {
  auto copy = std::make_unique<SerialInsertOp>(spec_, pred_, succ_);
  CopyPinsTo(*copy);
  return copy;
}

Status SerialInsertOp::ApplyTo(ProcessSchema& schema, IdAllocator& alloc) {
  const Edge* edge = schema.FindEdgeBetween(pred_, succ_, EdgeType::kControl);
  if (edge == nullptr) {
    return Status::FailedPrecondition(
        StrFormat("serialInsert: no control edge n%u -> n%u", pred_.value(),
                  succ_.value()));
  }
  int inherited_branch = edge->branch_value;
  EdgeId removed = edge->id;
  ADEPT_RETURN_IF_ERROR(schema.RemoveEdge(removed));

  NodeId x = PinNode(0, schema, alloc);
  ADEPT_RETURN_IF_ERROR(schema.AddNodeWithId(MakeNodeFromSpec(spec_, x)));
  Edge in;
  in.id = PinEdge(0, schema, alloc);
  in.src = pred_;
  in.dst = x;
  in.type = EdgeType::kControl;
  in.branch_value = inherited_branch;
  ADEPT_RETURN_IF_ERROR(schema.AddEdgeWithId(in));
  Edge out;
  out.id = PinEdge(1, schema, alloc);
  out.src = x;
  out.dst = succ_;
  out.type = EdgeType::kControl;
  ADEPT_RETURN_IF_ERROR(schema.AddEdgeWithId(out));
  return ApplyWirings(schema, x, spec_);
}

std::string SerialInsertOp::Signature(const SignatureContext& ctx) const {
  return "serialInsert:" + SpecSignature(spec_, ctx) + "@" + ctx.node(pred_) +
         "->" + ctx.node(succ_);
}

JsonValue SerialInsertOp::ToJson() const {
  JsonValue j = JsonValue::MakeObject();
  j.Set("op", JsonValue(ChangeOpKindToString(kind())));
  j.Set("spec", SpecToJson(spec_));
  j.Set("pred", JsonValue(pred_.value()));
  j.Set("succ", JsonValue(succ_.value()));
  SerializePins(j);
  return j;
}

// --- ParallelInsertOp -------------------------------------------------------

std::string ParallelInsertOp::Describe() const {
  return StrFormat("parallelInsert('%s', region n%u .. n%u)",
                   spec_.name.c_str(), from_.value(), to_.value());
}

std::unique_ptr<ChangeOp> ParallelInsertOp::Clone() const {
  auto copy = std::make_unique<ParallelInsertOp>(spec_, from_, to_);
  CopyPinsTo(*copy);
  return copy;
}

Status ParallelInsertOp::ApplyTo(ProcessSchema& schema, IdAllocator& alloc) {
  const Node* from_node = schema.FindNode(from_);
  const Node* to_node = schema.FindNode(to_);
  if (from_node == nullptr || to_node == nullptr) {
    return Status::FailedPrecondition("parallelInsert: region anchor missing");
  }
  if (from_node->type == NodeType::kStartFlow ||
      to_node->type == NodeType::kEndFlow) {
    return Status::FailedPrecondition(
        "parallelInsert: region may not include start/end flow");
  }
  Status region = WalkSequenceRange(schema, from_, to_);
  if (!region.ok()) {
    return Status::FailedPrecondition(
        StrFormat("parallelInsert: [n%u .. n%u] is not a SESE region (%s)",
                  from_.value(), to_.value(), region.message().c_str()));
  }

  ADEPT_ASSIGN_OR_RETURN(Edge entry, SingleControlIn(schema, from_));
  ADEPT_ASSIGN_OR_RETURN(Edge exit, SingleControlOut(schema, to_));
  ADEPT_RETURN_IF_ERROR(schema.RemoveEdge(entry.id));
  ADEPT_RETURN_IF_ERROR(schema.RemoveEdge(exit.id));

  // Pin/add strictly interleaved: counter-based allocators hand out the
  // next free id, which only advances once the node is actually added.
  NodeId x = PinNode(0, schema, alloc);
  ADEPT_RETURN_IF_ERROR(schema.AddNodeWithId(MakeNodeFromSpec(spec_, x)));
  NodeId split = PinNode(1, schema, alloc);
  Node split_node;
  split_node.id = split;
  split_node.type = NodeType::kAndSplit;
  split_node.name = "and_split";
  ADEPT_RETURN_IF_ERROR(schema.AddNodeWithId(split_node));
  NodeId join = PinNode(2, schema, alloc);
  Node join_node;
  join_node.id = join;
  join_node.type = NodeType::kAndJoin;
  join_node.name = "and_join";
  ADEPT_RETURN_IF_ERROR(schema.AddNodeWithId(join_node));

  auto add_edge = [&](size_t slot, NodeId src, NodeId dst, int branch) {
    Edge e;
    e.id = PinEdge(slot, schema, alloc);
    e.src = src;
    e.dst = dst;
    e.type = EdgeType::kControl;
    e.branch_value = branch;
    return schema.AddEdgeWithId(e);
  };
  ADEPT_RETURN_IF_ERROR(add_edge(0, entry.src, split, entry.branch_value));
  ADEPT_RETURN_IF_ERROR(add_edge(1, split, from_, 0));
  ADEPT_RETURN_IF_ERROR(add_edge(2, to_, join, 0));
  ADEPT_RETURN_IF_ERROR(add_edge(3, join, exit.dst, exit.branch_value));
  ADEPT_RETURN_IF_ERROR(add_edge(4, split, x, 0));
  ADEPT_RETURN_IF_ERROR(add_edge(5, x, join, 0));
  return ApplyWirings(schema, x, spec_);
}

std::string ParallelInsertOp::Signature(const SignatureContext& ctx) const {
  return "parallelInsert:" + SpecSignature(spec_, ctx) + "@" + ctx.node(from_) +
         ".." + ctx.node(to_);
}

JsonValue ParallelInsertOp::ToJson() const {
  JsonValue j = JsonValue::MakeObject();
  j.Set("op", JsonValue(ChangeOpKindToString(kind())));
  j.Set("spec", SpecToJson(spec_));
  j.Set("from", JsonValue(from_.value()));
  j.Set("to", JsonValue(to_.value()));
  SerializePins(j);
  return j;
}

// --- BranchInsertOp ---------------------------------------------------------

std::string BranchInsertOp::Describe() const {
  return StrFormat("branchInsert('%s', split n%u, code %d)",
                   spec_.name.c_str(), split_.value(), branch_value_);
}

std::unique_ptr<ChangeOp> BranchInsertOp::Clone() const {
  auto copy = std::make_unique<BranchInsertOp>(spec_, split_, branch_value_);
  CopyPinsTo(*copy);
  return copy;
}

Status BranchInsertOp::ApplyTo(ProcessSchema& schema, IdAllocator& alloc) {
  const Node* split = schema.FindNode(split_);
  if (split == nullptr || split->type != NodeType::kXorSplit) {
    return Status::FailedPrecondition(
        "branchInsert: target is not an XOR split");
  }
  bool code_in_use = false;
  schema.VisitOutEdges(split_, [&](const Edge& e) {
    if (e.type == EdgeType::kControl && e.branch_value == branch_value_) {
      code_in_use = true;
    }
  });
  if (code_in_use) {
    return Status::FailedPrecondition(
        StrFormat("branchInsert: selection code %d already in use",
                  branch_value_));
  }
  auto join = WalkToCloser(schema, split_);
  if (!join.ok()) {
    return Status::FailedPrecondition("branchInsert: split has no join");
  }

  NodeId x = PinNode(0, schema, alloc);
  ADEPT_RETURN_IF_ERROR(schema.AddNodeWithId(MakeNodeFromSpec(spec_, x)));
  Edge in;
  in.id = PinEdge(0, schema, alloc);
  in.src = split_;
  in.dst = x;
  in.type = EdgeType::kControl;
  in.branch_value = branch_value_;
  ADEPT_RETURN_IF_ERROR(schema.AddEdgeWithId(in));
  Edge out;
  out.id = PinEdge(1, schema, alloc);
  out.src = x;
  out.dst = *join;
  out.type = EdgeType::kControl;
  ADEPT_RETURN_IF_ERROR(schema.AddEdgeWithId(out));
  return ApplyWirings(schema, x, spec_);
}

std::string BranchInsertOp::Signature(const SignatureContext& ctx) const {
  return "branchInsert:" + SpecSignature(spec_, ctx) + "@" + ctx.node(split_) +
         "#" + std::to_string(branch_value_);
}

JsonValue BranchInsertOp::ToJson() const {
  JsonValue j = JsonValue::MakeObject();
  j.Set("op", JsonValue(ChangeOpKindToString(kind())));
  j.Set("spec", SpecToJson(spec_));
  j.Set("split", JsonValue(split_.value()));
  j.Set("code", JsonValue(branch_value_));
  SerializePins(j);
  return j;
}

// --- DeleteActivityOp -------------------------------------------------------

std::string DeleteActivityOp::Describe() const {
  return StrFormat("deleteActivity(n%u)", target_.value());
}

std::unique_ptr<ChangeOp> DeleteActivityOp::Clone() const {
  auto copy = std::make_unique<DeleteActivityOp>(target_);
  CopyPinsTo(*copy);
  return copy;
}

Status DeleteActivityOp::ApplyTo(ProcessSchema& schema, IdAllocator& alloc) {
  const Node* target = schema.FindNode(target_);
  if (target == nullptr || target->type != NodeType::kActivity) {
    return Status::FailedPrecondition(
        "deleteActivity: target is not an existing activity");
  }
  ADEPT_ASSIGN_OR_RETURN(Edge in, SingleControlIn(schema, target_));
  ADEPT_ASSIGN_OR_RETURN(Edge out, SingleControlOut(schema, target_));
  ADEPT_RETURN_IF_ERROR(schema.RemoveNode(target_));
  Edge bridge;
  bridge.id = PinEdge(0, schema, alloc);
  bridge.src = in.src;
  bridge.dst = out.dst;
  bridge.type = EdgeType::kControl;
  bridge.branch_value = in.branch_value;
  return schema.AddEdgeWithId(bridge);
}

void DeleteActivityOp::RegionBefore(const SchemaView& schema,
                                    ChangeRegion& region) const {
  AddNodeAndPartners(schema, target_, region);
}

std::string DeleteActivityOp::Signature(const SignatureContext& ctx) const {
  return "deleteActivity:" + ctx.node(target_);
}

JsonValue DeleteActivityOp::ToJson() const {
  JsonValue j = JsonValue::MakeObject();
  j.Set("op", JsonValue(ChangeOpKindToString(kind())));
  j.Set("target", JsonValue(target_.value()));
  SerializePins(j);
  return j;
}

// --- MoveActivityOp ---------------------------------------------------------

std::string MoveActivityOp::Describe() const {
  return StrFormat("moveActivity(n%u into n%u -> n%u)", target_.value(),
                   new_pred_.value(), new_succ_.value());
}

std::unique_ptr<ChangeOp> MoveActivityOp::Clone() const {
  auto copy = std::make_unique<MoveActivityOp>(target_, new_pred_, new_succ_);
  CopyPinsTo(*copy);
  return copy;
}

void MoveActivityOp::RegionBefore(const SchemaView& schema,
                                  ChangeRegion& region) const {
  AddNodeAndPartners(schema, target_, region);
  region.AddNode(new_pred_);
  region.AddNode(new_succ_);
}

Status MoveActivityOp::ApplyTo(ProcessSchema& schema, IdAllocator& alloc) {
  if (target_ == new_pred_ || target_ == new_succ_) {
    return Status::FailedPrecondition(
        "moveActivity: target coincides with an anchor");
  }
  const Node* target = schema.FindNode(target_);
  if (target == nullptr || target->type != NodeType::kActivity) {
    return Status::FailedPrecondition(
        "moveActivity: target is not an existing activity");
  }
  ADEPT_ASSIGN_OR_RETURN(Edge in, SingleControlIn(schema, target_));
  ADEPT_ASSIGN_OR_RETURN(Edge out, SingleControlOut(schema, target_));
  ADEPT_RETURN_IF_ERROR(schema.RemoveEdge(in.id));
  ADEPT_RETURN_IF_ERROR(schema.RemoveEdge(out.id));
  Edge bridge;
  bridge.id = PinEdge(0, schema, alloc);
  bridge.src = in.src;
  bridge.dst = out.dst;
  bridge.type = EdgeType::kControl;
  bridge.branch_value = in.branch_value;
  ADEPT_RETURN_IF_ERROR(schema.AddEdgeWithId(bridge));

  const Edge* slot =
      schema.FindEdgeBetween(new_pred_, new_succ_, EdgeType::kControl);
  if (slot == nullptr) {
    return Status::FailedPrecondition(
        StrFormat("moveActivity: no control edge n%u -> n%u",
                  new_pred_.value(), new_succ_.value()));
  }
  int inherited = slot->branch_value;
  ADEPT_RETURN_IF_ERROR(schema.RemoveEdge(slot->id));
  Edge to_target;
  to_target.id = PinEdge(1, schema, alloc);
  to_target.src = new_pred_;
  to_target.dst = target_;
  to_target.type = EdgeType::kControl;
  to_target.branch_value = inherited;
  ADEPT_RETURN_IF_ERROR(schema.AddEdgeWithId(to_target));
  Edge from_target;
  from_target.id = PinEdge(2, schema, alloc);
  from_target.src = target_;
  from_target.dst = new_succ_;
  from_target.type = EdgeType::kControl;
  return schema.AddEdgeWithId(from_target);
}

std::string MoveActivityOp::Signature(const SignatureContext& ctx) const {
  return "moveActivity:" + ctx.node(target_) + "@" + ctx.node(new_pred_) +
         "->" + ctx.node(new_succ_);
}

JsonValue MoveActivityOp::ToJson() const {
  JsonValue j = JsonValue::MakeObject();
  j.Set("op", JsonValue(ChangeOpKindToString(kind())));
  j.Set("target", JsonValue(target_.value()));
  j.Set("pred", JsonValue(new_pred_.value()));
  j.Set("succ", JsonValue(new_succ_.value()));
  SerializePins(j);
  return j;
}

// --- InsertSyncEdgeOp -------------------------------------------------------

std::string InsertSyncEdgeOp::Describe() const {
  return StrFormat("insertSyncEdge(n%u -> n%u)", from_.value(), to_.value());
}

std::unique_ptr<ChangeOp> InsertSyncEdgeOp::Clone() const {
  auto copy = std::make_unique<InsertSyncEdgeOp>(from_, to_);
  CopyPinsTo(*copy);
  return copy;
}

Status InsertSyncEdgeOp::ApplyTo(ProcessSchema& schema, IdAllocator& alloc) {
  if (from_ == to_) {
    return Status::FailedPrecondition("insertSyncEdge: self edge");
  }
  if (schema.FindNode(from_) == nullptr || schema.FindNode(to_) == nullptr) {
    return Status::FailedPrecondition("insertSyncEdge: endpoint missing");
  }
  if (schema.FindEdgeBetween(from_, to_, EdgeType::kSync) != nullptr) {
    return Status::FailedPrecondition("insertSyncEdge: edge already exists");
  }
  Edge e;
  e.id = PinEdge(0, schema, alloc);
  e.src = from_;
  e.dst = to_;
  e.type = EdgeType::kSync;
  return schema.AddEdgeWithId(e);
}

std::string InsertSyncEdgeOp::Signature(const SignatureContext& ctx) const {
  return "insertSyncEdge:" + ctx.node(from_) + "->" + ctx.node(to_);
}

JsonValue InsertSyncEdgeOp::ToJson() const {
  JsonValue j = JsonValue::MakeObject();
  j.Set("op", JsonValue(ChangeOpKindToString(kind())));
  j.Set("from", JsonValue(from_.value()));
  j.Set("to", JsonValue(to_.value()));
  SerializePins(j);
  return j;
}

// --- DeleteSyncEdgeOp -------------------------------------------------------

std::string DeleteSyncEdgeOp::Describe() const {
  return StrFormat("deleteSyncEdge(n%u -> n%u)", from_.value(), to_.value());
}

std::unique_ptr<ChangeOp> DeleteSyncEdgeOp::Clone() const {
  auto copy = std::make_unique<DeleteSyncEdgeOp>(from_, to_);
  CopyPinsTo(*copy);
  return copy;
}

Status DeleteSyncEdgeOp::ApplyTo(ProcessSchema& schema, IdAllocator&) {
  const Edge* e = schema.FindEdgeBetween(from_, to_, EdgeType::kSync);
  if (e == nullptr) {
    return Status::FailedPrecondition("deleteSyncEdge: no such sync edge");
  }
  return schema.RemoveEdge(e->id);
}

std::string DeleteSyncEdgeOp::Signature(const SignatureContext& ctx) const {
  return "deleteSyncEdge:" + ctx.node(from_) + "->" + ctx.node(to_);
}

JsonValue DeleteSyncEdgeOp::ToJson() const {
  JsonValue j = JsonValue::MakeObject();
  j.Set("op", JsonValue(ChangeOpKindToString(kind())));
  j.Set("from", JsonValue(from_.value()));
  j.Set("to", JsonValue(to_.value()));
  SerializePins(j);
  return j;
}

// --- AddDataElementOp -------------------------------------------------------

std::string AddDataElementOp::Describe() const {
  return StrFormat("addDataElement('%s', %s)", name_.c_str(),
                   DataTypeToString(type_));
}

std::unique_ptr<ChangeOp> AddDataElementOp::Clone() const {
  auto copy = std::make_unique<AddDataElementOp>(name_, type_);
  CopyPinsTo(*copy);
  return copy;
}

Status AddDataElementOp::ApplyTo(ProcessSchema& schema, IdAllocator& alloc) {
  DataElement d;
  d.id = PinData(0, schema, alloc);
  d.name = name_;
  d.type = type_;
  return schema.AddDataWithId(std::move(d));
}

std::string AddDataElementOp::Signature(const SignatureContext&) const {
  return StrFormat("addDataElement:%s/%d", name_.c_str(),
                   static_cast<int>(type_));
}

JsonValue AddDataElementOp::ToJson() const {
  JsonValue j = JsonValue::MakeObject();
  j.Set("op", JsonValue(ChangeOpKindToString(kind())));
  j.Set("name", JsonValue(name_));
  j.Set("type", JsonValue(static_cast<int>(type_)));
  SerializePins(j);
  return j;
}

// --- AddDataEdgeOp ----------------------------------------------------------

std::string AddDataEdgeOp::Describe() const {
  return StrFormat("addDataEdge(n%u %s d%u%s)", node_.value(),
                   AccessModeToString(mode_), data_.value(),
                   optional_ ? ", optional" : "");
}

std::unique_ptr<ChangeOp> AddDataEdgeOp::Clone() const {
  auto copy = std::make_unique<AddDataEdgeOp>(node_, data_, mode_, optional_);
  CopyPinsTo(*copy);
  return copy;
}

Status AddDataEdgeOp::ApplyTo(ProcessSchema& schema, IdAllocator&) {
  Status st = schema.AddDataEdge(node_, data_, mode_, optional_);
  if (st.code() == StatusCode::kInvalidArgument ||
      st.code() == StatusCode::kAlreadyExists) {
    return Status::FailedPrecondition("addDataEdge: " + st.message());
  }
  return st;
}

std::string AddDataEdgeOp::Signature(const SignatureContext& ctx) const {
  return "addDataEdge:" + ctx.node(node_) + "/" +
         std::to_string(static_cast<int>(mode_)) + "/" + ctx.data(data_);
}

JsonValue AddDataEdgeOp::ToJson() const {
  JsonValue j = JsonValue::MakeObject();
  j.Set("op", JsonValue(ChangeOpKindToString(kind())));
  j.Set("node", JsonValue(node_.value()));
  j.Set("data", JsonValue(data_.value()));
  j.Set("mode", JsonValue(static_cast<int>(mode_)));
  if (optional_) j.Set("optional", JsonValue(true));
  SerializePins(j);
  return j;
}

// --- DeleteDataEdgeOp -------------------------------------------------------

std::string DeleteDataEdgeOp::Describe() const {
  return StrFormat("deleteDataEdge(n%u %s d%u)", node_.value(),
                   AccessModeToString(mode_), data_.value());
}

std::unique_ptr<ChangeOp> DeleteDataEdgeOp::Clone() const {
  auto copy = std::make_unique<DeleteDataEdgeOp>(node_, data_, mode_);
  CopyPinsTo(*copy);
  return copy;
}

Status DeleteDataEdgeOp::ApplyTo(ProcessSchema& schema, IdAllocator&) {
  Status st = schema.RemoveDataEdge(node_, data_, mode_);
  if (st.code() == StatusCode::kNotFound) {
    return Status::FailedPrecondition("deleteDataEdge: no such data edge");
  }
  return st;
}

std::string DeleteDataEdgeOp::Signature(const SignatureContext& ctx) const {
  return "deleteDataEdge:" + ctx.node(node_) + "/" +
         std::to_string(static_cast<int>(mode_)) + "/" + ctx.data(data_);
}

JsonValue DeleteDataEdgeOp::ToJson() const {
  JsonValue j = JsonValue::MakeObject();
  j.Set("op", JsonValue(ChangeOpKindToString(kind())));
  j.Set("node", JsonValue(node_.value()));
  j.Set("data", JsonValue(data_.value()));
  j.Set("mode", JsonValue(static_cast<int>(mode_)));
  SerializePins(j);
  return j;
}

// --- ReplaceActivityImplOp --------------------------------------------------

std::string ReplaceActivityImplOp::Describe() const {
  return StrFormat("replaceActivityImpl(n%u, '%s')", node_.value(),
                   new_template_.c_str());
}

std::unique_ptr<ChangeOp> ReplaceActivityImplOp::Clone() const {
  auto copy = std::make_unique<ReplaceActivityImplOp>(node_, new_template_);
  CopyPinsTo(*copy);
  return copy;
}

Status ReplaceActivityImplOp::ApplyTo(ProcessSchema& schema, IdAllocator&) {
  Node* node = schema.MutableNode(node_);
  if (node == nullptr || node->type != NodeType::kActivity) {
    return Status::FailedPrecondition(
        "replaceActivityImpl: target is not an existing activity");
  }
  node->activity_template = new_template_;
  return Status::OK();
}

std::string ReplaceActivityImplOp::Signature(
    const SignatureContext& ctx) const {
  return "replaceActivityImpl:" + ctx.node(node_) + "/" + new_template_;
}

JsonValue ReplaceActivityImplOp::ToJson() const {
  JsonValue j = JsonValue::MakeObject();
  j.Set("op", JsonValue(ChangeOpKindToString(kind())));
  j.Set("node", JsonValue(node_.value()));
  j.Set("tmpl", JsonValue(new_template_));
  SerializePins(j);
  return j;
}

// --- Deserialization --------------------------------------------------------

Result<std::unique_ptr<ChangeOp>> ChangeOpFromJson(const JsonValue& json) {
  if (!json.is_object() || !json.Get("op").is_string()) {
    return Status::Corruption("change op json malformed");
  }
  const std::string& op = json.Get("op").as_string();
  auto node_id = [&](const char* key) {
    return NodeId(static_cast<uint32_t>(json.Get(key).as_int()));
  };
  std::unique_ptr<ChangeOp> out;
  if (op == "serialInsert") {
    out = std::make_unique<SerialInsertOp>(SpecFromJson(json.Get("spec")),
                                           node_id("pred"), node_id("succ"));
  } else if (op == "parallelInsert") {
    out = std::make_unique<ParallelInsertOp>(SpecFromJson(json.Get("spec")),
                                             node_id("from"), node_id("to"));
  } else if (op == "branchInsert") {
    out = std::make_unique<BranchInsertOp>(
        SpecFromJson(json.Get("spec")), node_id("split"),
        static_cast<int>(json.Get("code").as_int()));
  } else if (op == "deleteActivity") {
    out = std::make_unique<DeleteActivityOp>(node_id("target"));
  } else if (op == "moveActivity") {
    out = std::make_unique<MoveActivityOp>(node_id("target"), node_id("pred"),
                                           node_id("succ"));
  } else if (op == "insertSyncEdge") {
    out = std::make_unique<InsertSyncEdgeOp>(node_id("from"), node_id("to"));
  } else if (op == "deleteSyncEdge") {
    out = std::make_unique<DeleteSyncEdgeOp>(node_id("from"), node_id("to"));
  } else if (op == "addDataElement") {
    out = std::make_unique<AddDataElementOp>(
        json.Get("name").as_string(),
        static_cast<DataType>(json.Get("type").as_int()));
  } else if (op == "addDataEdge") {
    out = std::make_unique<AddDataEdgeOp>(
        node_id("node"),
        DataId(static_cast<uint32_t>(json.Get("data").as_int())),
        static_cast<AccessMode>(json.Get("mode").as_int()),
        json.Get("optional").is_bool() && json.Get("optional").as_bool());
  } else if (op == "deleteDataEdge") {
    out = std::make_unique<DeleteDataEdgeOp>(
        node_id("node"),
        DataId(static_cast<uint32_t>(json.Get("data").as_int())),
        static_cast<AccessMode>(json.Get("mode").as_int()));
  } else if (op == "replaceActivityImpl") {
    out = std::make_unique<ReplaceActivityImplOp>(node_id("node"),
                                                  json.Get("tmpl").as_string());
  } else {
    return Status::Corruption("unknown change op kind: " + op);
  }
  out->DeserializePins(json);
  return out;
}

}  // namespace adept
