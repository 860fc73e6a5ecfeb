#include "model/schema.h"

#include <algorithm>

#include "common/string_util.h"

namespace adept {

ProcessSchema::ProcessSchema(std::string type_name, int version)
    : type_name_(std::move(type_name)), version_(version) {}

Status ProcessSchema::CheckMutable() const {
  if (frozen_) {
    return Status::FailedPrecondition(
        "schema is frozen; clone it to derive a new version");
  }
  return Status::OK();
}

void ProcessSchema::Link(Adjacency& adjacency, NodeId node, EdgeId edge) {
  std::vector<EdgeId>& list = adjacency[node.value()];
  list.insert(std::upper_bound(list.begin(), list.end(), edge), edge);
}

void ProcessSchema::Unlink(Adjacency& adjacency, NodeId node, EdgeId edge) {
  auto it = adjacency.find(node.value());
  if (it == adjacency.end()) return;
  std::vector<EdgeId>& list = it->second;
  auto pos = std::lower_bound(list.begin(), list.end(), edge);
  if (pos != list.end() && *pos == edge) list.erase(pos);
  if (list.empty()) adjacency.erase(it);
}

void ProcessSchema::InsertEdge(const Edge& edge) {
  edges_.emplace(edge.id.value(), edge);
  Link(out_edges_, edge.src, edge.id);
  Link(in_edges_, edge.dst, edge.id);
}

Result<NodeId> ProcessSchema::AddNode(Node node) {
  ADEPT_RETURN_IF_ERROR(CheckMutable());
  node.id = NodeId(next_node_id_++);
  uint32_t key = node.id.value();
  nodes_.emplace(key, std::move(node));
  return NodeId(key);
}

Status ProcessSchema::AddNodeWithId(Node node) {
  ADEPT_RETURN_IF_ERROR(CheckMutable());
  if (!node.id.valid()) return Status::InvalidArgument("node id required");
  uint32_t key = node.id.value();
  if (!nodes_.emplace(key, std::move(node)).second) {
    return Status::AlreadyExists(StrFormat("node id %u in use", key));
  }
  next_node_id_ = std::max(next_node_id_, key + 1);
  return Status::OK();
}

Result<EdgeId> ProcessSchema::AddEdge(NodeId src, NodeId dst, EdgeType type,
                                      int branch_value) {
  ADEPT_RETURN_IF_ERROR(CheckMutable());
  if (FindNode(src) == nullptr || FindNode(dst) == nullptr) {
    return Status::InvalidArgument("edge endpoint does not exist");
  }
  Edge e;
  e.id = EdgeId(next_edge_id_++);
  e.src = src;
  e.dst = dst;
  e.type = type;
  e.branch_value = branch_value;
  InsertEdge(e);
  return e.id;
}

Status ProcessSchema::AddEdgeWithId(Edge edge) {
  ADEPT_RETURN_IF_ERROR(CheckMutable());
  if (!edge.id.valid()) return Status::InvalidArgument("edge id required");
  uint32_t key = edge.id.value();
  if (edges_.count(key) > 0) {
    return Status::AlreadyExists(StrFormat("edge id %u in use", key));
  }
  if (FindNode(edge.src) == nullptr || FindNode(edge.dst) == nullptr) {
    return Status::InvalidArgument("edge endpoint does not exist");
  }
  InsertEdge(edge);
  next_edge_id_ = std::max(next_edge_id_, key + 1);
  return Status::OK();
}

Result<DataId> ProcessSchema::AddData(std::string name, DataType type) {
  ADEPT_RETURN_IF_ERROR(CheckMutable());
  DataElement d;
  d.id = DataId(next_data_id_++);
  d.name = std::move(name);
  d.type = type;
  uint32_t key = d.id.value();
  data_.emplace(key, std::move(d));
  return DataId(key);
}

Status ProcessSchema::AddDataWithId(DataElement element) {
  ADEPT_RETURN_IF_ERROR(CheckMutable());
  if (!element.id.valid()) return Status::InvalidArgument("data id required");
  uint32_t key = element.id.value();
  if (!data_.emplace(key, std::move(element)).second) {
    return Status::AlreadyExists(StrFormat("data id %u in use", key));
  }
  next_data_id_ = std::max(next_data_id_, key + 1);
  return Status::OK();
}

Status ProcessSchema::AddDataEdge(NodeId node, DataId data, AccessMode mode,
                                  bool optional) {
  ADEPT_RETURN_IF_ERROR(CheckMutable());
  if (FindNode(node) == nullptr) return Status::InvalidArgument("no such node");
  if (FindData(data) == nullptr) {
    return Status::InvalidArgument("no such data element");
  }
  for (const DataEdge& de : data_edges_) {
    if (de.node == node && de.data == data && de.mode == mode) {
      return Status::AlreadyExists("data edge already present");
    }
  }
  data_edges_.push_back(DataEdge{node, data, mode, optional});
  return Status::OK();
}

Status ProcessSchema::RemoveNode(NodeId id) {
  ADEPT_RETURN_IF_ERROR(CheckMutable());
  if (nodes_.erase(id.value()) == 0) return Status::NotFound("no such node");
  for (Adjacency* own : {&out_edges_, &in_edges_}) {
    auto it = own->find(id.value());
    if (it == own->end()) continue;
    std::vector<EdgeId> incident = std::move(it->second);
    own->erase(it);
    // A self-loop sits in both lists; the second visit finds it gone.
    for (EdgeId edge : incident) {
      auto e = edges_.find(edge.value());
      if (e == edges_.end()) continue;
      Unlink(out_edges_, e->second.src, edge);
      Unlink(in_edges_, e->second.dst, edge);
      edges_.erase(e);
    }
  }
  data_edges_.erase(
      std::remove_if(data_edges_.begin(), data_edges_.end(),
                     [&](const DataEdge& de) { return de.node == id; }),
      data_edges_.end());
  return Status::OK();
}

Status ProcessSchema::RemoveEdge(EdgeId id) {
  ADEPT_RETURN_IF_ERROR(CheckMutable());
  auto it = edges_.find(id.value());
  if (it == edges_.end()) return Status::NotFound("no such edge");
  Unlink(out_edges_, it->second.src, id);
  Unlink(in_edges_, it->second.dst, id);
  edges_.erase(it);
  return Status::OK();
}

Status ProcessSchema::RemoveDataEdge(NodeId node, DataId data,
                                     AccessMode mode) {
  ADEPT_RETURN_IF_ERROR(CheckMutable());
  auto it = std::find_if(data_edges_.begin(), data_edges_.end(),
                         [&](const DataEdge& de) {
                           return de.node == node && de.data == data &&
                                  de.mode == mode;
                         });
  if (it == data_edges_.end()) return Status::NotFound("no such data edge");
  data_edges_.erase(it);
  return Status::OK();
}

Node* ProcessSchema::MutableNode(NodeId id) {
  if (frozen_) return nullptr;
  auto it = nodes_.find(id.value());
  return it == nodes_.end() ? nullptr : &it->second;
}

Status ProcessSchema::SetBranchValue(EdgeId id, int branch_value) {
  ADEPT_RETURN_IF_ERROR(CheckMutable());
  auto it = edges_.find(id.value());
  if (it == edges_.end()) return Status::NotFound("no such edge");
  it->second.branch_value = branch_value;
  return Status::OK();
}

void ProcessSchema::BumpCounters(uint32_t node, uint32_t edge, uint32_t data) {
  next_node_id_ = std::max(next_node_id_, node);
  next_edge_id_ = std::max(next_edge_id_, edge);
  next_data_id_ = std::max(next_data_id_, data);
}

Status ProcessSchema::Freeze() {
  ADEPT_RETURN_IF_ERROR(CheckMutable());

  // Locate unique start / end nodes.
  start_ = NodeId::Invalid();
  end_ = NodeId::Invalid();
  for (const auto& [_, n] : nodes_) {
    if (n.type == NodeType::kStartFlow) {
      if (start_.valid()) {
        return Status::VerificationFailed("multiple start-flow nodes");
      }
      start_ = n.id;
    } else if (n.type == NodeType::kEndFlow) {
      if (end_.valid()) {
        return Status::VerificationFailed("multiple end-flow nodes");
      }
      end_ = n.id;
    }
  }
  if (!start_.valid() || !end_.valid()) {
    return Status::VerificationFailed("missing start-flow or end-flow node");
  }

  node_data_edges_.clear();
  for (size_t i = 0; i < data_edges_.size(); ++i) {
    const DataEdge& de = data_edges_[i];
    if (FindNode(de.node) == nullptr || FindData(de.data) == nullptr) {
      return Status::VerificationFailed("data edge has a dangling endpoint");
    }
    node_data_edges_[de.node.value()].push_back(i);
  }

  frozen_ = true;

  // Block structure (also allowed to fail pre-verification).
  auto tree = BlockTree::Build(*this);
  if (tree.ok()) {
    block_tree_ = std::move(tree).value();
    block_tree_error_.clear();
  } else {
    block_tree_.reset();
    block_tree_error_ = tree.status().message();
  }
  return Status::OK();
}

std::shared_ptr<ProcessSchema> ProcessSchema::Clone() const {
  auto copy = std::make_shared<ProcessSchema>(type_name_, version_);
  copy->nodes_ = nodes_;
  copy->edges_ = edges_;
  copy->data_ = data_;
  copy->data_edges_ = data_edges_;
  copy->out_edges_ = out_edges_;
  copy->in_edges_ = in_edges_;
  copy->next_node_id_ = next_node_id_;
  copy->next_edge_id_ = next_edge_id_;
  copy->next_data_id_ = next_data_id_;
  return copy;
}

NodeId ProcessSchema::start_node() const {
  if (frozen_) return start_;
  for (const auto& [_, n] : nodes_) {
    if (n.type == NodeType::kStartFlow) return n.id;
  }
  return NodeId::Invalid();
}

NodeId ProcessSchema::end_node() const {
  if (frozen_) return end_;
  for (const auto& [_, n] : nodes_) {
    if (n.type == NodeType::kEndFlow) return n.id;
  }
  return NodeId::Invalid();
}

const Node* ProcessSchema::FindNode(NodeId id) const {
  if (!id.valid()) return nullptr;
  auto it = nodes_.find(id.value());
  return it == nodes_.end() ? nullptr : &it->second;
}

const Edge* ProcessSchema::FindEdge(EdgeId id) const {
  if (!id.valid()) return nullptr;
  auto it = edges_.find(id.value());
  return it == edges_.end() ? nullptr : &it->second;
}

const DataElement* ProcessSchema::FindData(DataId id) const {
  if (!id.valid()) return nullptr;
  auto it = data_.find(id.value());
  return it == data_.end() ? nullptr : &it->second;
}

void ProcessSchema::VisitNodes(
    const std::function<void(const Node&)>& fn) const {
  for (const auto& [_, n] : nodes_) fn(n);
}

void ProcessSchema::VisitEdges(
    const std::function<void(const Edge&)>& fn) const {
  for (const auto& [_, e] : edges_) fn(e);
}

void ProcessSchema::VisitData(
    const std::function<void(const DataElement&)>& fn) const {
  for (const auto& [_, d] : data_) fn(d);
}

void ProcessSchema::VisitOutEdges(
    NodeId node, const std::function<void(const Edge&)>& fn) const {
  auto it = out_edges_.find(node.value());
  if (it == out_edges_.end()) return;
  for (EdgeId id : it->second) fn(edges_.at(id.value()));
}

void ProcessSchema::VisitInEdges(
    NodeId node, const std::function<void(const Edge&)>& fn) const {
  auto it = in_edges_.find(node.value());
  if (it == in_edges_.end()) return;
  for (EdgeId id : it->second) fn(edges_.at(id.value()));
}

void ProcessSchema::VisitDataEdges(
    NodeId node, const std::function<void(const DataEdge&)>& fn) const {
  if (frozen_) {
    auto it = node_data_edges_.find(node.value());
    if (it == node_data_edges_.end()) return;
    for (size_t i : it->second) fn(data_edges_[i]);
    return;
  }
  for (const DataEdge& de : data_edges_) {
    if (de.node == node) fn(de);
  }
}

Result<const BlockTree*> ProcessSchema::block_tree() const {
  if (!frozen_) return Status::FailedPrecondition("schema not frozen");
  if (!block_tree_.has_value()) {
    return Status::VerificationFailed(block_tree_error_.empty()
                                          ? "block structure not available"
                                          : block_tree_error_);
  }
  return &*block_tree_;
}

size_t ProcessSchema::MemoryFootprint() const {
  // Red-black tree / hash node overheads approximated at 48 bytes.
  constexpr size_t kNodeOverhead = 48;
  size_t bytes = sizeof(*this);
  for (const auto& [_, n] : nodes_) {
    bytes += kNodeOverhead + sizeof(Node) + n.name.capacity() +
             n.activity_template.capacity();
    for (const auto& [k, v] : n.attributes) {
      bytes += k.capacity() + v.capacity() + kNodeOverhead;
    }
  }
  bytes += edges_.size() * (kNodeOverhead + sizeof(Edge));
  for (const auto& [_, d] : data_) {
    bytes += kNodeOverhead + sizeof(DataElement) + d.name.capacity();
  }
  bytes += data_edges_.capacity() * sizeof(DataEdge);
  for (const auto& [_, v] : out_edges_) {
    bytes += kNodeOverhead + v.capacity() * sizeof(EdgeId);
  }
  for (const auto& [_, v] : in_edges_) {
    bytes += kNodeOverhead + v.capacity() * sizeof(EdgeId);
  }
  for (const auto& [_, v] : node_data_edges_) {
    bytes += kNodeOverhead + v.capacity() * sizeof(size_t);
  }
  return bytes;
}

}  // namespace adept
