#include "runtime/instance.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "common/string_util.h"
#include "model/block_tree.h"
#include "runtime/instance_snapshot.h"

namespace adept {

namespace {

// Upper bound on automatic state transitions per propagation fixpoint;
// exceeding it means a loop without user activities spins forever.
constexpr int kMaxAutoTransitionsFactor = 64;

}  // namespace

ProcessInstance::ProcessInstance(InstanceId id,
                                 std::shared_ptr<const SchemaView> schema,
                                 SchemaId schema_ref)
    : id_(id), schema_(std::move(schema)), schema_ref_(schema_ref) {}

void ProcessInstance::SetNodeState(NodeId node, NodeState state) {
  NodeState old = marking_.node(node);
  if (old == state) return;
  marking_.set_node(node, state);
  // Activation stamps: set on entering kActivated, kept while the node is
  // in flight (Running/Suspended/Failed), dropped when its run is over or
  // reset. The stamp is the logical time (trace sequence) of activation.
  if (state == NodeState::kActivated) {
    if (old == NodeState::kNotActivated || old == NodeState::kCompleted ||
        old == NodeState::kSkipped) {
      activated_since_.Set(node, trace_.next_sequence());
    }
  } else if (state == NodeState::kNotActivated ||
             state == NodeState::kCompleted || state == NodeState::kSkipped) {
    activated_since_.Erase(node);
  }
  if (observer_ != nullptr) {
    observer_->OnNodeStateChange(*this, node, old, state);
  }
}

Status ProcessInstance::Start() {
  if (started_) return Status::FailedPrecondition("instance already started");
  started_ = true;
  trace_.Append({.kind = TraceEventKind::kInstanceStarted});
  const Node* start = schema_->FindNode(schema_->start_node());
  if (start == nullptr) return Status::Internal("schema has no start node");
  SetNodeState(start->id, NodeState::kCompleted);
  SignalCompletion(*start);
  return Propagate();
}

std::optional<NodeState> ProcessInstance::ComputeActivation(
    const Node& node) const {
  // Control side.
  int in_control = 0, in_true = 0, in_false = 0;
  bool sync_pending = false;
  schema_->VisitInEdges(node.id, [&](const Edge& e) {
    if (e.type == EdgeType::kControl) {
      ++in_control;
      EdgeState s = marking_.edge(e.id);
      if (s == EdgeState::kTrueSignaled) ++in_true;
      if (s == EdgeState::kFalseSignaled) ++in_false;
    } else if (e.type == EdgeType::kSync) {
      if (marking_.edge(e.id) == EdgeState::kNotSignaled) sync_pending = true;
    }
  });
  if (in_control == 0) return std::nullopt;  // start flow: handled by Start()

  bool control_ready = false;
  bool control_dead = false;
  if (node.type == NodeType::kXorJoin) {
    control_ready = in_true >= 1;
    control_dead = in_false == in_control;
  } else if (node.type == NodeType::kAndJoin) {
    control_ready = in_true == in_control;
    control_dead = (in_true + in_false == in_control) && in_false > 0;
  } else {
    control_ready = in_true == in_control;
    control_dead = in_false > 0;
  }
  if (control_dead) return NodeState::kSkipped;
  if (!control_ready) return std::nullopt;
  // ADEPT sync rule: the node may start only once every incoming sync edge
  // is resolved (source completed or definitely skipped).
  if (sync_pending) return std::nullopt;
  return NodeState::kActivated;
}

Status ProcessInstance::Propagate() {
  // Signal targets are in the frontier already; Activated splits and joins
  // can fire without a new signal.
  marking_.activated().ForEach([&](NodeId id) { frontier_.push_back(id); });

  const int max_transitions =
      static_cast<int>(schema_->node_count()) * kMaxAutoTransitionsFactor +
      1024;
  int transitions = 0;
  while (!frontier_.empty()) {
    std::set<NodeId> pass(frontier_.begin(), frontier_.end());  // ascending
    frontier_.clear();
    while (!pass.empty()) {
      const NodeId id = *pass.begin();
      pass.erase(pass.begin());
      const size_t touched = frontier_.size();
      Result<bool> fired = Fire(id);
      if (!fired.ok()) {
        frontier_.push_back(id);
        frontier_.insert(frontier_.end(), pass.begin(), pass.end());
        return fired.status();
      }
      // Nodes touched above `id` are still ahead of this pass; the rest
      // wait for the next one, as does a node that transitioned (a newly
      // Activated split or join auto-completes there).
      auto ahead = std::partition(frontier_.begin() + touched, frontier_.end(),
                                  [&](NodeId n) { return !(id < n); });
      pass.insert(ahead, frontier_.end());
      frontier_.erase(ahead, frontier_.end());
      if (*fired) {
        ++transitions;
        frontier_.push_back(id);
      }
    }
    if (transitions > max_transitions) {
      return Status::Internal(
          "propagation did not converge (loop without user activities?)");
    }
  }
  std::vector<NodeId>().swap(frontier_);  // keep idle instances small
  if (Finished() && !finished_notified_) {
    finished_notified_ = true;
    if (observer_ != nullptr) observer_->OnInstanceFinished(*this);
  }
  return Status::OK();
}

Status ProcessInstance::PropagateMarkings() {
  // Only a node with a signalled in-edge can become Activated or Skipped.
  marking_.edge_states().ForEach([&](EdgeId edge, EdgeState) {
    const Edge* e = schema_->FindEdge(edge);
    if (e != nullptr) frontier_.push_back(e->dst);
  });
  return Propagate();
}

Result<bool> ProcessInstance::Fire(NodeId id) {
  const Node* node = schema_->FindNode(id);
  if (node == nullptr) return false;
  NodeState state = marking_.node(id);
  if (state == NodeState::kNotActivated) {
    std::optional<NodeState> next = ComputeActivation(*node);
    if (!next.has_value()) return false;
    if (*next == NodeState::kSkipped) {
      SkipNode(*node);
    } else {
      SetNodeState(id, NodeState::kActivated);
    }
    return true;
  }
  if (state != NodeState::kActivated || node->type == NodeType::kActivity) {
    return false;
  }
  if (node->type == NodeType::kXorSplit) {
    // Without a decidable branch the split waits in Activated until data
    // arrives or SelectBranch() is called.
    std::optional<int> decision = BranchDecision(*node);
    if (!decision.has_value()) return false;
    DecideBranch(*node, *decision);
  } else if (node->type == NodeType::kLoopEnd) {
    ADEPT_RETURN_IF_ERROR(HandleLoopEnd(*node));
  } else {
    SetNodeState(id, NodeState::kCompleted);
    SignalCompletion(*node);
  }
  return true;
}

bool ProcessInstance::HasBranch(const Node& split, int code) const {
  bool found = false;
  schema_->VisitOutEdges(split.id, [&](const Edge& e) {
    if (e.type == EdgeType::kControl && e.branch_value == code) found = true;
  });
  return found;
}

std::optional<int> ProcessInstance::BranchDecision(const Node& split) const {
  int code = 0;
  auto it = selected_branch_.find(split.id);
  if (it != selected_branch_.end()) {
    code = it->second;
  } else {
    if (!split.decision_data.valid()) return std::nullopt;
    auto value = data_.Read(split.decision_data);
    if (!value.ok()) return std::nullopt;
    code = static_cast<int>(value->as_int());
  }
  if (!HasBranch(split, code)) return std::nullopt;
  return code;
}

Result<bool> ProcessInstance::EvaluateLoopCondition(const Node& node) {
  auto it = loop_decision_.find(node.id);
  if (it != loop_decision_.end()) {
    bool iterate = it->second;
    loop_decision_.erase(it);
    return iterate;
  }
  if (!node.loop_data.valid()) return false;  // default: single pass
  auto value = data_.Read(node.loop_data);
  if (!value.ok()) return false;
  return value->as_bool();
}

void ProcessInstance::SetEdgeState(const Edge& edge, EdgeState state) {
  if (marking_.edge(edge.id) == state) return;
  marking_.set_edge(edge.id, state);
  frontier_.push_back(edge.dst);
}

void ProcessInstance::DecideBranch(const Node& split, int decision) {
  selected_branch_.erase(split.id);
  SetNodeState(split.id, NodeState::kCompleted);
  bool matched = false;
  schema_->VisitOutEdges(split.id, [&](const Edge& e) {
    if (e.type != EdgeType::kControl) return;
    bool chosen = !matched && e.branch_value == decision;
    matched = matched || chosen;
    SetEdgeState(e, chosen ? EdgeState::kTrueSignaled
                           : EdgeState::kFalseSignaled);
  });
  trace_.Append({.kind = TraceEventKind::kBranchChosen,
                 .node = split.id,
                 .branch_value = decision});
}

void ProcessInstance::SignalCompletion(const Node& node) {
  schema_->VisitOutEdges(node.id, [&](const Edge& e) {
    if (e.type == EdgeType::kLoop) return;
    // Completion signals control and sync edges alike, but never downgrades
    // an existing signal (relevant during marking re-evaluation).
    if (marking_.edge(e.id) == EdgeState::kNotSignaled) {
      SetEdgeState(e, EdgeState::kTrueSignaled);
    }
  });
}

void ProcessInstance::SkipNode(const Node& node) {
  SetNodeState(node.id, NodeState::kSkipped);
  if (node.type == NodeType::kActivity) {
    trace_.Append({.kind = TraceEventKind::kActivitySkipped, .node = node.id});
  }
  schema_->VisitOutEdges(node.id, [&](const Edge& e) {
    if (e.type == EdgeType::kLoop) return;
    SetEdgeState(e, EdgeState::kFalseSignaled);
  });
}

Status ProcessInstance::HandleLoopEnd(const Node& node) {
  ADEPT_ASSIGN_OR_RETURN(bool iterate, EvaluateLoopCondition(node));
  if (!iterate) {
    SetNodeState(node.id, NodeState::kCompleted);
    SignalCompletion(node);
    return Status::OK();
  }
  // The loop edge leads back to the loop start; the region is the loop
  // block, walked from there in BlockTree::NodesIn order.
  NodeId loop_start;
  schema_->VisitOutEdges(node.id, [&](const Edge& e) {
    if (e.type == EdgeType::kLoop && !loop_start.valid()) loop_start = e.dst;
  });
  if (!loop_start.valid()) {
    return Status::Internal("loop end without a loop edge");
  }
  auto walked = WalkBlockNodes(*schema_, loop_start);
  if (!walked.ok()) {
    return Status::Internal("loop iteration without parsable block structure");
  }
  std::vector<NodeId> region = std::move(walked).value();
  const int* prior = loop_iterations_.Find(loop_start);
  int iteration = (prior == nullptr ? 0 : *prior) + 1;
  loop_iterations_.Set(loop_start, iteration);
  trace_.Append({.kind = TraceEventKind::kLoopReset,
                 .node = loop_start,
                 .iteration = iteration,
                 .payload = {region, {}}});

  // Erase body markings: node states, plus the states of every non-loop
  // edge whose source lies inside the block (covers internal edges; the
  // entry edge of the loop start keeps its signal, so propagation restarts
  // the body — the reset nodes join the frontier for that).
  for (NodeId n : region) {
    SetNodeState(n, NodeState::kNotActivated);
    frontier_.push_back(n);
    schema_->VisitOutEdges(n, [&](const Edge& e) {
      SetEdgeState(e, EdgeState::kNotSignaled);
    });
  }
  return Status::OK();
}

Status ProcessInstance::StartActivity(NodeId node_id) {
  const Node* node = schema_->FindNode(node_id);
  if (node == nullptr) return Status::NotFound("no such node");
  if (node->type != NodeType::kActivity) {
    return Status::InvalidArgument("node is not an activity");
  }
  if (marking_.node(node_id) != NodeState::kActivated) {
    return Status::FailedPrecondition(
        StrFormat("activity '%s' is %s, expected Activated",
                  node->name.c_str(),
                  NodeStateToString(marking_.node(node_id))));
  }
  // Defense in depth: mandatory inputs must have values. The verifier
  // guarantees this for unchanged schemas; dynamic changes re-verify, but a
  // cheap runtime check keeps the property robust.
  Status missing = Status::OK();
  schema_->VisitDataEdges(node_id, [&](const DataEdge& de) {
    if (!missing.ok()) return;
    if (de.mode == AccessMode::kRead && !de.optional &&
        !data_.HasValue(de.data)) {
      const DataElement* d = schema_->FindData(de.data);
      missing = Status::FailedPrecondition(
          StrFormat("activity '%s': mandatory input '%s' has no value",
                    node->name.c_str(),
                    d != nullptr ? d->name.c_str() : "?"));
    }
  });
  ADEPT_RETURN_IF_ERROR(missing);
  SetNodeState(node_id, NodeState::kRunning);
  trace_.Append({.kind = TraceEventKind::kActivityStarted, .node = node_id});
  return Status::OK();
}

Status ProcessInstance::CompleteActivity(NodeId node_id,
                                         const std::vector<DataWrite>& writes) {
  const Node* node = schema_->FindNode(node_id);
  if (node == nullptr) return Status::NotFound("no such node");
  if (marking_.node(node_id) != NodeState::kRunning) {
    return Status::FailedPrecondition(
        StrFormat("activity '%s' is %s, expected Running", node->name.c_str(),
                  NodeStateToString(marking_.node(node_id))));
  }

  // Writes must match declared output parameters, and all mandatory output
  // parameters must be supplied.
  std::vector<DataEdge> write_edges =
      schema_->DataEdgesOf(node_id, AccessMode::kWrite);
  for (const DataWrite& w : writes) {
    auto it = std::find_if(
        write_edges.begin(), write_edges.end(),
        [&](const DataEdge& de) { return de.data == w.data; });
    if (it == write_edges.end()) {
      return Status::InvalidArgument(
          StrFormat("activity '%s' has no write edge for the supplied data "
                    "element",
                    node->name.c_str()));
    }
    const DataElement* elem = schema_->FindData(w.data);
    if (elem != nullptr && elem->type != w.value.type()) {
      return Status::InvalidArgument(
          StrFormat("activity '%s': value type mismatch for '%s'",
                    node->name.c_str(), elem->name.c_str()));
    }
  }
  for (const DataEdge& de : write_edges) {
    if (de.optional) continue;
    bool supplied =
        std::any_of(writes.begin(), writes.end(),
                    [&](const DataWrite& w) { return w.data == de.data; });
    if (!supplied) {
      const DataElement* elem = schema_->FindData(de.data);
      return Status::FailedPrecondition(
          StrFormat("activity '%s': mandatory output '%s' not supplied",
                    node->name.c_str(),
                    elem != nullptr ? elem->name.c_str() : "?"));
    }
  }

  for (const DataWrite& w : writes) {
    int64_t seq = trace_.Append(
        {.kind = TraceEventKind::kDataWrite, .node = node_id, .data = w.data});
    data_.Write(w.data, w.value, node_id, seq);
    if (observer_ != nullptr) {
      observer_->OnDataWrite(*this, node_id, w.data, w.value);
    }
  }

  SetNodeState(node_id, NodeState::kCompleted);
  trace_.Append({.kind = TraceEventKind::kActivityCompleted, .node = node_id});
  const uint64_t* runs = completed_runs_.Find(node_id);
  completed_runs_.Set(node_id, (runs == nullptr ? 0 : *runs) + 1);
  ++completed_total_;
  SignalCompletion(*node);
  return Propagate();
}

Status ProcessInstance::FailActivity(NodeId node_id,
                                     const std::string& reason) {
  const Node* node = schema_->FindNode(node_id);
  if (node == nullptr) return Status::NotFound("no such node");
  if (marking_.node(node_id) != NodeState::kRunning) {
    return Status::FailedPrecondition("only running activities can fail");
  }
  SetNodeState(node_id, NodeState::kFailed);
  trace_.Append({.kind = TraceEventKind::kActivityFailed,
                 .node = node_id,
                 .payload = {{}, reason}});
  return Status::OK();
}

Status ProcessInstance::RetryActivity(NodeId node_id) {
  if (marking_.node(node_id) != NodeState::kFailed) {
    return Status::FailedPrecondition("only failed activities can be retried");
  }
  SetNodeState(node_id, NodeState::kActivated);
  trace_.Append({.kind = TraceEventKind::kActivityRetried, .node = node_id});
  return Status::OK();
}

Status ProcessInstance::SuspendActivity(NodeId node_id) {
  if (marking_.node(node_id) != NodeState::kRunning) {
    return Status::FailedPrecondition("only running activities can suspend");
  }
  SetNodeState(node_id, NodeState::kSuspended);
  return Status::OK();
}

Status ProcessInstance::ResumeActivity(NodeId node_id) {
  if (marking_.node(node_id) != NodeState::kSuspended) {
    return Status::FailedPrecondition("activity is not suspended");
  }
  SetNodeState(node_id, NodeState::kRunning);
  return Status::OK();
}

Status ProcessInstance::SelectBranch(NodeId split, int branch_value) {
  const Node* node = schema_->FindNode(split);
  if (node == nullptr || node->type != NodeType::kXorSplit) {
    return Status::InvalidArgument("node is not an XOR split");
  }
  if (IsFinalNodeState(marking_.node(split))) {
    return Status::FailedPrecondition("XOR split already decided");
  }
  if (!HasBranch(*node, branch_value)) {
    return Status::InvalidArgument(
        StrFormat("XOR split '%s' has no branch %d", node->name.c_str(),
                  branch_value));
  }
  selected_branch_[split] = branch_value;
  return Propagate();
}

Status ProcessInstance::SetLoopDecision(NodeId loop_end, bool iterate) {
  const Node* node = schema_->FindNode(loop_end);
  if (node == nullptr || node->type != NodeType::kLoopEnd) {
    return Status::InvalidArgument("node is not a loop end");
  }
  loop_decision_[loop_end] = iterate;
  return Propagate();
}

bool ProcessInstance::Finished() const {
  return marking_.node(schema_->end_node()) == NodeState::kCompleted;
}

std::vector<NodeId> ProcessInstance::ActivatedActivities() const {
  // The marking maintains the activated set as a derived index; filter
  // out the occasional non-activity resident (an XOR split awaiting its
  // decision data sits in kActivated too).
  std::vector<NodeId> out;
  marking_.activated().ForEach([&](NodeId id) {
    const Node* node = schema_->FindNode(id);
    if (node != nullptr && node->type == NodeType::kActivity) {
      out.push_back(id);
    }
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> ProcessInstance::RunningActivities() const {
  // Only activities ever reach kRunning, so no filtering is needed.
  std::vector<NodeId> out;
  marking_.running().ForEach([&](NodeId id) { out.push_back(id); });
  std::sort(out.begin(), out.end());
  return out;
}

int ProcessInstance::loop_iteration(NodeId loop_start) const {
  const int* count = loop_iterations_.Find(loop_start);
  return count == nullptr ? 0 : *count;
}

std::shared_ptr<InstanceSnapshot> ProcessInstance::BuildSnapshot() const {
  // Every container assignment below is an O(1) root copy that pins the
  // current tries; the instance's next mutation path-copies away from
  // them. Publication cost is therefore independent of instance size.
  auto snapshot = std::make_shared<InstanceSnapshot>();
  snapshot->id = id_;
  snapshot->schema = schema_;
  snapshot->schema_ref = schema_ref_;
  snapshot->biased = biased_;
  snapshot->started = started_;
  snapshot->finished = Finished();
  snapshot->marking = marking_;
  snapshot->activated_nodes = marking_.activated();
  snapshot->running_nodes = marking_.running();
  snapshot->activated_since = activated_since_;
  snapshot->completed_runs = completed_runs_;
  snapshot->completed_total = completed_total_;
  snapshot->loop_iterations = loop_iterations_;
  snapshot->data_values = data_.tips();
  snapshot->trace_length = static_cast<int64_t>(trace_.events().size());
  snapshot->trace_next_sequence = trace_.next_sequence();
  return snapshot;
}

size_t ProcessInstance::MemoryFootprint() const {
  return sizeof(*this) + marking_.MemoryFootprint() - sizeof(Marking) +
         trace_.MemoryFootprint() - sizeof(ExecutionTrace) +
         data_.MemoryFootprint() - sizeof(DataContext) +
         loop_iterations_.size() * 24;
}

void ProcessInstance::RestoreState(
    Marking marking, ExecutionTrace trace, DataContext data,
    PersistentMap<NodeId, int> loop_iterations, bool started,
    PersistentMap<NodeId, int64_t> activated_since) {
  marking_ = std::move(marking);
  trace_ = std::move(trace);
  data_ = std::move(data);
  loop_iterations_ = std::move(loop_iterations);
  started_ = started;
  finished_notified_ = Finished();
  // Re-derive the per-node completion counters from the restored trace
  // (covers snapshot recovery and migration's bias-cancellation remap).
  completed_runs_.Clear();
  completed_total_ = 0;
  for (const TraceEvent& event : trace_.events()) {
    if (event.kind == TraceEventKind::kActivityCompleted &&
        event.node.valid()) {
      const uint64_t* runs = completed_runs_.Find(event.node);
      completed_runs_.Set(event.node, (runs == nullptr ? 0 : *runs) + 1);
      ++completed_total_;
    }
  }
  // Activation stamps: take the restored map when present, otherwise
  // (pre-refactor snapshots/WALs) stamp every in-flight node with the
  // trace's next sequence — deterministic, and an upper bound on the true
  // activation time.
  activated_since_ = std::move(activated_since);
  if (activated_since_.empty()) {
    marking_.node_states().ForEach([&](NodeId node, NodeState state) {
      if (state == NodeState::kActivated || state == NodeState::kRunning ||
          state == NodeState::kSuspended || state == NodeState::kFailed) {
        activated_since_.Set(node, trace_.next_sequence());
      }
    });
  }
}

Status ProcessInstance::AdoptSchema(std::shared_ptr<const SchemaView> schema,
                                    SchemaId ref) {
  if (schema == nullptr) return Status::InvalidArgument("null schema");
  schema_ = std::move(schema);
  schema_ref_ = ref;
  return ReevaluateMarkings();
}

Status ProcessInstance::ReevaluateMarkings() {
  // 1. Drop marking entries of entities that no longer exist. Routed
  // through SetNodeState so observers (worklists!) see the retraction.
  std::vector<NodeId> dead_nodes;
  for (const auto& [node, _] : marking_.node_states()) {
    if (schema_->FindNode(node) == nullptr) dead_nodes.push_back(node);
  }
  for (NodeId n : dead_nodes) SetNodeState(n, NodeState::kNotActivated);
  std::vector<EdgeId> dead_edges;
  for (const auto& [edge, _] : marking_.edge_states()) {
    if (schema_->FindEdge(edge) == nullptr) dead_edges.push_back(edge);
  }
  for (EdgeId e : dead_edges) marking_.erase_edge(e);
  std::vector<NodeId> dead_loops;
  for (const auto& [loop_start, _] : loop_iterations_) {
    if (schema_->FindNode(loop_start) == nullptr) {
      dead_loops.push_back(loop_start);
    }
  }
  for (NodeId n : dead_loops) loop_iterations_.Erase(n);

  // 2. Soft-reset: Activated and Skipped node states are derivable.
  std::vector<NodeId> soft;
  for (const auto& [node, state] : marking_.node_states()) {
    if (state == NodeState::kActivated || state == NodeState::kSkipped) {
      soft.push_back(node);
    }
  }
  for (NodeId n : soft) SetNodeState(n, NodeState::kNotActivated);

  // 3. Edge signals of non-completed sources are derivable; signals of
  //    completed sources (including XOR decisions) are facts and stay.
  std::vector<EdgeId> soft_edges;
  for (const auto& [edge, _] : marking_.edge_states()) {
    const Edge* e = schema_->FindEdge(edge);
    if (e == nullptr || marking_.node(e->src) != NodeState::kCompleted) {
      soft_edges.push_back(edge);
    }
  }
  for (EdgeId e : soft_edges) marking_.erase_edge(e);

  // 4. Completed sources signal their (new/unsignaled) outgoing edges.
  std::vector<NodeId> completed;
  marking_.node_states().ForEach([&](NodeId node, NodeState state) {
    if (state == NodeState::kCompleted) completed.push_back(node);
  });
  std::sort(completed.begin(), completed.end());
  for (NodeId id : completed) {
    const Node* node = schema_->FindNode(id);
    if (node == nullptr) continue;
    if (node->type != NodeType::kXorSplit) {
      SignalCompletion(*node);
      continue;
    }
    // Preserved signals encode the decision for surviving edges. Edges
    // rewritten by a change (e.g. serial insert into the chosen branch)
    // are re-signalled from the trace's recorded decision: the inserted
    // edge inherits the branch selection code, so matching codes restores
    // the signal exactly.
    std::optional<int> chosen = trace_.LastBranchChosen(id);
    bool any = false;
    schema_->VisitOutEdges(id, [&](const Edge& e) {
      if (e.type != EdgeType::kControl) return;
      if (marking_.edge(e.id) != EdgeState::kNotSignaled) {
        any = true;
        return;
      }
      if (chosen.has_value()) {
        SetEdgeState(e, e.branch_value == *chosen ? EdgeState::kTrueSignaled
                                                  : EdgeState::kFalseSignaled);
        any = true;
      }
    });
    if (!any) {
      return Status::Internal("completed XOR split lost its decision signals");
    }
  }

  // 5. Standard propagation re-derives activations and dead paths.
  return PropagateMarkings();
}

}  // namespace adept
