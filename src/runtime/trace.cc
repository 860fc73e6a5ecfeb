#include "runtime/trace.h"

#include <sstream>
#include <unordered_set>

namespace adept {

const char* TraceEventKindToString(TraceEventKind k) {
  switch (k) {
    case TraceEventKind::kInstanceStarted:
      return "InstanceStarted";
    case TraceEventKind::kActivityStarted:
      return "Started";
    case TraceEventKind::kActivityCompleted:
      return "Completed";
    case TraceEventKind::kActivitySkipped:
      return "Skipped";
    case TraceEventKind::kActivityFailed:
      return "Failed";
    case TraceEventKind::kActivityRetried:
      return "Retried";
    case TraceEventKind::kLoopReset:
      return "LoopReset";
    case TraceEventKind::kDataWrite:
      return "DataWrite";
    case TraceEventKind::kBranchChosen:
      return "BranchChosen";
    case TraceEventKind::kAdHocChange:
      return "AdHocChange";
    case TraceEventKind::kMigrated:
      return "Migrated";
  }
  return "?";
}

TracePayload::TracePayload(std::vector<NodeId> reset_nodes,
                           std::string detail) {
  if (reset_nodes.empty() && detail.empty()) return;
  fields_ = std::make_unique<Fields>(
      Fields{std::move(reset_nodes), std::move(detail)});
}

TracePayload::TracePayload(const TracePayload& other)
    : fields_(other.fields_ == nullptr
                  ? nullptr
                  : std::make_unique<Fields>(*other.fields_)) {}

TracePayload& TracePayload::operator=(const TracePayload& other) {
  if (this != &other) *this = TracePayload(other);
  return *this;
}

const std::vector<NodeId>& TracePayload::reset_nodes() const {
  static const std::vector<NodeId> kNone;
  return fields_ == nullptr ? kNone : fields_->reset_nodes;
}

const std::string& TracePayload::detail() const {
  static const std::string kNone;
  return fields_ == nullptr ? kNone : fields_->detail;
}

size_t TracePayload::MemoryFootprint() const {
  if (fields_ == nullptr) return 0;
  return sizeof(Fields) + fields_->detail.capacity() +
         fields_->reset_nodes.capacity() * sizeof(NodeId);
}

int64_t ExecutionTrace::Append(TraceEvent event) {
  event.sequence = next_sequence_++;
  events_.push_back(std::move(event));
  return events_.back().sequence;
}

void ExecutionTrace::Restore(std::vector<TraceEvent> events) {
  events_ = std::move(events);
  next_sequence_ = events_.empty() ? 0 : events_.back().sequence + 1;
}

std::vector<TraceEvent> ExecutionTrace::Reduced() const {
  // Backwards scan: collect, per node, the sequence *after* which events
  // survive (the last reset touching the node). Node-less events survive.
  std::unordered_map<NodeId, int64_t> erased_until;
  for (auto it = events_.rbegin(); it != events_.rend(); ++it) {
    if (it->kind != TraceEventKind::kLoopReset) continue;
    for (NodeId n : it->reset_nodes()) {
      auto ins = erased_until.emplace(n, it->sequence);
      if (!ins.second && ins.first->second < it->sequence) {
        ins.first->second = it->sequence;
      }
    }
  }
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  for (const TraceEvent& e : events_) {
    if (e.node.valid()) {
      auto it = erased_until.find(e.node);
      if (it != erased_until.end() && e.sequence < it->second) continue;
    }
    out.push_back(e);
  }
  return out;
}

int64_t ExecutionTrace::LastStartSeq(NodeId node) const {
  for (auto it = events_.rbegin(); it != events_.rend(); ++it) {
    // A reset erases earlier iterations: stop searching past it.
    if (it->kind == TraceEventKind::kLoopReset) {
      for (NodeId n : it->reset_nodes()) {
        if (n == node) return -1;
      }
    }
    if (it->node == node && it->kind == TraceEventKind::kActivityStarted) {
      return it->sequence;
    }
  }
  return -1;
}

int64_t ExecutionTrace::LastCompletionSeq(NodeId node) const {
  for (auto it = events_.rbegin(); it != events_.rend(); ++it) {
    if (it->kind == TraceEventKind::kLoopReset) {
      for (NodeId n : it->reset_nodes()) {
        if (n == node) return -1;
      }
    }
    if (it->node == node && it->kind == TraceEventKind::kActivityCompleted) {
      return it->sequence;
    }
  }
  return -1;
}

std::optional<int> ExecutionTrace::LastBranchChosen(NodeId split) const {
  for (auto it = events_.rbegin(); it != events_.rend(); ++it) {
    if (it->kind == TraceEventKind::kLoopReset) {
      for (NodeId n : it->reset_nodes()) {
        if (n == split) return std::nullopt;
      }
    }
    if (it->node == split && it->kind == TraceEventKind::kBranchChosen) {
      return it->branch_value;
    }
  }
  return std::nullopt;
}

size_t ExecutionTrace::MemoryFootprint() const {
  size_t bytes = sizeof(*this) + events_.capacity() * sizeof(TraceEvent);
  for (const TraceEvent& e : events_) bytes += e.payload.MemoryFootprint();
  return bytes;
}

std::string ExecutionTrace::DebugString() const {
  std::ostringstream os;
  for (const TraceEvent& e : events_) {
    os << e.sequence << " " << TraceEventKindToString(e.kind);
    if (e.node.valid()) os << " node=" << e.node;
    if (e.data.valid()) os << " data=" << e.data;
    if (e.kind == TraceEventKind::kBranchChosen) {
      os << " branch=" << e.branch_value;
    }
    if (e.kind == TraceEventKind::kLoopReset) {
      os << " iteration=" << e.iteration;
    }
    if (!e.detail().empty()) os << " (" << e.detail() << ")";
    os << "\n";
  }
  return os.str();
}

}  // namespace adept
