#include "runtime/trace.h"

#include <algorithm>
#include <cassert>
#include <sstream>

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

namespace {

constexpr uint32_t Bit(TraceEventKind kind) {
  return 1u << static_cast<unsigned>(kind);
}

// The one value a record keeps: the field the event's kind uses. The
// engine never sets the other two.
uint32_t ValueOf(const TraceEvent& event) {
  switch (event.kind) {
    case TraceEventKind::kDataWrite:
      assert(event.branch_value == 0 && event.iteration == 0);
      return event.data.value();
    case TraceEventKind::kBranchChosen:
      assert(!event.data.valid() && event.iteration == 0);
      return static_cast<uint32_t>(event.branch_value);
    case TraceEventKind::kLoopReset:
      assert(!event.data.valid() && event.branch_value == 0);
      return static_cast<uint32_t>(event.iteration);
    default:
      assert(!event.data.valid() && event.branch_value == 0 &&
             event.iteration == 0);
      return 0;
  }
}

}  // namespace

TracePayload::TracePayload(std::vector<NodeId> reset_nodes,
                           std::string detail) {
  if (reset_nodes.empty() && detail.empty()) return;
  note_ = std::make_shared<const Note>(
      Note{std::move(reset_nodes), std::move(detail)});
}

const std::vector<NodeId>& TracePayload::reset_nodes() const {
  static const std::vector<NodeId> kNone;
  return note_ == nullptr ? kNone : note_->reset_nodes;
}

const std::string& TracePayload::detail() const {
  static const std::string kNone;
  return note_ == nullptr ? kNone : note_->detail;
}

size_t TracePayload::MemoryFootprint() const {
  if (note_ == nullptr) return 0;
  return (sizeof(Note) + note_->detail.capacity() +
          note_->reset_nodes.capacity() * sizeof(NodeId)) /
         static_cast<size_t>(note_.use_count());
}

TracePayload TraceNotePool::Detail(const std::string& text) {
  if (text.empty()) return {};
  auto [it, inserted] = notes_.try_emplace(text);
  if (inserted) it->second = TracePayload({}, text);
  return it->second;
}

int64_t ExecutionTrace::Append(TraceEvent event) {
  TraceRecord record{event.kind, event.node, ValueOf(event), 0};
  if (!event.payload.empty()) {
    notes_.push_back(std::move(event.payload));
    record.note = static_cast<uint32_t>(notes_.size());
  }
  records_.push_back(record);
  return next_sequence() - 1;
}

TraceEvent ExecutionTrace::EventAt(size_t index) const {
  const TraceRecord& record = records_[index];
  TraceEvent event{.sequence = static_cast<int64_t>(index),
                   .kind = record.kind,
                   .node = record.node};
  switch (record.kind) {
    case TraceEventKind::kDataWrite:
      event.data = DataId(record.value);
      break;
    case TraceEventKind::kBranchChosen:
      event.branch_value = static_cast<int>(record.value);
      break;
    case TraceEventKind::kLoopReset:
      event.iteration = static_cast<int>(record.value);
      break;
    default:
      break;
  }
  event.payload = NoteOf(record);
  return event;
}

const TracePayload& ExecutionTrace::NoteOf(const TraceRecord& record) const {
  static const TracePayload kNone;
  return record.note == 0 ? kNone : notes_[record.note - 1];
}

std::vector<TraceEvent> ExecutionTrace::Reduced() const {
  // Backwards scan: per node, the last reset that names it. Earlier events
  // of the node are erased; node-less events survive.
  std::unordered_map<NodeId, size_t> erased_until;
  for (size_t i = records_.size(); i-- > 0;) {
    if (records_[i].kind != TraceEventKind::kLoopReset) continue;
    for (NodeId n : NoteOf(records_[i]).reset_nodes()) {
      erased_until.emplace(n, i);
    }
  }
  std::vector<TraceEvent> out;
  out.reserve(records_.size());
  for (size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].node.valid()) {
      auto it = erased_until.find(records_[i].node);
      if (it != erased_until.end() && i < it->second) continue;
    }
    out.push_back(EventAt(i));
  }
  return out;
}

int64_t ExecutionTrace::LastOf(NodeId node, uint32_t kinds) const {
  for (size_t i = records_.size(); i-- > 0;) {
    const TraceRecord& record = records_[i];
    // A reset erases earlier iterations: stop searching past it.
    if (record.kind == TraceEventKind::kLoopReset) {
      const std::vector<NodeId>& reset = NoteOf(record).reset_nodes();
      if (std::find(reset.begin(), reset.end(), node) != reset.end()) {
        return -1;
      }
    }
    if (record.node == node && (Bit(record.kind) & kinds) != 0) {
      return static_cast<int64_t>(i);
    }
  }
  return -1;
}

int64_t ExecutionTrace::LastStartSeq(NodeId node) const {
  return LastOf(node, Bit(TraceEventKind::kActivityStarted));
}

int64_t ExecutionTrace::LastCompletionSeq(NodeId node) const {
  return LastOf(node, Bit(TraceEventKind::kActivityCompleted));
}

int64_t ExecutionTrace::LastResolutionSeq(NodeId node) const {
  return LastOf(node, Bit(TraceEventKind::kActivityCompleted) |
                          Bit(TraceEventKind::kActivitySkipped));
}

std::optional<int> ExecutionTrace::LastBranchChosen(NodeId split) const {
  int64_t i = LastOf(split, Bit(TraceEventKind::kBranchChosen));
  if (i < 0) return std::nullopt;
  return static_cast<int>(records_[static_cast<size_t>(i)].value);
}

ExecutionTrace ExecutionTrace::Remapped(
    const std::unordered_map<NodeId, NodeId>& nodes,
    const std::unordered_map<DataId, DataId>& data) const {
  auto map_node = [&](NodeId id) {
    auto it = nodes.find(id);
    return it == nodes.end() ? id : it->second;
  };
  ExecutionTrace out = *this;
  for (TraceRecord& record : out.records_) {
    if (record.node.valid()) record.node = map_node(record.node);
    if (record.kind != TraceEventKind::kDataWrite) continue;
    auto it = data.find(DataId(record.value));
    if (it != data.end()) record.value = it->second.value();
  }
  for (TracePayload& note : out.notes_) {
    std::vector<NodeId> reset = note.reset_nodes();
    bool changed = false;
    for (NodeId& n : reset) {
      NodeId mapped = map_node(n);
      changed = changed || mapped != n;
      n = mapped;
    }
    if (changed) note = TracePayload(std::move(reset), note.detail());
  }
  return out;
}

size_t ExecutionTrace::MemoryFootprint() const {
  size_t bytes = sizeof(*this) + records_.capacity() * sizeof(TraceRecord) +
                 notes_.capacity() * sizeof(TracePayload);
  for (const TracePayload& note : notes_) bytes += note.MemoryFootprint();
  return bytes;
}

std::string ExecutionTrace::DebugString() const {
  std::ostringstream os;
  for (const TraceEvent& e : events()) {
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
