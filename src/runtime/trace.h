// ExecutionTrace: the complete, append-only history of a process instance.
//
// Besides activity start/complete events the trace records loop resets,
// data writes, ad-hoc changes and migrations. The compliance checker's
// general criterion is defined on the *reduced* trace: ADEPT's relaxed
// trace equivalence projects away loop iterations other than the last one
// of each loop block [Rinderle et al. 2004]. A kLoopReset event carries the
// set of nodes whose history it logically erases, so the reduction is a
// single backwards scan and independent of later schema changes.
//
// A trace stores one 16-byte TraceRecord per event. Events are numbered
// 0, 1, 2, ... without gaps and never removed, so an event's sequence is
// its index and no record stores it. The rare payloads, a loop reset's
// region and a detail text, are immutable notes that records reference
// through the trace's note table; copying a trace or an event shares them.

#ifndef ADEPT_RUNTIME_TRACE_H_
#define ADEPT_RUNTIME_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"

namespace adept {

enum class TraceEventKind : uint8_t {
  kInstanceStarted = 0,
  kActivityStarted,
  kActivityCompleted,
  kActivitySkipped,
  kActivityFailed,
  kActivityRetried,
  kLoopReset,     // loop iterated; `reset_nodes` lists the erased region
  kDataWrite,     // node wrote data element
  kBranchChosen,  // XOR decision
  kAdHocChange,   // instance-specific change applied (detail = op summary)
  kMigrated,      // instance migrated to a new schema version
};

const char* TraceEventKindToString(TraceEventKind k);

// The rare payloads of a trace event as one immutable note: the region a
// loop reset erases and a free-text detail (failure reason, change
// summary, migration target). An event without either holds no note.
// Copies share the note, so one note can serve every event, trace and
// instance that records the same payload: a migration call hands one note
// per outcome text to every instance it migrates.
class TracePayload {
 public:
  TracePayload() = default;
  TracePayload(std::vector<NodeId> reset_nodes, std::string detail);

  bool empty() const { return note_ == nullptr; }
  const std::vector<NodeId>& reset_nodes() const;
  const std::string& detail() const;

  // This handle's share of the note's heap bytes (0 without a note): a
  // note held by k handles counts 1/k for each, so a sum over every handle
  // counts it once.
  size_t MemoryFootprint() const;

 private:
  struct Note {
    std::vector<NodeId> reset_nodes;
    std::string detail;
  };
  std::shared_ptr<const Note> note_;
};

// Hands out one note per distinct detail text, so every trace that takes
// its notes from one pool shares them. A migration call uses one for
// every instance it migrates, a snapshot load one for every instance it
// loads, and any other trace load one of its own.
class TraceNotePool {
 public:
  // The pool's note for `text`; no note for an empty text.
  TracePayload Detail(const std::string& text);

 private:
  std::unordered_map<std::string, TracePayload> notes_;
};

// One event as readers see it, built from its record on demand.
struct TraceEvent {
  int64_t sequence = 0;  // the event's index in its trace
  TraceEventKind kind = TraceEventKind::kInstanceStarted;
  NodeId node{};         // subject node (if any)
  DataId data{};         // subject data element (kDataWrite only)
  int branch_value = 0;  // kBranchChosen only
  int iteration = 0;     // iteration count of the loop (kLoopReset only)
  TracePayload payload{};

  // kLoopReset only; empty otherwise.
  const std::vector<NodeId>& reset_nodes() const {
    return payload.reset_nodes();
  }
  const std::string& detail() const { return payload.detail(); }
};

// The stored form of one event. `value` holds the one field the kind uses:
// the data id of a kDataWrite, the branch of a kBranchChosen or the
// iteration of a kLoopReset (no kind uses two). `note` is 1 + the index of
// the event's note in its trace's note table, 0 without one.
struct TraceRecord {
  TraceEventKind kind = TraceEventKind::kInstanceStarted;
  NodeId node{};
  uint32_t value = 0;
  uint32_t note = 0;
};
static_assert(sizeof(TraceRecord) <= 16, "a trace record packs in 16 bytes");

class ExecutionTrace;

// A view of a trace's events in sequence order. Its elements are
// TraceEvent values built from the records, so `for (const TraceEvent& e :
// trace.events())` binds each to a temporary; `[i]` builds one by index.
class TraceEventsView {
 public:
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = TraceEvent;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = TraceEvent;

    Iterator(const ExecutionTrace* trace, size_t index)
        : trace_(trace), index_(index) {}

    TraceEvent operator*() const;
    Iterator& operator++() {
      ++index_;
      return *this;
    }
    bool operator==(const Iterator& other) const {
      return index_ == other.index_;
    }
    bool operator!=(const Iterator& other) const {
      return index_ != other.index_;
    }

   private:
    const ExecutionTrace* trace_;
    size_t index_;
  };

  explicit TraceEventsView(const ExecutionTrace* trace) : trace_(trace) {}

  size_t size() const;
  TraceEvent operator[](size_t index) const;
  Iterator begin() const { return Iterator(trace_, 0); }
  Iterator end() const { return Iterator(trace_, size()); }

 private:
  const ExecutionTrace* trace_;
};

class ExecutionTrace {
 public:
  // Appends an event and returns its sequence, the number of events before
  // it; `event.sequence` is ignored. The event's note is shared, not copied.
  int64_t Append(TraceEvent event);

  TraceEventsView events() const { return TraceEventsView(this); }
  int64_t next_sequence() const {
    return static_cast<int64_t>(records_.size());
  }

  // Events surviving loop reduction: for every kLoopReset, all earlier
  // events whose node is in `reset_nodes` (and the matching data writes /
  // branch decisions) are dropped. kLoopReset markers themselves and
  // change/migration markers are kept.
  std::vector<TraceEvent> Reduced() const;

  // Most recent start/completion sequence of `node` in the reduced trace;
  // -1 if absent. Used by per-operation compliance conditions that need
  // relative order (e.g. sync edge insertion on completed nodes).
  int64_t LastStartSeq(NodeId node) const;
  int64_t LastCompletionSeq(NodeId node) const;
  // Most recent completion or skip of `node`: the event that resolved it.
  int64_t LastResolutionSeq(NodeId node) const;

  // Most recent XOR decision recorded for `split` in the reduced trace
  // (nullopt if the split never fired in the current iteration). Marking
  // re-evaluation uses this to re-signal edges of a completed split whose
  // outgoing edges were rewritten by a change.
  std::optional<int> LastBranchChosen(NodeId split) const;

  // The same events with node and data ids rewritten through the maps (an
  // id without an entry stays); bias cancellation moves an instance's
  // state onto the type change's ids with it. A note is shared unless the
  // map changes its reset region.
  ExecutionTrace Remapped(const std::unordered_map<NodeId, NodeId>& nodes,
                          const std::unordered_map<DataId, DataId>& data) const;

  // Bytes of the records, the note table and this trace's share of each
  // note (TracePayload::MemoryFootprint), so a sum over every trace that
  // holds a note counts it once.
  size_t MemoryFootprint() const;

  std::string DebugString() const;

 private:
  friend class TraceEventsView;

  // The event with sequence `index`, built from its record.
  TraceEvent EventAt(size_t index) const;
  const TracePayload& NoteOf(const TraceRecord& record) const;
  // Index of the last record of `node` whose kind is in `kinds` (a bit per
  // kind), searching no further back than a loop reset that erased the
  // node; -1 if none.
  int64_t LastOf(NodeId node, uint32_t kinds) const;

  std::vector<TraceRecord> records_;
  std::vector<TracePayload> notes_;
};

inline size_t TraceEventsView::size() const {
  return static_cast<size_t>(trace_->next_sequence());
}

inline TraceEvent TraceEventsView::operator[](size_t index) const {
  return trace_->EventAt(index);
}

inline TraceEvent TraceEventsView::Iterator::operator*() const {
  return TraceEventsView(trace_)[index_];
}

}  // namespace adept

#endif  // ADEPT_RUNTIME_TRACE_H_
