// ExecutionTrace: the complete, append-only history of a process instance.
//
// Besides activity start/complete events the trace records loop resets,
// data writes, ad-hoc changes and migrations. The compliance checker's
// general criterion is defined on the *reduced* trace: ADEPT's relaxed
// trace equivalence projects away loop iterations other than the last one
// of each loop block [Rinderle et al. 2004]. A kLoopReset event carries the
// set of nodes whose history it logically erases, so the reduction is a
// single backwards scan and independent of later schema changes.

#ifndef ADEPT_RUNTIME_TRACE_H_
#define ADEPT_RUNTIME_TRACE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"

namespace adept {

enum class TraceEventKind {
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

// The rare payloads of a trace event: the region a loop reset erases and a
// free-text detail (failure reason, change summary, migration target).
// Most events are starts and completions and carry neither, so both live
// in one heap block that exists only while one of them is non-empty; an
// event without them pays one null pointer. Copies are deep.
class TracePayload {
 public:
  TracePayload() = default;
  TracePayload(std::vector<NodeId> reset_nodes, std::string detail);
  TracePayload(const TracePayload& other);
  TracePayload& operator=(const TracePayload& other);
  TracePayload(TracePayload&&) noexcept = default;
  TracePayload& operator=(TracePayload&&) noexcept = default;

  const std::vector<NodeId>& reset_nodes() const;
  const std::string& detail() const;

  // Heap bytes held out of line (0 without payload).
  size_t MemoryFootprint() const;

 private:
  struct Fields {
    std::vector<NodeId> reset_nodes;
    std::string detail;
  };
  std::unique_ptr<Fields> fields_;
};

// 40 bytes: the scalar fields plus the payload pointer.
struct TraceEvent {
  int64_t sequence = 0;
  TraceEventKind kind = TraceEventKind::kInstanceStarted;
  NodeId node{};         // subject node (if any)
  DataId data{};         // subject data element (kDataWrite)
  int branch_value = 0;  // kBranchChosen
  int iteration = 0;     // iteration count of the loop (kLoopReset)
  TracePayload payload{};

  // kLoopReset only; empty otherwise.
  const std::vector<NodeId>& reset_nodes() const {
    return payload.reset_nodes();
  }
  const std::string& detail() const { return payload.detail(); }
};

class ExecutionTrace {
 public:
  // Appends an event, assigning the next sequence number (returned).
  int64_t Append(TraceEvent event);

  // Recovery support: replaces the event log (sequence numbers are taken
  // from the supplied events; the counter continues after the last one).
  void Restore(std::vector<TraceEvent> events);

  const std::vector<TraceEvent>& events() const { return events_; }
  int64_t next_sequence() const { return next_sequence_; }

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

  // Most recent XOR decision recorded for `split` in the reduced trace
  // (nullopt if the split never fired in the current iteration). Marking
  // re-evaluation uses this to re-signal edges of a completed split whose
  // outgoing edges were rewritten by a change.
  std::optional<int> LastBranchChosen(NodeId split) const;

  size_t MemoryFootprint() const;

  std::string DebugString() const;

 private:
  std::vector<TraceEvent> events_;
  int64_t next_sequence_ = 0;
};

}  // namespace adept

#endif  // ADEPT_RUNTIME_TRACE_H_
