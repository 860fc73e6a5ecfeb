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

struct TraceEvent {
  int64_t sequence = 0;
  TraceEventKind kind = TraceEventKind::kInstanceStarted;
  NodeId node{};                     // subject node (if any)
  DataId data{};                     // subject data element (kDataWrite)
  int branch_value = 0;              // kBranchChosen
  int iteration = 0;                 // iteration count of the loop (kLoopReset)
  std::vector<NodeId> reset_nodes{}; // kLoopReset only
  std::string detail{};
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
