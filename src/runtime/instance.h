// ProcessInstance: one running case of a process schema.
//
// The instance executes against an immutable SchemaView (either the type
// schema shared by all unbiased instances, or an instance-specific view for
// biased instances — the runtime cannot tell the difference, which is the
// point of the Fig. 2 storage design).
//
// Firing rules (ADEPT marking semantics):
//   * StartFlow auto-completes at Start(); completing a node signals its
//     outgoing control edges TrueSignaled (XOR splits: only the selected
//     branch, others FalseSignaled) and its outgoing sync edges.
//   * A node becomes Activated when its control in-edges signal True
//     (AndJoin: all; XorJoin: any) AND all its incoming sync edges are
//     signaled (True = source completed, False = source will never run).
//   * FalseSignaled control edges propagate Skipped (dead-path
//     elimination); a skipped node signals all outgoing edges False.
//   * Structural nodes (splits/joins/loop nodes/end) auto-complete;
//     activities wait for StartActivity/CompleteActivity. An XOR split
//     whose decision (SelectBranch() override, else its decision data)
//     names none of its branches waits in Activated, undecided.
//   * A completing LoopEnd evaluates its loop condition; on iteration the
//     loop block's markings are reset and the body re-executes.
//
// The rules are local: a node's next state depends on its own in-edge
// signals only. Propagation therefore costs the nodes a step touches, not
// the schema (see Propagate() below).
//
// Dynamic change support: AdoptSchema() swaps the execution schema (entity
// ids are stable across versions) and ReevaluateMarkings() re-derives all
// *soft* state (Activated/Skipped node states, signals of non-completed
// sources) from the hard facts, which implements ADEPT's automatic instance
// state adaptation after ad-hoc changes and migrations.

#ifndef ADEPT_RUNTIME_INSTANCE_H_
#define ADEPT_RUNTIME_INSTANCE_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/persistent_map.h"
#include "common/status.h"
#include "model/schema_view.h"
#include "runtime/data_context.h"
#include "runtime/events.h"
#include "runtime/marking.h"
#include "runtime/trace.h"

namespace adept {

struct InstanceSnapshot;

class ProcessInstance {
 public:
  ProcessInstance(InstanceId id, std::shared_ptr<const SchemaView> schema,
                  SchemaId schema_ref);

  ProcessInstance(const ProcessInstance&) = delete;
  ProcessInstance& operator=(const ProcessInstance&) = delete;

  InstanceId id() const { return id_; }
  const SchemaView& schema() const { return *schema_; }
  std::shared_ptr<const SchemaView> schema_ptr() const { return schema_; }
  SchemaId schema_ref() const { return schema_ref_; }

  // True once the instance deviates from its type schema (ad-hoc changed).
  bool biased() const { return biased_; }
  void set_biased(bool biased) { biased_ = biased; }

  void set_observer(InstanceObserver* observer) { observer_ = observer; }

  // --- Execution API --------------------------------------------------------

  // Completes the start-flow node and activates the first activities.
  Status Start();

  Status StartActivity(NodeId node);

  struct DataWrite {
    DataId data;
    DataValue value;
  };
  // Completes a running activity, applying its output parameter writes.
  // All mandatory (non-optional) write edges must be supplied.
  Status CompleteActivity(NodeId node,
                          const std::vector<DataWrite>& writes = {});

  Status FailActivity(NodeId node, const std::string& reason);
  Status RetryActivity(NodeId node);
  Status SuspendActivity(NodeId node);
  Status ResumeActivity(NodeId node);

  // Overrides the data-driven XOR decision for `split` (consumed once).
  // kInvalidArgument, and no change, when no branch of `split` carries
  // `branch_value`.
  Status SelectBranch(NodeId split, int branch_value);
  // Overrides the data-driven loop decision for `loop_end` (consumed once).
  Status SetLoopDecision(NodeId loop_end, bool iterate);

  bool Finished() const;
  // Activities currently offered for execution.
  std::vector<NodeId> ActivatedActivities() const;
  std::vector<NodeId> RunningActivities() const;

  // --- State inspection -----------------------------------------------------

  NodeState node_state(NodeId node) const { return marking_.node(node); }
  EdgeState edge_state(EdgeId edge) const { return marking_.edge(edge); }
  const Marking& marking() const { return marking_; }
  const ExecutionTrace& trace() const { return trace_; }
  ExecutionTrace& mutable_trace() { return trace_; }
  const DataContext& data() const { return data_; }
  DataContext& mutable_data() { return data_; }

  // Completed iteration count of the loop opened by `loop_start` (0 while in
  // the first iteration).
  int loop_iteration(NodeId loop_start) const;

  // Completed runs of `node` — equals the node's kActivityCompleted trace
  // events, maintained incrementally (and re-derived on RestoreState) so
  // the worklist can stamp activation epochs in O(1).
  uint64_t completed_runs(NodeId node) const {
    const uint64_t* runs = completed_runs_.Find(node);
    return runs == nullptr ? 0 : *runs;
  }

  // Trace sequence at which `node` last entered kActivated; entries are
  // kept while the node stays in flight (Activated/Running/Suspended/
  // Failed) and dropped when it completes, is skipped, or resets.
  const PersistentMap<NodeId, int64_t>& activated_since() const {
    return activated_since_;
  }

  // Builds an immutable, internally consistent read snapshot of the
  // current state (see runtime/instance_snapshot.h). Must run while the
  // instance cannot be concurrently mutated — the owning facade calls it
  // at the end of every mutating operation, under the same lock — and is
  // O(delta): every container field is a structural share (root copy) of
  // the live persistent state, so cost does not grow with instance size.
  // The returned object is safe to read from any thread, forever.
  std::shared_ptr<InstanceSnapshot> BuildSnapshot() const;

  size_t MemoryFootprint() const;

  // --- Dynamic change support ----------------------------------------------

  // Swaps the execution schema and re-evaluates soft markings. The caller
  // (change framework / migration manager) is responsible for having
  // verified the schema and checked compliance beforehand.
  Status AdoptSchema(std::shared_ptr<const SchemaView> schema, SchemaId ref);

  // Re-derives Activated/Skipped states and edge signals from hard facts.
  // Exposed for the compliance module's state adaptation.
  Status ReevaluateMarkings();

  // Re-derivation: propagates from the marking as it stands, whatever
  // changed it. Seeds the targets of every signalled edge plus the
  // Activated nodes — complete, because a NotActivated node without a
  // signalled in-edge cannot fire. Needed by the trace-replay compliance
  // checker after seeding data values directly into the data context.
  Status PropagateMarkings();

  // Recovery support: overwrites the runtime state wholesale (snapshot
  // load). The caller must pass state consistent with the current schema.
  // `activated_since` may be empty (pre-refactor records): in-flight
  // nodes are then stamped with the restored trace's next sequence — a
  // deterministic upper bound.
  void RestoreState(Marking marking, ExecutionTrace trace, DataContext data,
                    PersistentMap<NodeId, int> loop_iterations, bool started,
                    PersistentMap<NodeId, int64_t> activated_since = {});
  const PersistentMap<NodeId, int>& loop_iterations() const {
    return loop_iterations_;
  }
  bool started() const { return started_; }

 private:
  // One step's propagation, to quiescence. The previous drain left the
  // marking quiescent (or kept its unvisited frontier), so two kinds of
  // node can fire now: targets of the signal writes made since, which the
  // frontier holds, and Activated splits and joins, which fire without a
  // new signal (an XOR split whose decision just arrived). The drain
  // evaluates those plus every Activated node, and whatever the
  // evaluations touch in turn. Its order is that of repeated ascending-id
  // scans over the whole schema, so traces equal a full fixpoint's: within
  // a pass nodes are visited in ascending id; a node touched while
  // visiting node c joins this pass if its id exceeds c, else the next; a
  // node that transitioned is revisited in the next pass. The transition
  // guard is checked once per pass. On an error the unvisited frontier
  // stays for the next call; otherwise the frontier gives its capacity
  // back.
  Status Propagate();
  // Evaluates one node against the firing rules; true when it transitioned.
  Result<bool> Fire(NodeId node);
  // The one writer of edge signals: sets `edge`'s state and, when it
  // changed, records `edge.dst` in the frontier.
  void SetEdgeState(const Edge& edge, EdgeState state);
  void SignalCompletion(const Node& node);
  // Completes an XOR split on `decision` (consumes a SelectBranch override).
  void DecideBranch(const Node& split, int decision);
  void SkipNode(const Node& node);
  Status HandleLoopEnd(const Node& node);
  Result<bool> EvaluateLoopCondition(const Node& node);
  bool HasBranch(const Node& split, int code) const;
  // The branch code `split` would take now, or nullopt while undecidable.
  std::optional<int> BranchDecision(const Node& split) const;
  void SetNodeState(NodeId node, NodeState state);

  // Activation check for a NotActivated node; returns the new state
  // (kActivated / kSkipped) or nullopt when the node must keep waiting.
  std::optional<NodeState> ComputeActivation(const Node& node) const;

  InstanceId id_;
  std::shared_ptr<const SchemaView> schema_;
  SchemaId schema_ref_;
  bool biased_ = false;
  bool started_ = false;
  bool finished_notified_ = false;

  Marking marking_;
  ExecutionTrace trace_;
  DataContext data_;
  PersistentMap<NodeId, int> loop_iterations_;  // keyed by loop start
  PersistentMap<NodeId, uint64_t> completed_runs_;
  uint64_t completed_total_ = 0;  // running sum of completed_runs_
  PersistentMap<NodeId, int64_t> activated_since_;
  std::unordered_map<NodeId, int> selected_branch_;  // one-shot overrides
  std::unordered_map<NodeId, bool> loop_decision_;   // one-shot overrides
  std::vector<NodeId> frontier_;  // nodes to evaluate by the next pass

  InstanceObserver* observer_ = nullptr;
};

}  // namespace adept

#endif  // ADEPT_RUNTIME_INSTANCE_H_
