// Node/edge markings of a process instance.
//
// ADEPT represents instance progress as a marking function over the nodes
// and edges of the instance's execution schema:
//
//   node states  NS: NotActivated, Activated, Running, Completed, Skipped,
//                    Suspended, Failed   (the paper's "Disabled" = Skipped)
//   edge states  ES: NotSignaled, TrueSignaled, FalseSignaled
//
// {Running, Completed, Suspended, Failed} are *hard* facts created by user
// actions; {Activated, Skipped} plus all edge signals of non-completed
// sources are *soft* states the engine can re-derive — the distinction is
// what makes marking re-evaluation after dynamic changes safe (see
// ProcessInstance::ReevaluateMarkings).
//
// Storage is persistent (structurally shared): copying a Marking is O(1)
// and shares the underlying tries with the original, which is what lets
// snapshot publication ref-bump instead of deep-copy. The marking also
// maintains the sets of currently Activated resp. Running nodes as
// derived persistent indexes — every mutation path goes through
// set_node, so the sets can never drift from the map.

#ifndef ADEPT_RUNTIME_MARKING_H_
#define ADEPT_RUNTIME_MARKING_H_

#include <string>

#include "common/ids.h"
#include "common/persistent_map.h"

namespace adept {

enum class NodeState {
  kNotActivated = 0,
  kActivated,   // ready; offered in worklists
  kRunning,     // started by a user/application
  kCompleted,
  kSkipped,     // dead path (deselected XOR branch / deleted region)
  kSuspended,   // running but paused
  kFailed,      // activity execution failed; may be retried
};

enum class EdgeState {
  kNotSignaled = 0,
  kTrueSignaled,   // source completed (resp. branch selected)
  kFalseSignaled,  // source definitely will not execute
};

const char* NodeStateToString(NodeState s);
const char* EdgeStateToString(EdgeState s);

// True for states produced only by explicit user/application actions.
bool IsHardNodeState(NodeState s);
// True when the node's work is over (Completed or Skipped).
bool IsFinalNodeState(NodeState s);

// A copyable value type: compliance checks run "what if" analyses on
// copies, and every published InstanceSnapshot holds one. Copies are O(1)
// and immutable-under-sharing (see common/persistent_map.h).
class Marking {
 public:
  NodeState node(NodeId id) const {
    const NodeState* s = node_states_.Find(id);
    return s == nullptr ? NodeState::kNotActivated : *s;
  }
  EdgeState edge(EdgeId id) const {
    const EdgeState* s = edge_states_.Find(id);
    return s == nullptr ? EdgeState::kNotSignaled : *s;
  }

  void set_node(NodeId id, NodeState s) {
    if (s == NodeState::kNotActivated) {
      node_states_.Erase(id);
    } else {
      node_states_.Set(id, s);
    }
    if (s == NodeState::kActivated) {
      activated_.Insert(id);
    } else {
      activated_.Erase(id);
    }
    if (s == NodeState::kRunning) {
      running_.Insert(id);
    } else {
      running_.Erase(id);
    }
  }
  void set_edge(EdgeId id, EdgeState s) {
    if (s == EdgeState::kNotSignaled) {
      edge_states_.Erase(id);
    } else {
      edge_states_.Set(id, s);
    }
  }

  void erase_edge(EdgeId id) { edge_states_.Erase(id); }

  // Only non-default entries are stored; iteration yields those.
  const PersistentMap<NodeId, NodeState>& node_states() const {
    return node_states_;
  }
  const PersistentMap<EdgeId, EdgeState>& edge_states() const {
    return edge_states_;
  }

  // Derived indexes: all nodes currently in state kActivated resp.
  // kRunning (any node type — an XOR split awaiting its decision sits in
  // `activated` too; only activities ever reach kRunning).
  const PersistentSet<NodeId>& activated() const { return activated_; }
  const PersistentSet<NodeId>& running() const { return running_; }

  size_t MemoryFootprint() const {
    return sizeof(*this) + node_states_.MemoryFootprint() +
           edge_states_.MemoryFootprint() + activated_.MemoryFootprint() +
           running_.MemoryFootprint();
  }

  // The derived sets are a function of node_states_, so they are
  // deliberately not compared.
  bool operator==(const Marking& o) const {
    return node_states_ == o.node_states_ && edge_states_ == o.edge_states_;
  }

 private:
  PersistentMap<NodeId, NodeState> node_states_;
  PersistentMap<EdgeId, EdgeState> edge_states_;
  PersistentSet<NodeId> activated_;
  PersistentSet<NodeId> running_;
};

}  // namespace adept

#endif  // ADEPT_RUNTIME_MARKING_H_
