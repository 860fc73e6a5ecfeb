// Whole-schema oracle for the engine's firing rules.
//
// The engine propagates markings from a frontier: a step evaluates only
// the nodes it touched. This oracle restates the rules independently and
// scans every node of the instance's schema, so tests can check after any
// mutation that the frontier missed nothing:
//   * quiescence: no NotActivated node is enabled or dead by its in-edges,
//     and every Activated non-activity node is an XOR split whose decision
//     data names none of its branches (structural nodes auto-complete);
//   * soundness: every Activated node has all incoming control edges
//     TrueSignaled (XOR joins: at least one) and all sync edges resolved.

#ifndef ADEPT_TESTS_MARKING_ORACLE_H_
#define ADEPT_TESTS_MARKING_ORACLE_H_

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "runtime/instance.h"

namespace adept {
namespace testing_fixtures {

// True when `split`'s decision data holds a value that one of its branches
// carries.
inline bool DecisionMatchesBranch(const ProcessInstance& inst,
                                  const Node& split) {
  if (!split.decision_data.valid()) return false;
  auto value = inst.data().Read(split.decision_data);
  if (!value.ok()) return false;
  bool found = false;
  inst.schema().VisitOutEdges(split.id, [&](const Edge& e) {
    if (e.type == EdgeType::kControl &&
        e.branch_value == static_cast<int>(value->as_int())) {
      found = true;
    }
  });
  return found;
}

inline ::testing::AssertionResult MarkingAtFixpoint(
    const ProcessInstance& inst) {
  std::ostringstream problems;
  inst.schema().VisitNodes([&](const Node& n) {
    const NodeState state = inst.node_state(n.id);
    int in_control = 0, in_true = 0, in_false = 0;
    bool sync_pending = false;
    inst.schema().VisitInEdges(n.id, [&](const Edge& e) {
      const EdgeState s = inst.edge_state(e.id);
      if (e.type == EdgeType::kControl) {
        ++in_control;
        if (s == EdgeState::kTrueSignaled) ++in_true;
        if (s == EdgeState::kFalseSignaled) ++in_false;
      } else if (e.type == EdgeType::kSync) {
        if (s == EdgeState::kNotSignaled) sync_pending = true;
      }
    });
    auto name = [&] {
      return n.name + " (n" + std::to_string(n.id.value()) + ", " +
             NodeStateToString(state) + ")";
    };
    if (state == NodeState::kNotActivated && in_control > 0) {
      bool ready = false, dead = false;
      if (n.type == NodeType::kXorJoin) {
        ready = in_true >= 1;
        dead = in_false == in_control;
      } else if (n.type == NodeType::kAndJoin) {
        ready = in_true == in_control;
        dead = in_true + in_false == in_control && in_false > 0;
      } else {
        ready = in_true == in_control;
        dead = in_false > 0;
      }
      if (dead) problems << name() << " is dead by its in-edges; ";
      if (!dead && ready && !sync_pending) {
        problems << name() << " is enabled by its in-edges; ";
      }
    }
    if (state != NodeState::kActivated) return;
    const bool entitled = n.type == NodeType::kXorJoin
                              ? in_true >= 1
                              : in_control == 0 || in_true == in_control;
    if (!entitled) {
      problems << name() << " lacks a TrueSignaled control in-edge; ";
    }
    if (sync_pending) problems << name() << " has an unresolved sync edge; ";
    if (n.type != NodeType::kActivity &&
        (n.type != NodeType::kXorSplit || DecisionMatchesBranch(inst, n))) {
      problems << name() << " should have auto-completed; ";
    }
  });
  if (problems.str().empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "instance I" << inst.id().value()
         << " is not at the firing rules' fixpoint: " << problems.str();
}

}  // namespace testing_fixtures
}  // namespace adept

#endif  // ADEPT_TESTS_MARKING_ORACLE_H_
