// Input generators of the end-to-end benchmark (bench_e2e.cc).
//
// Everything here is a pure function of its arguments and a seeded Rng, so
// one --seed always yields the same schemas and the same operation stream:
//   * ScaledSchema: a random well-formed net of ~N activities with nested
//     AND/XOR/LOOP blocks, the ad-hoc workload's process type
//   * OnlineOrderV1, DisjointBias, ConflictingBias: the paper's online
//     ordering process (Figs. 1/3) and the two instance biases of the
//     schema-evolution workload
//   * TreatmentSchema: the e-health treatment process of
//     examples/ehealth.cpp, with nurse/physician staff assignment
//   * TreatmentWrites: the output values a worklist user supplies when
//     completing a treatment activity
//   * AdHocDeltaFor: a random ad-hoc change that is valid against an
//     instance's published snapshot (structure and marking)
//   * InsertAudit / DeleteAudit: the alternating type changes of the
//     schema-evolution workload
//   * ZipfSampler: skewed instance popularity for the read mix
// The generators are this directory's own, so that the benchmark's inputs
// change only with the benchmark.

#ifndef ADEPT_E2EBENCH_E2E_UTIL_H_
#define ADEPT_E2EBENCH_E2E_UTIL_H_

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "change/change_op.h"
#include "change/delta.h"
#include "common/rng.h"
#include "model/schema_builder.h"
#include "runtime/instance_snapshot.h"

namespace adept {
namespace e2e {

// --- Random scaled schemas ---------------------------------------------------

// Appends blocks to `b` until `budget` activities are spent. `uid` keeps
// the generated names unique across sibling branches, which share a budget.
inline void BuildSegment(SchemaBuilder& b, Rng& rng, int& budget, int depth,
                         int& uid) {
  while (budget > 0) {
    int roll = static_cast<int>(rng.NextBelow(10));
    if (depth >= 3) roll = 0;  // cap nesting
    if (roll < 6 || budget < 4) {
      b.Activity("act" + std::to_string(++uid));
      --budget;
    } else if (roll < 8) {
      // AND block, two branches.
      int slice = std::max(1, budget / 4);
      budget -= 2 * slice;
      b.Parallel({
          [&, slice](SchemaBuilder& s) mutable {
            int sub = slice;
            BuildSegment(s, rng, sub, depth + 1, uid);
          },
          [&, slice](SchemaBuilder& s) mutable {
            int sub = slice;
            BuildSegment(s, rng, sub, depth + 1, uid);
          },
      });
    } else if (roll < 9) {
      // XOR block steered by a fresh element written just before.
      DataId sel = b.Data("sel" + std::to_string(++uid), DataType::kInt);
      NodeId writer = b.Activity("route" + std::to_string(uid));
      b.Writes(writer, sel);
      --budget;
      int slice = std::max(1, budget / 4);
      budget -= 2 * slice;
      b.Conditional(sel, {
          [&, slice](SchemaBuilder& s) mutable {
            int sub = slice;
            BuildSegment(s, rng, sub, depth + 1, uid);
          },
          [&, slice](SchemaBuilder& s) mutable {
            int sub = slice;
            BuildSegment(s, rng, sub, depth + 1, uid);
          },
      });
    } else {
      // Loop whose last body activity rewrites the condition.
      DataId again = b.Data("again" + std::to_string(++uid), DataType::kBool);
      int slice = std::max(1, budget / 4);
      budget -= slice;
      b.Loop(again, [&, slice, again](SchemaBuilder& s) mutable {
        int sub = slice - 1;
        if (sub > 0) BuildSegment(s, rng, sub, depth + 1, uid);
        NodeId last = s.Activity("body" + std::to_string(++uid));
        s.Writes(last, again);
      });
    }
  }
}

inline std::shared_ptr<const ProcessSchema> ScaledSchema(
    int activities, uint64_t seed, const std::string& name) {
  SchemaBuilder b(name, 1);
  Rng rng(seed);
  int budget = activities;
  int uid = 0;
  BuildSegment(b, rng, budget, 0, uid);
  auto schema = b.Build();
  return schema.ok() ? *schema : nullptr;
}

// --- Online ordering (Figs. 1/3) ---------------------------------------------

inline std::shared_ptr<const ProcessSchema> OnlineOrderV1() {
  SchemaBuilder b("online_order", 1);
  b.Activity("get order");
  b.Activity("collect data");
  b.Parallel({
      [](SchemaBuilder& s) { s.Activity("confirm order"); },
      [](SchemaBuilder& s) { s.Activity("compose order"); },
  });
  b.Activity("pack goods");
  b.Activity("deliver goods");
  auto schema = b.Build();
  return schema.ok() ? *schema : nullptr;
}

// A bias disjoint from every type change of the evolve workload.
inline Delta DisjointBias(const ProcessSchema& v1) {
  Delta delta;
  NewActivitySpec spec;
  spec.name = "gift wrap";
  delta.Add(std::make_unique<SerialInsertOp>(
      spec, v1.FindNodeByName("pack goods"),
      v1.FindNodeByName("deliver goods")));
  return delta;
}

// A sync edge between the two parallel branches; it conflicts with the
// paper's Delta-T (a deadlock cycle, Fig. 1's I2).
inline Delta ConflictingBias(const ProcessSchema& v1) {
  Delta delta;
  delta.Add(std::make_unique<InsertSyncEdgeOp>(
      v1.FindNodeByName("confirm order"),
      v1.FindNodeByName("compose order")));
  return delta;
}

// --- E-health treatment process ----------------------------------------------

struct TreatmentRoles {
  RoleId nurse;
  RoleId physician;
};

inline SchemaBuilder::ActivityOptions Staff(RoleId role) {
  SchemaBuilder::ActivityOptions options;
  options.role = role;
  return options;
}

// admit -> triage -> XOR(ward bed | ICU) -> LOOP(treat, evaluate) ->
// discharge; eight activities, every one offered to a role.
inline std::shared_ptr<const ProcessSchema> TreatmentSchema(
    const TreatmentRoles& roles) {
  SchemaBuilder b("treatment", 1);
  DataId severity = b.Data("severity", DataType::kInt);
  DataId again = b.Data("continue_treatment", DataType::kBool);
  DataId vitals = b.Data("vitals", DataType::kString);

  NodeId admit = b.Activity("admit patient", Staff(roles.nurse));
  b.Writes(admit, vitals);
  NodeId triage = b.Activity("triage", Staff(roles.physician));
  b.Reads(triage, vitals);
  b.Writes(triage, severity);
  b.Conditional(severity, {
      [&](SchemaBuilder& s) {
        s.Activity("assign ward bed", Staff(roles.nurse));
      },
      [&](SchemaBuilder& s) {
        s.Activity("admit to ICU", Staff(roles.physician));
      },
  });
  b.Loop(again, [&](SchemaBuilder& s) {
    NodeId treat = s.Activity("administer treatment", Staff(roles.nurse));
    s.Reads(treat, vitals);
    NodeId evaluate =
        s.Activity("evaluate response", Staff(roles.physician));
    s.Writes(evaluate, again);
    s.Writes(evaluate, vitals);
  });
  NodeId discharge = b.Activity("discharge", Staff(roles.physician));
  b.Reads(discharge, vitals);
  auto schema = b.Build();
  return schema.ok() ? *schema : nullptr;
}

// Output values for completing `node`: a severity picks the XOR branch, the
// loop repeats with probability 0.3 for at most three treatment cycles.
inline std::vector<ProcessInstance::DataWrite> TreatmentWrites(
    const InstanceSnapshot& snapshot, NodeId node, Rng& rng) {
  std::vector<ProcessInstance::DataWrite> writes;
  const SchemaView& schema = *snapshot.schema;
  schema.VisitDataEdges(node, [&](const DataEdge& edge) {
    if (edge.mode != AccessMode::kWrite) return;
    const DataElement* data = schema.FindData(edge.data);
    if (data == nullptr) return;
    switch (data->type) {
      case DataType::kInt:
        writes.push_back({edge.data, DataValue::Int(rng.NextBool() ? 1 : 0)});
        break;
      case DataType::kBool: {
        int cycles = 0;
        snapshot.loop_iterations.ForEach(
            [&](NodeId, int count) { cycles = std::max(cycles, count); });
        writes.push_back(
            {edge.data, DataValue::Bool(cycles < 2 && rng.NextBool(0.3))});
        break;
      }
      default:
        writes.push_back({edge.data, DataValue::String("stable")});
        break;
    }
  });
  return writes;
}

// --- Ad-hoc changes valid against a published snapshot -----------------------

enum class AdHocKind { kSerialInsert, kParallelInsert, kDelete, kSyncEdge };

// The change mix: serial insert 50%, parallel insert 20%, delete 20%, sync
// edge 10%.
inline AdHocKind DrawAdHocKind(Rng& rng) {
  const uint64_t roll = rng.NextBelow(10);
  if (roll < 5) return AdHocKind::kSerialInsert;
  if (roll < 7) return AdHocKind::kParallelInsert;
  if (roll < 9) return AdHocKind::kDelete;
  return AdHocKind::kSyncEdge;
}

inline bool OpensBlock(NodeType type) {
  return type == NodeType::kAndSplit || type == NodeType::kXorSplit ||
         type == NodeType::kLoopStart;
}

inline bool ClosesBlock(NodeType type) {
  return type == NodeType::kAndJoin || type == NodeType::kXorJoin ||
         type == NodeType::kLoopEnd;
}

// Whether `to` is reachable from `from` over control and sync edges.
inline bool Precedes(const SchemaView& schema, NodeId from, NodeId to) {
  std::vector<NodeId> pending = {from};
  std::unordered_set<NodeId> seen = {from};
  while (!pending.empty()) {
    const NodeId node = pending.back();
    pending.pop_back();
    if (node == to) return true;
    schema.VisitOutEdges(node, [&](const Edge& edge) {
      if (edge.type != EdgeType::kLoop && seen.insert(edge.dst).second) {
        pending.push_back(edge.dst);
      }
    });
  }
  return false;
}

// A change of `kind` whose every target is still NotActivated in the
// snapshot's marking, so the state conditions of compliance/conditions.h
// hold, and whose structure the verifier accepts:
//   serial insert    into a control edge whose target has not started
//   parallel insert  around one activity whose successor has not started
//   delete           an activity without data or sync edges that is not
//                    the only node of its branch
//   sync edge        from the first activity of an AND block's first
//                    branch to the first activity of its second branch,
//                    unless a path already leads back (a deadlock cycle)
// Falls back to a serial insert when `kind` has no candidate; returns an
// empty delta when nothing in the instance can change any more.
inline Delta AdHocDeltaFor(const InstanceSnapshot& snapshot, AdHocKind kind,
                           Rng& rng, const std::string& name) {
  const SchemaView& schema = *snapshot.schema;
  auto fresh = [&](NodeId id) {
    return snapshot.marking.node(id) == NodeState::kNotActivated;
  };
  auto type_of = [&](NodeId id) {
    const Node* node = schema.FindNode(id);
    return node == nullptr ? NodeType::kStartFlow : node->type;
  };
  NewActivitySpec spec;
  spec.name = name;
  Delta delta;

  if (kind == AdHocKind::kParallelInsert || kind == AdHocKind::kDelete) {
    std::vector<NodeId> candidates;
    schema.VisitNodes([&](const Node& node) {
      if (node.type != NodeType::kActivity || !fresh(node.id)) return;
      const NodeId succ = schema.ControlSuccessor(node.id);
      if (!succ.valid() || !fresh(succ)) return;
      if (kind == AdHocKind::kDelete) {
        const NodeId pred = schema.ControlPredecessor(node.id);
        if (!pred.valid()) return;
        if (OpensBlock(type_of(pred)) && ClosesBlock(type_of(succ))) return;
        bool wired = false;
        schema.VisitDataEdges(node.id, [&](const DataEdge&) { wired = true; });
        if (wired || !schema.Successors(node.id, EdgeType::kSync).empty() ||
            !schema.Predecessors(node.id, EdgeType::kSync).empty()) {
          return;
        }
      }
      candidates.push_back(node.id);
    });
    if (!candidates.empty()) {
      const NodeId target = candidates[rng.NextIndex(candidates.size())];
      if (kind == AdHocKind::kDelete) {
        delta.Add(std::make_unique<DeleteActivityOp>(target));
      } else {
        delta.Add(std::make_unique<ParallelInsertOp>(spec, target, target));
      }
      return delta;
    }
  } else if (kind == AdHocKind::kSyncEdge) {
    std::vector<std::pair<NodeId, NodeId>> candidates;
    schema.VisitNodes([&](const Node& node) {
      if (node.type != NodeType::kAndSplit) return;
      const std::vector<NodeId> branches =
          schema.Successors(node.id, EdgeType::kControl);
      if (branches.size() < 2) return;
      const NodeId from = branches[0];
      const NodeId to = branches[1];
      if (type_of(from) != NodeType::kActivity ||
          type_of(to) != NodeType::kActivity || !fresh(to)) {
        return;
      }
      // A path back from `to` to `from` would close a deadlock cycle.
      if (schema.FindEdgeBetween(from, to, EdgeType::kSync) != nullptr ||
          Precedes(schema, to, from)) {
        return;
      }
      candidates.emplace_back(from, to);
    });
    if (!candidates.empty()) {
      const auto [from, to] = candidates[rng.NextIndex(candidates.size())];
      delta.Add(std::make_unique<InsertSyncEdgeOp>(from, to));
      return delta;
    }
  }

  std::vector<std::pair<NodeId, NodeId>> edges;
  schema.VisitEdges([&](const Edge& edge) {
    if (edge.type == EdgeType::kControl && fresh(edge.dst)) {
      edges.emplace_back(edge.src, edge.dst);
    }
  });
  if (!edges.empty()) {
    const auto [pred, succ] = edges[rng.NextIndex(edges.size())];
    delta.Add(std::make_unique<SerialInsertOp>(spec, pred, succ));
  }
  return delta;
}

// --- Schema evolution --------------------------------------------------------

// Type change of the evolve workload's even rounds: "audit" between "get
// order" and "collect data" of the latest online_order version.
inline Delta InsertAudit(const ProcessSchema& latest) {
  NewActivitySpec spec;
  spec.name = "audit";
  Delta delta;
  delta.Add(std::make_unique<SerialInsertOp>(
      spec, latest.FindNodeByName("get order"),
      latest.FindNodeByName("collect data")));
  return delta;
}

// Type change of the odd rounds: removes "audit" again, so the schema size
// stays bounded however many rounds run.
inline Delta DeleteAudit(const ProcessSchema& latest) {
  Delta delta;
  delta.Add(
      std::make_unique<DeleteActivityOp>(latest.FindNodeByName("audit")));
  return delta;
}

// --- Skewed popularity -------------------------------------------------------

// Zipf(s) over ranks [0, n): rank r is drawn with weight 1 / (r + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double total = 0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  size_t Sample(Rng& rng) const {
    const auto it =
        std::lower_bound(cdf_.begin(), cdf_.end(), rng.NextDouble());
    return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace e2e
}  // namespace adept

#endif  // ADEPT_E2EBENCH_E2E_UTIL_H_
