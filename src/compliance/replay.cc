#include "compliance/replay.h"

#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"

namespace adept {

namespace {

ReplayResult Fail(std::string reason) {
  ReplayResult r;
  r.compliant = false;
  r.reason = std::move(reason);
  return r;
}

}  // namespace

ReplayResult CheckComplianceByReplay(
    const ProcessInstance& instance, std::shared_ptr<const SchemaView> target) {
  if (target == nullptr) return Fail("no target schema");

  // Index recorded data writes by trace sequence for value lookup.
  std::unordered_map<int64_t, std::pair<DataId, DataValue>> writes_by_seq;
  instance.data().ForEachElement(
      [&](DataId data_id, const std::vector<DataContext::Version>& versions) {
        for (const auto& v : versions) {
          writes_by_seq[v.sequence] = {data_id, v.value};
        }
      });

  // Surviving events after loop reduction.
  std::vector<TraceEvent> reduced = instance.trace().Reduced();
  std::unordered_set<int64_t> surviving;
  for (const TraceEvent& e : reduced) surviving.insert(e.sequence);

  ProcessInstance shadow(instance.id(), target, SchemaId::Invalid());

  // Pending parameter writes per activity (applied at its completion).
  std::unordered_map<NodeId, std::vector<ProcessInstance::DataWrite>> pending;

  for (const TraceEvent& event : instance.trace().events()) {
    if (surviving.count(event.sequence) == 0) {
      // Event erased by loop reduction. Its *data effects* still shape the
      // current iteration (values survive resets), so seed them directly.
      if (event.kind == TraceEventKind::kDataWrite) {
        auto it = writes_by_seq.find(event.sequence);
        if (it != writes_by_seq.end()) {
          shadow.mutable_data().Write(it->second.first, it->second.second,
                                      event.node, event.sequence);
          Status st = shadow.PropagateMarkings();
          if (!st.ok()) return Fail("seeding dropped write: " + st.message());
        }
      }
      continue;
    }

    switch (event.kind) {
      case TraceEventKind::kInstanceStarted: {
        Status st = shadow.Start();
        if (!st.ok()) return Fail("start: " + st.message());
        break;
      }
      case TraceEventKind::kActivityStarted: {
        if (target->FindNode(event.node) == nullptr) {
          return Fail(StrFormat(
              "activity n%u was already started but does not exist in the "
              "target schema",
              event.node.value()));
        }
        Status st = shadow.StartActivity(event.node);
        if (!st.ok()) {
          return Fail(StrFormat("replaying start of n%u: %s",
                                event.node.value(), st.message().c_str()));
        }
        break;
      }
      case TraceEventKind::kDataWrite: {
        auto it = writes_by_seq.find(event.sequence);
        if (it == writes_by_seq.end()) {
          return Fail("trace references a data write without stored value");
        }
        if (target->FindData(it->second.first) == nullptr) {
          return Fail(StrFormat(
              "recorded write of d%u cannot be replayed: element missing in "
              "target schema",
              it->second.first.value()));
        }
        pending[event.node].push_back({it->second.first, it->second.second});
        break;
      }
      case TraceEventKind::kActivityCompleted: {
        auto writes = pending.find(event.node);
        Status st = shadow.CompleteActivity(
            event.node, writes != pending.end()
                            ? writes->second
                            : std::vector<ProcessInstance::DataWrite>{});
        if (writes != pending.end()) pending.erase(writes);
        if (!st.ok()) {
          return Fail(StrFormat("replaying completion of n%u: %s",
                                event.node.value(), st.message().c_str()));
        }
        break;
      }
      case TraceEventKind::kActivityFailed: {
        Status st = shadow.FailActivity(event.node, event.detail());
        if (!st.ok()) return Fail("replaying failure: " + st.message());
        break;
      }
      case TraceEventKind::kActivityRetried: {
        Status st = shadow.RetryActivity(event.node);
        if (!st.ok()) return Fail("replaying retry: " + st.message());
        break;
      }
      case TraceEventKind::kBranchChosen: {
        const Node* split = target->FindNode(event.node);
        if (split == nullptr) {
          // The decided split does not exist in the target; tolerated as
          // long as no started activity depended on it (their replays would
          // fail on their own).
          break;
        }
        NodeState state = shadow.node_state(event.node);
        if (!IsFinalNodeState(state)) {
          Status st = shadow.SelectBranch(event.node, event.branch_value);
          if (!st.ok()) {
            return Fail(StrFormat("replaying decision at n%u: %s",
                                  event.node.value(), st.message().c_str()));
          }
        } else {
          // Already auto-decided from replayed data; decisions must agree.
          bool matches = false;
          target->VisitOutEdges(event.node, [&](const Edge& e) {
            if (e.type == EdgeType::kControl &&
                shadow.edge_state(e.id) == EdgeState::kTrueSignaled &&
                e.branch_value == event.branch_value) {
              matches = true;
            }
          });
          if (!matches) {
            return Fail(StrFormat(
                "XOR decision at n%u diverges between trace and target "
                "schema",
                event.node.value()));
          }
        }
        break;
      }
      case TraceEventKind::kActivitySkipped:
      case TraceEventKind::kLoopReset:
      case TraceEventKind::kAdHocChange:
      case TraceEventKind::kMigrated:
        break;  // derived / informational
    }
  }

  ReplayResult result;
  result.compliant = true;
  result.adapted_marking = shadow.marking();
  // Suspension is not traced (it carries no causal order); carry it over.
  for (const auto& [node, state] : instance.marking().node_states()) {
    if (state == NodeState::kSuspended &&
        result.adapted_marking.node(node) == NodeState::kRunning) {
      result.adapted_marking.set_node(node, NodeState::kSuspended);
    }
  }
  return result;
}

}  // namespace adept
