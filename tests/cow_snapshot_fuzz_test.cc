// Differential fuzz harness for copy-on-write snapshot publication.
//
// The contract under test (runtime/README.md): for any mutation sequence,
// the structurally-shared snapshot BuildSnapshot() publishes renders to
// exactly the same canonical JSON as a deep copy of the instance's state
// materialized through full iteration into flat std:: containers — and a
// snapshot retained from any earlier step re-renders byte-identically
// after arbitrary further mutations (immutability of the shared roots).
//
// The harness drives seeded random schemas (nested AND/XOR/LOOP blocks)
// through randomized step sequences — activity starts/completes with data
// writes, suspend/resume, fail/retry, and ad-hoc serial inserts — and
// asserts canonical equality, and that the marking is the firing rules'
// fixpoint (tests/marking_oracle.h), after every single mutation.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "change/change_op.h"
#include "change/delta.h"
#include "common/rng.h"
#include "compliance/adhoc.h"
#include "runtime/driver.h"
#include "runtime/engine.h"
#include "runtime/instance_snapshot.h"
#include "storage/instance_store.h"
#include "storage/schema_repository.h"
#include "storage/state_serialization.h"
#include "tests/marking_oracle.h"

namespace adept {
namespace {

void AppendNodeStateArray(const std::map<NodeId, NodeState>& nodes,
                          JsonValue* out) {
  JsonValue arr = JsonValue::MakeArray();
  for (const auto& [id, state] : nodes) {
    JsonValue e = JsonValue::MakeObject();
    e.Set("n", JsonValue(id.value()));
    e.Set("s", JsonValue(static_cast<int>(state)));
    arr.Append(std::move(e));
  }
  out->Set("nodes", std::move(arr));
}

void AppendEdgeStateArray(const std::map<EdgeId, EdgeState>& edges,
                          JsonValue* out) {
  JsonValue arr = JsonValue::MakeArray();
  for (const auto& [id, state] : edges) {
    JsonValue e = JsonValue::MakeObject();
    e.Set("e", JsonValue(id.value()));
    e.Set("s", JsonValue(static_cast<int>(state)));
    arr.Append(std::move(e));
  }
  out->Set("edges", std::move(arr));
}

template <typename Id>
JsonValue IdArray(const std::set<Id>& ids) {
  JsonValue arr = JsonValue::MakeArray();
  for (Id id : ids) arr.Append(JsonValue(id.value()));
  return arr;
}

template <typename Id, typename V>
JsonValue PairArray(const std::map<Id, V>& entries) {
  JsonValue arr = JsonValue::MakeArray();
  for (const auto& [id, v] : entries) {
    JsonValue e = JsonValue::MakeObject();
    e.Set("k", JsonValue(id.value()));
    e.Set("v", JsonValue(static_cast<int64_t>(v)));
    arr.Append(std::move(e));
  }
  return arr;
}

JsonValue DataTipArray(const std::map<DataId, DataValue>& tips) {
  JsonValue arr = JsonValue::MakeArray();
  for (const auto& [id, value] : tips) {
    JsonValue e = JsonValue::MakeObject();
    e.Set("k", JsonValue(id.value()));
    e.Set("v", value.ToJson());
    arr.Append(std::move(e));
  }
  return arr;
}

// Canonical JSON of a published (COW) snapshot: every shared container
// rendered sorted. Publication metadata (version) is excluded — it is not
// instance state.
std::string CanonicalSnapshotJson(const InstanceSnapshot& s) {
  JsonValue j = JsonValue::MakeObject();
  std::map<NodeId, NodeState> nodes(s.marking.node_states().begin(),
                                    s.marking.node_states().end());
  std::map<EdgeId, EdgeState> edges(s.marking.edge_states().begin(),
                                    s.marking.edge_states().end());
  AppendNodeStateArray(nodes, &j);
  AppendEdgeStateArray(edges, &j);
  j.Set("activated", IdArray(std::set<NodeId>(s.activated_nodes.begin(),
                                              s.activated_nodes.end())));
  j.Set("running", IdArray(std::set<NodeId>(s.running_nodes.begin(),
                                            s.running_nodes.end())));
  j.Set("asince", PairArray(std::map<NodeId, int64_t>(
                      s.activated_since.begin(), s.activated_since.end())));
  j.Set("completed", PairArray(std::map<NodeId, uint64_t>(
                         s.completed_runs.begin(), s.completed_runs.end())));
  j.Set("loops", PairArray(std::map<NodeId, int>(s.loop_iterations.begin(),
                                                 s.loop_iterations.end())));
  j.Set("data", DataTipArray(std::map<DataId, DataValue>(
                    s.data_values.begin(), s.data_values.end())));
  j.Set("schema_ref", JsonValue(s.schema_ref.value()));
  j.Set("started", JsonValue(s.started));
  j.Set("finished", JsonValue(s.finished));
  j.Set("biased", JsonValue(s.biased));
  j.Set("completed_total", JsonValue(s.completed_total));
  j.Set("trace_length", JsonValue(s.trace_length));
  j.Set("trace_next_sequence", JsonValue(s.trace_next_sequence));
  return j.Dump();
}

// The same JSON built the pre-refactor way: a full deep copy of the live
// instance's state, with the activated/running sets *recomputed from the
// node states* (so derived-set drift inside Marking is also caught) and
// completed runs recounted from the execution trace.
std::string DeepReferenceJson(const ProcessInstance& inst) {
  JsonValue j = JsonValue::MakeObject();
  std::map<NodeId, NodeState> nodes;
  inst.marking().node_states().ForEach(
      [&](NodeId id, NodeState s) { nodes.emplace(id, s); });
  std::map<EdgeId, EdgeState> edges;
  inst.marking().edge_states().ForEach(
      [&](EdgeId id, EdgeState s) { edges.emplace(id, s); });
  AppendNodeStateArray(nodes, &j);
  AppendEdgeStateArray(edges, &j);
  std::set<NodeId> activated;
  std::set<NodeId> running;
  for (const auto& [id, state] : nodes) {
    if (state == NodeState::kActivated) activated.insert(id);
    if (state == NodeState::kRunning) running.insert(id);
  }
  j.Set("activated", IdArray(activated));
  j.Set("running", IdArray(running));
  std::map<NodeId, int64_t> asince;
  inst.activated_since().ForEach(
      [&](NodeId id, int64_t seq) { asince.emplace(id, seq); });
  j.Set("asince", PairArray(asince));
  std::map<NodeId, uint64_t> completed;
  uint64_t completed_total = 0;
  for (const TraceEvent& ev : inst.trace().events()) {
    if (ev.kind == TraceEventKind::kActivityCompleted) {
      ++completed[ev.node];
      ++completed_total;
    }
  }
  j.Set("completed", PairArray(completed));
  std::map<NodeId, int> loops;
  inst.loop_iterations().ForEach(
      [&](NodeId id, int count) { loops.emplace(id, count); });
  j.Set("loops", PairArray(loops));
  std::map<DataId, DataValue> tips;
  inst.data().tips().ForEach(
      [&](DataId id, const DataValue& v) { tips.emplace(id, v); });
  j.Set("data", DataTipArray(tips));
  j.Set("schema_ref", JsonValue(inst.schema_ref().value()));
  j.Set("started", JsonValue(inst.started()));
  j.Set("finished", JsonValue(inst.Finished()));
  j.Set("biased", JsonValue(inst.biased()));
  j.Set("completed_total", JsonValue(completed_total));
  j.Set("trace_length",
        JsonValue(static_cast<int64_t>(inst.trace().events().size())));
  j.Set("trace_next_sequence", JsonValue(inst.trace().next_sequence()));
  return j.Dump();
}

// One random extra mutation beyond the driver's start/complete steps.
void RandomSideMutation(Rng& rng, ProcessInstance& inst, InstanceStore& store,
                        int salt) {
  const std::vector<NodeId> running = inst.RunningActivities();
  switch (rng.NextBelow(6)) {
    case 0: {  // suspend + resume
      if (running.empty()) return;
      NodeId node = running[rng.NextBelow(running.size())];
      (void)inst.SuspendActivity(node);
      if (rng.NextBelow(2) == 0) (void)inst.ResumeActivity(node);
      return;
    }
    case 1: {  // fail + retry
      if (running.empty()) return;
      NodeId node = running[rng.NextBelow(running.size())];
      (void)inst.FailActivity(node, "fuzz");
      (void)inst.RetryActivity(node);
      return;
    }
    case 2: {  // ad-hoc serial insert on a random control edge
      std::vector<Edge> control;
      inst.schema().VisitEdges([&](const Edge& e) {
        if (e.type == EdgeType::kControl) control.push_back(e);
      });
      if (control.empty()) return;
      const Edge& edge = control[rng.NextBelow(control.size())];
      Delta delta;
      NewActivitySpec spec;
      spec.name = "fz" + std::to_string(salt);
      delta.Add(std::make_unique<SerialInsertOp>(spec, edge.src, edge.dst));
      (void)ApplyAdHocChange(inst, store, std::move(delta));
      return;
    }
    default:
      return;  // most steps: plain driver progress
  }
}

TEST(CowSnapshotFuzzTest, CowSnapshotsMatchDeepCopyAfterEveryMutation) {
  constexpr int kSeeds = 12;
  constexpr int kStepsPerSeed = 70;

  size_t compared = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    auto schema = bench::ScaledSchema(24, seed);
    ASSERT_NE(schema, nullptr) << "seed " << seed;
    SchemaRepository repo;
    SchemaId schema_id = *repo.Deploy(schema);
    InstanceStore store(&repo);
    Engine engine;
    ProcessInstance* inst = *engine.CreateInstance(schema, schema_id);
    ASSERT_TRUE(store.Register(inst->id(), schema_id).ok());
    ASSERT_TRUE(inst->Start().ok());

    Rng rng(seed * 977);
    SimulationDriver driver({.seed = seed * 31 + 7});
    SnapshotTable table;

    // Retained roots: canonical JSON frozen at capture time; re-rendered
    // and re-compared at the end of the run.
    struct Retained {
      std::shared_ptr<const InstanceSnapshot> snapshot;
      std::string rendered;
    };
    std::vector<Retained> retained;

    for (int step = 0; step < kStepsPerSeed; ++step) {
      if (inst->Finished()) break;
      auto progressed = driver.Step(*inst);
      ASSERT_TRUE(progressed.ok()) << "seed " << seed << " step " << step
                                   << ": " << progressed.status();
      RandomSideMutation(rng, *inst, store, step);
      ASSERT_TRUE(testing_fixtures::MarkingAtFixpoint(*inst))
          << "seed " << seed << " step " << step;

      std::shared_ptr<InstanceSnapshot> snapshot = inst->BuildSnapshot();
      (void)table.Publish(snapshot);
      const std::string cow = CanonicalSnapshotJson(*snapshot);
      const std::string deep = DeepReferenceJson(*inst);
      ASSERT_EQ(cow, deep) << "divergence at seed " << seed << " step "
                           << step;
      ++compared;
      if (step % 7 == 0) retained.push_back({std::move(snapshot), cow});
    }

    // Immutability: every retained root still renders the bytes captured
    // when it was published, no matter what happened afterwards.
    for (size_t i = 0; i < retained.size(); ++i) {
      EXPECT_EQ(CanonicalSnapshotJson(*retained[i].snapshot),
                retained[i].rendered)
          << "retained snapshot " << i << " of seed " << seed << " mutated";
    }
  }
  // The harness must actually have fuzzed something.
  EXPECT_GE(compared, static_cast<size_t>(kSeeds * 20));
}

}  // namespace
}  // namespace adept
