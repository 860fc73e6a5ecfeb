#include <gtest/gtest.h>

#include "runtime/driver.h"
#include "runtime/engine.h"
#include "runtime/instance.h"
#include "tests/test_fixtures.h"
#include "verify/verifier.h"

namespace adept {
namespace {

using testing_fixtures::ComplexSchema;
using testing_fixtures::LoopSchema;
using testing_fixtures::OnlineOrderV1;
using testing_fixtures::OnlineOrderV2;
using testing_fixtures::SequenceSchema;
using testing_fixtures::XorSchema;

// Runs start+complete in one call (no data writes).
Status Execute(ProcessInstance& i, NodeId node) {
  ADEPT_RETURN_IF_ERROR(i.StartActivity(node));
  return i.CompleteActivity(node);
}

NodeId ByName(const ProcessInstance& i, const std::string& name) {
  return i.schema().FindNodeByName(name);
}

TEST(InstanceTest, SequenceRunsInOrder) {
  auto schema = SequenceSchema(3);
  ProcessInstance inst(InstanceId(1), schema, SchemaId(1));
  ASSERT_TRUE(inst.Start().ok());

  for (const char* name : {"a1", "a2", "a3"}) {
    auto ready = inst.ActivatedActivities();
    ASSERT_EQ(ready.size(), 1u) << name;
    EXPECT_EQ(ready[0], ByName(inst, name));
    ASSERT_TRUE(Execute(inst, ready[0]).ok());
  }
  EXPECT_TRUE(inst.Finished());
}

TEST(InstanceTest, StartTwiceRejected) {
  auto schema = SequenceSchema(1);
  ProcessInstance inst(InstanceId(1), schema, SchemaId(1));
  ASSERT_TRUE(inst.Start().ok());
  EXPECT_EQ(inst.Start().code(), StatusCode::kFailedPrecondition);
}

TEST(InstanceTest, LifecyclePreconditionsEnforced) {
  auto schema = SequenceSchema(2);
  ProcessInstance inst(InstanceId(1), schema, SchemaId(1));
  ASSERT_TRUE(inst.Start().ok());
  NodeId a1 = ByName(inst, "a1");
  NodeId a2 = ByName(inst, "a2");

  // a2 is not activated yet.
  EXPECT_EQ(inst.StartActivity(a2).code(), StatusCode::kFailedPrecondition);
  // Completing before starting is rejected.
  EXPECT_EQ(inst.CompleteActivity(a1).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(inst.StartActivity(a1).ok());
  // Double start rejected.
  EXPECT_EQ(inst.StartActivity(a1).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(inst.CompleteActivity(a1).ok());
  EXPECT_EQ(inst.node_state(a1), NodeState::kCompleted);
  EXPECT_EQ(inst.node_state(a2), NodeState::kActivated);
}

TEST(InstanceTest, ParallelBranchesBothActivate) {
  auto schema = OnlineOrderV1();
  ProcessInstance inst(InstanceId(1), schema, SchemaId(1));
  ASSERT_TRUE(inst.Start().ok());
  ASSERT_TRUE(Execute(inst, ByName(inst, "get order")).ok());
  ASSERT_TRUE(Execute(inst, ByName(inst, "collect data")).ok());

  auto ready = inst.ActivatedActivities();
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_EQ(inst.node_state(ByName(inst, "confirm order")),
            NodeState::kActivated);
  EXPECT_EQ(inst.node_state(ByName(inst, "compose order")),
            NodeState::kActivated);

  // Join waits for both branches.
  ASSERT_TRUE(Execute(inst, ByName(inst, "confirm order")).ok());
  EXPECT_EQ(inst.node_state(ByName(inst, "pack goods")),
            NodeState::kNotActivated);
  ASSERT_TRUE(Execute(inst, ByName(inst, "compose order")).ok());
  EXPECT_EQ(inst.node_state(ByName(inst, "pack goods")),
            NodeState::kActivated);

  ASSERT_TRUE(Execute(inst, ByName(inst, "pack goods")).ok());
  ASSERT_TRUE(Execute(inst, ByName(inst, "deliver goods")).ok());
  EXPECT_TRUE(inst.Finished());
}

TEST(InstanceTest, XorDeadPathElimination) {
  auto schema = XorSchema();
  ProcessInstance inst(InstanceId(1), schema, SchemaId(1));
  ASSERT_TRUE(inst.Start().ok());

  NodeId triage = ByName(inst, "triage");
  ASSERT_TRUE(inst.StartActivity(triage).ok());
  DataId severity = inst.schema().FindDataByName("severity");
  ASSERT_TRUE(inst.CompleteActivity(
                      triage, {{severity, DataValue::Int(1)}})
                  .ok());

  EXPECT_EQ(inst.node_state(ByName(inst, "intensive care")),
            NodeState::kActivated);
  EXPECT_EQ(inst.node_state(ByName(inst, "standard care")),
            NodeState::kSkipped);

  ASSERT_TRUE(Execute(inst, ByName(inst, "intensive care")).ok());
  ASSERT_TRUE(Execute(inst, ByName(inst, "discharge")).ok());
  EXPECT_TRUE(inst.Finished());

  // The skip landed in the trace.
  bool skipped_logged = false;
  for (const auto& e : inst.trace().events()) {
    if (e.kind == TraceEventKind::kActivitySkipped &&
        e.node == ByName(inst, "standard care")) {
      skipped_logged = true;
    }
  }
  EXPECT_TRUE(skipped_logged);
}

TEST(InstanceTest, XorMissingDecisionWaitsForSelectBranch) {
  SchemaBuilder b("manual", 1);
  b.Conditional(DataId::Invalid(), {
      [](SchemaBuilder& s) { s.Activity("left"); },
      [](SchemaBuilder& s) { s.Activity("right"); },
  });
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  ProcessInstance inst(InstanceId(1), *schema, SchemaId(1));
  ASSERT_TRUE(inst.Start().ok());

  // Split is activated but undecided: no activities offered yet.
  EXPECT_TRUE(inst.ActivatedActivities().empty());
  NodeId split = inst.schema().FindNodeByName("xor_split");
  EXPECT_EQ(inst.node_state(split), NodeState::kActivated);

  ASSERT_TRUE(inst.SelectBranch(split, 1).ok());
  EXPECT_EQ(inst.node_state(ByName(inst, "right")), NodeState::kActivated);
  EXPECT_EQ(inst.node_state(ByName(inst, "left")), NodeState::kSkipped);
}

TEST(InstanceTest, SelectBranchInvalidCodeFails) {
  SchemaBuilder b("manual", 1);
  b.Conditional(DataId::Invalid(), {
      [](SchemaBuilder& s) { s.Activity("left"); },
      [](SchemaBuilder& s) { s.Activity("right"); },
  });
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  ProcessInstance inst(InstanceId(1), *schema, SchemaId(1));
  ASSERT_TRUE(inst.Start().ok());
  NodeId split = inst.schema().FindNodeByName("xor_split");
  Status invalid = inst.SelectBranch(split, 7);
  EXPECT_EQ(invalid.code(), StatusCode::kInvalidArgument) << invalid;
  // Nothing changed: the split is still undecided, and a valid code then
  // decides it.
  EXPECT_EQ(inst.node_state(split), NodeState::kActivated);
  EXPECT_TRUE(inst.ActivatedActivities().empty());
  ASSERT_TRUE(inst.SelectBranch(split, 0).ok());
  EXPECT_EQ(inst.node_state(split), NodeState::kCompleted);
  EXPECT_EQ(inst.node_state(ByName(inst, "left")), NodeState::kActivated);
  EXPECT_EQ(inst.node_state(ByName(inst, "right")), NodeState::kSkipped);
}

TEST(InstanceTest, LoopIteratesAndResets) {
  auto schema = LoopSchema();
  ProcessInstance inst(InstanceId(1), schema, SchemaId(1));
  ASSERT_TRUE(inst.Start().ok());
  ASSERT_TRUE(Execute(inst, ByName(inst, "prepare")).ok());

  DataId again = inst.schema().FindDataByName("again");
  NodeId check = ByName(inst, "check");
  NodeId loop_start = inst.schema().FindNodeByName("loop_start");

  // First iteration: request another round.
  ASSERT_TRUE(inst.StartActivity(check).ok());
  ASSERT_TRUE(
      inst.CompleteActivity(check, {{again, DataValue::Bool(true)}}).ok());

  EXPECT_EQ(inst.loop_iteration(loop_start), 1);
  // Body reset: check is activated again.
  EXPECT_EQ(inst.node_state(check), NodeState::kActivated);

  // Second iteration: stop.
  ASSERT_TRUE(inst.StartActivity(check).ok());
  ASSERT_TRUE(
      inst.CompleteActivity(check, {{again, DataValue::Bool(false)}}).ok());
  EXPECT_EQ(inst.node_state(ByName(inst, "finish")), NodeState::kActivated);
  ASSERT_TRUE(Execute(inst, ByName(inst, "finish")).ok());
  EXPECT_TRUE(inst.Finished());

  // Loop reset recorded with the erased region.
  bool reset_seen = false;
  for (const auto& e : inst.trace().events()) {
    if (e.kind == TraceEventKind::kLoopReset) {
      reset_seen = true;
      EXPECT_EQ(e.iteration, 1);
      EXPECT_EQ(e.reset_nodes().size(), 3u);
    }
  }
  EXPECT_TRUE(reset_seen);
}

TEST(InstanceTest, ReducedTraceDropsOldIterations) {
  auto schema = LoopSchema();
  ProcessInstance inst(InstanceId(1), schema, SchemaId(1));
  ASSERT_TRUE(inst.Start().ok());
  ASSERT_TRUE(Execute(inst, ByName(inst, "prepare")).ok());
  DataId again = inst.schema().FindDataByName("again");
  NodeId check = ByName(inst, "check");
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(inst.StartActivity(check).ok());
    ASSERT_TRUE(inst.CompleteActivity(
                        check, {{again, DataValue::Bool(round < 2)}})
                    .ok());
  }
  // Full trace: 3 starts of "check"; reduced trace: only the last.
  int full_starts = 0;
  for (const auto& e : inst.trace().events()) {
    if (e.kind == TraceEventKind::kActivityStarted && e.node == check) {
      ++full_starts;
    }
  }
  EXPECT_EQ(full_starts, 3);
  int reduced_starts = 0;
  for (const auto& e : inst.trace().Reduced()) {
    if (e.kind == TraceEventKind::kActivityStarted && e.node == check) {
      ++reduced_starts;
    }
  }
  EXPECT_EQ(reduced_starts, 1);
}

TEST(InstanceTest, SyncEdgeGatesTargetActivation) {
  auto schema = OnlineOrderV2();  // send questions -> confirm order
  ASSERT_TRUE(VerifySchemaOrError(*schema).ok());
  ProcessInstance inst(InstanceId(1), schema, SchemaId(2));
  ASSERT_TRUE(inst.Start().ok());
  ASSERT_TRUE(Execute(inst, ByName(inst, "get order")).ok());
  ASSERT_TRUE(Execute(inst, ByName(inst, "collect data")).ok());

  // confirm order must wait for send questions (sync edge).
  EXPECT_EQ(inst.node_state(ByName(inst, "confirm order")),
            NodeState::kNotActivated);
  EXPECT_EQ(inst.node_state(ByName(inst, "compose order")),
            NodeState::kActivated);

  ASSERT_TRUE(Execute(inst, ByName(inst, "compose order")).ok());
  EXPECT_EQ(inst.node_state(ByName(inst, "confirm order")),
            NodeState::kNotActivated);
  ASSERT_TRUE(Execute(inst, ByName(inst, "send questions")).ok());
  EXPECT_EQ(inst.node_state(ByName(inst, "confirm order")),
            NodeState::kActivated);

  ASSERT_TRUE(Execute(inst, ByName(inst, "confirm order")).ok());
  ASSERT_TRUE(Execute(inst, ByName(inst, "pack goods")).ok());
  ASSERT_TRUE(Execute(inst, ByName(inst, "deliver goods")).ok());
  EXPECT_TRUE(inst.Finished());
}

TEST(InstanceTest, SyncEdgeFromSkippedSourceReleasesTarget) {
  // Sync source inside an XOR branch that gets skipped: the target must not
  // wait forever (FalseSignaled sync edge counts as resolved).
  SchemaBuilder b("sync_skip", 1);
  DataId sel = b.Data("sel", DataType::kInt);
  NodeId init = b.Activity("init");
  b.Writes(init, sel);
  NodeId source, target;
  b.Parallel({
      [&](SchemaBuilder& s) {
        s.Conditional(sel, {
            [&](SchemaBuilder& t) { source = t.Activity("maybe"); },
            [](SchemaBuilder& t) { t.Activity("other"); },
        });
      },
      [&](SchemaBuilder& s) { target = s.Activity("waiter"); },
  });
  b.SyncEdge(source, target);
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok()) << schema.status();

  ProcessInstance inst(InstanceId(1), *schema, SchemaId(1));
  ASSERT_TRUE(inst.Start().ok());
  ASSERT_TRUE(inst.StartActivity(init).ok());
  // Choose branch 1 -> "maybe" is skipped.
  ASSERT_TRUE(
      inst.CompleteActivity(init, {{sel, DataValue::Int(1)}}).ok());
  EXPECT_EQ(inst.node_state(source), NodeState::kSkipped);
  EXPECT_EQ(inst.node_state(target), NodeState::kActivated);
}

TEST(InstanceTest, FailRetrySuspendResume) {
  auto schema = SequenceSchema(2);
  ProcessInstance inst(InstanceId(1), schema, SchemaId(1));
  ASSERT_TRUE(inst.Start().ok());
  NodeId a1 = ByName(inst, "a1");

  ASSERT_TRUE(inst.StartActivity(a1).ok());
  ASSERT_TRUE(inst.SuspendActivity(a1).ok());
  EXPECT_EQ(inst.node_state(a1), NodeState::kSuspended);
  EXPECT_FALSE(inst.CompleteActivity(a1).ok());
  ASSERT_TRUE(inst.ResumeActivity(a1).ok());

  ASSERT_TRUE(inst.FailActivity(a1, "boom").ok());
  EXPECT_EQ(inst.node_state(a1), NodeState::kFailed);
  ASSERT_TRUE(inst.RetryActivity(a1).ok());
  EXPECT_EQ(inst.node_state(a1), NodeState::kActivated);
  ASSERT_TRUE(Execute(inst, a1).ok());
  EXPECT_EQ(inst.node_state(ByName(inst, "a2")), NodeState::kActivated);
}

TEST(InstanceTest, MandatoryOutputEnforced) {
  auto schema = XorSchema();
  ProcessInstance inst(InstanceId(1), schema, SchemaId(1));
  ASSERT_TRUE(inst.Start().ok());
  NodeId triage = ByName(inst, "triage");
  ASSERT_TRUE(inst.StartActivity(triage).ok());
  Status st = inst.CompleteActivity(triage);  // severity missing
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(InstanceTest, UndeclaredWriteRejected) {
  auto schema = SequenceSchema(1);
  ProcessInstance inst(InstanceId(1), schema, SchemaId(1));
  ASSERT_TRUE(inst.Start().ok());
  NodeId a1 = ByName(inst, "a1");
  ASSERT_TRUE(inst.StartActivity(a1).ok());
  Status st =
      inst.CompleteActivity(a1, {{DataId(99), DataValue::Int(1)}});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(InstanceTest, WriteTypeMismatchRejected) {
  auto schema = XorSchema();
  ProcessInstance inst(InstanceId(1), schema, SchemaId(1));
  ASSERT_TRUE(inst.Start().ok());
  NodeId triage = ByName(inst, "triage");
  DataId severity = inst.schema().FindDataByName("severity");
  ASSERT_TRUE(inst.StartActivity(triage).ok());
  Status st = inst.CompleteActivity(
      triage, {{severity, DataValue::String("high")}});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(InstanceTest, DataHistoryVersioned) {
  auto schema = LoopSchema();
  ProcessInstance inst(InstanceId(1), schema, SchemaId(1));
  ASSERT_TRUE(inst.Start().ok());
  ASSERT_TRUE(Execute(inst, ByName(inst, "prepare")).ok());
  DataId again = inst.schema().FindDataByName("again");
  NodeId check = ByName(inst, "check");
  for (bool v : {true, false}) {
    ASSERT_TRUE(inst.StartActivity(check).ok());
    ASSERT_TRUE(
        inst.CompleteActivity(check, {{again, DataValue::Bool(v)}}).ok());
  }
  const auto& history = inst.data().History(again);
  ASSERT_EQ(history.size(), 2u);
  EXPECT_TRUE(history[0].value.as_bool());
  EXPECT_FALSE(history[1].value.as_bool());
  auto latest = inst.data().Read(again);
  ASSERT_TRUE(latest.ok());
  EXPECT_FALSE(latest->as_bool());
}

class RecordingObserver : public InstanceObserver {
 public:
  void OnNodeStateChange(const ProcessInstance&, NodeId, NodeState,
                         NodeState to) override {
    ++transitions;
    if (to == NodeState::kActivated) ++activations;
  }
  void OnInstanceFinished(const ProcessInstance&) override { ++finished; }
  void OnDataWrite(const ProcessInstance&, NodeId, DataId,
                   const DataValue&) override {
    ++writes;
  }
  int transitions = 0, activations = 0, finished = 0, writes = 0;
};

TEST(InstanceTest, ObserverSeesLifecycle) {
  auto schema = XorSchema();
  RecordingObserver obs;
  ProcessInstance inst(InstanceId(1), schema, SchemaId(1));
  inst.set_observer(&obs);
  ASSERT_TRUE(inst.Start().ok());
  SimulationDriver driver({.seed = 3});
  ASSERT_TRUE(driver.RunToCompletion(inst).ok());
  EXPECT_TRUE(inst.Finished());
  EXPECT_GT(obs.transitions, 0);
  EXPECT_GT(obs.activations, 0);
  EXPECT_EQ(obs.finished, 1);
  EXPECT_EQ(obs.writes, 1);  // severity
}

TEST(EngineTest, CreateFindRemove) {
  Engine engine;
  auto schema = SequenceSchema(2);
  auto created = engine.CreateInstance(schema, SchemaId(1));
  ASSERT_TRUE(created.ok());
  InstanceId id = (*created)->id();
  EXPECT_EQ(engine.Find(id), *created);
  EXPECT_EQ(engine.instance_count(), 1u);
  EXPECT_TRUE(engine.Remove(id).ok());
  EXPECT_EQ(engine.Find(id), nullptr);
  EXPECT_EQ(engine.Remove(id).code(), StatusCode::kNotFound);
}

TEST(EngineTest, AdoptInstancePreservesIdSpace) {
  Engine engine;
  auto schema = SequenceSchema(2);
  auto adopted = engine.AdoptInstance(InstanceId(42), schema, SchemaId(1));
  ASSERT_TRUE(adopted.ok());
  EXPECT_FALSE(engine.AdoptInstance(InstanceId(42), schema, SchemaId(1)).ok());
  auto fresh = engine.CreateInstance(schema, SchemaId(1));
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT((*fresh)->id().value(), 42u);
}

TEST(DriverTest, RunsEveryFixtureToCompletion) {
  for (auto schema : {OnlineOrderV1(), OnlineOrderV2(), SequenceSchema(10),
                      XorSchema(), LoopSchema(), ComplexSchema()}) {
    ASSERT_NE(schema, nullptr);
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      ProcessInstance inst(InstanceId(seed), schema, SchemaId(1));
      ASSERT_TRUE(inst.Start().ok());
      SimulationDriver driver({.seed = seed});
      Status st = driver.RunToCompletion(inst);
      ASSERT_TRUE(st.ok())
          << schema->type_name() << " seed " << seed << ": " << st;
      EXPECT_TRUE(inst.Finished());
    }
  }
}

TEST(DriverTest, DeterministicForSeed) {
  auto schema = ComplexSchema();
  auto run = [&](uint64_t seed) {
    ProcessInstance inst(InstanceId(1), schema, SchemaId(1));
    EXPECT_TRUE(inst.Start().ok());
    SimulationDriver driver({.seed = seed});
    EXPECT_TRUE(driver.RunToCompletion(inst).ok());
    return inst.trace().DebugString();
  };
  EXPECT_EQ(run(7), run(7));
}

TEST(DriverTest, RunToProgressStopsEarly) {
  auto schema = SequenceSchema(10);
  ProcessInstance inst(InstanceId(1), schema, SchemaId(1));
  ASSERT_TRUE(inst.Start().ok());
  SimulationDriver driver({.seed = 1});
  ASSERT_TRUE(driver.RunToProgress(inst, 0.5).ok());
  EXPECT_FALSE(inst.Finished());
  int completed = 0;
  inst.schema().VisitNodes([&](const Node& n) {
    if (n.type == NodeType::kActivity &&
        inst.node_state(n.id) == NodeState::kCompleted) {
      ++completed;
    }
  });
  EXPECT_GE(completed, 5);
  EXPECT_LT(completed, 10);
}

TEST(DriverTest, LoopIterationCapRespected) {
  auto schema = LoopSchema();
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    ProcessInstance inst(InstanceId(seed), schema, SchemaId(1));
    ASSERT_TRUE(inst.Start().ok());
    SimulationDriver driver(
        {.seed = seed, .loop_continue_probability = 0.9,
         .max_loop_iterations = 2});
    ASSERT_TRUE(driver.RunToCompletion(inst).ok());
    NodeId loop_start = inst.schema().FindNodeByName("loop_start");
    EXPECT_LE(inst.loop_iteration(loop_start), 2);
  }
}

}  // namespace
}  // namespace adept
