// Randomized property suites over generated schemas and workloads.
//
// Uses the benchmark workload generator (bench/bench_util.h) to sweep
// seeds via parameterized gtest. Core invariants:
//   1. generated schemas verify cleanly and always run to completion
//   2. replay self-consistency: an instance is always compliant with its
//      *own* schema, and the replay-adapted marking equals the live one
//   3. randomized ad-hoc changes preserve verifiability; changed instances
//      still finish; overlay and materialized representations agree
//   4. marking sanity at every step: the marking is the firing rules'
//      fixpoint (tests/marking_oracle.h re-scans the whole schema) and
//      finished instances have no ready work

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "compliance/adhoc.h"
#include "compliance/replay.h"
#include "model/serialization.h"
#include "runtime/driver.h"
#include "storage/overlay_schema.h"
#include "tests/marking_oracle.h"
#include "verify/verifier.h"

namespace adept {
namespace {

using testing_fixtures::MarkingAtFixpoint;

// Share of the instance's activities that are Completed or Skipped.
double Progress(const ProcessInstance& inst) {
  size_t total = 0, finals = 0;
  inst.schema().VisitNodes([&](const Node& n) {
    if (n.type != NodeType::kActivity) return;
    ++total;
    if (IsFinalNodeState(inst.node_state(n.id))) ++finals;
  });
  return total == 0 ? 1.0 : static_cast<double>(finals) / total;
}

// SimulationDriver::RunToProgress and RunToCompletion (fraction 1 plus
// Finished()), checking the fixpoint oracle after every step.
::testing::AssertionResult StepChecked(SimulationDriver& driver,
                                       ProcessInstance& inst,
                                       double fraction) {
  for (int guard = 0; !inst.Finished() && Progress(inst) < fraction;) {
    if (++guard > 100000) {
      return ::testing::AssertionFailure() << "step budget exhausted";
    }
    auto progressed = driver.Step(inst);
    if (!progressed.ok()) {
      return ::testing::AssertionFailure() << progressed.status();
    }
    ::testing::AssertionResult fixpoint = MarkingAtFixpoint(inst);
    if (!fixpoint) return fixpoint;
    if (!*progressed) break;
  }
  if (fraction >= 1.0 && !inst.Finished()) {
    return ::testing::AssertionFailure() << "instance is blocked";
  }
  return ::testing::AssertionSuccess();
}

class GeneratedSchemaTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratedSchemaTest, VerifiesCleanly) {
  auto schema = bench::ScaledSchema(60, GetParam());
  ASSERT_NE(schema, nullptr);
  auto report = VerifySchema(*schema);
  EXPECT_TRUE(report.ok()) << report.DebugString();
}

TEST_P(GeneratedSchemaTest, RunsToCompletion) {
  auto schema = bench::ScaledSchema(60, GetParam());
  ASSERT_NE(schema, nullptr);
  for (uint64_t run = 0; run < 3; ++run) {
    ProcessInstance inst(InstanceId(run + 1), schema, SchemaId(1));
    ASSERT_TRUE(inst.Start().ok());
    SimulationDriver driver({.seed = GetParam() * 7 + run});
    Status st = driver.RunToCompletion(inst);
    ASSERT_TRUE(st.ok()) << "seed " << GetParam() << ": " << st;
    EXPECT_TRUE(inst.Finished());
    EXPECT_TRUE(inst.ActivatedActivities().empty());
  }
}

TEST_P(GeneratedSchemaTest, ReplaySelfConsistency) {
  auto schema = bench::ScaledSchema(40, GetParam());
  ASSERT_NE(schema, nullptr);
  ProcessInstance inst(InstanceId(1), schema, SchemaId(1));
  ASSERT_TRUE(inst.Start().ok());
  SimulationDriver driver({.seed = GetParam() + 101});
  Rng rng(GetParam());
  ASSERT_TRUE(driver.RunToProgress(inst, rng.NextDouble()).ok());

  // Every instance is trivially compliant with its own schema, and the
  // replay-derived marking must equal the live marking exactly.
  ReplayResult rr = CheckComplianceByReplay(inst, inst.schema_ptr());
  ASSERT_TRUE(rr.compliant) << rr.reason << "\n" << inst.trace().DebugString();
  EXPECT_EQ(rr.adapted_marking.node_states(), inst.marking().node_states());
  EXPECT_EQ(rr.adapted_marking.edge_states(), inst.marking().edge_states());
}

TEST_P(GeneratedSchemaTest, SerializationRoundTrip) {
  auto schema = bench::ScaledSchema(50, GetParam());
  ASSERT_NE(schema, nullptr);
  auto restored = SchemaFromJson(SchemaToJson(*schema));
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(SchemaToJson(**restored).Dump(), SchemaToJson(*schema).Dump());
}

TEST_P(GeneratedSchemaTest, MarkingSanityDuringExecution) {
  auto schema = bench::ScaledSchema(40, GetParam());
  ASSERT_NE(schema, nullptr);
  ProcessInstance inst(InstanceId(1), schema, SchemaId(1));
  ASSERT_TRUE(inst.Start().ok());
  SimulationDriver driver({.seed = GetParam() + 5});

  ASSERT_TRUE(MarkingAtFixpoint(inst));
  int guard = 0;
  while (!inst.Finished() && ++guard < 2000) {
    auto progressed = driver.Step(inst);
    ASSERT_TRUE(progressed.ok());
    ASSERT_TRUE(MarkingAtFixpoint(inst));
    if (!*progressed) break;
  }
  EXPECT_TRUE(inst.Finished());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedSchemaTest,
                         ::testing::Range<uint64_t>(1, 21));

// --- Randomized ad-hoc change sweeps ----------------------------------------

class AdHocSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AdHocSweepTest, ChangedInstancesStayHealthy) {
  uint64_t seed = GetParam();
  auto schema = bench::ScaledSchema(40, seed, "adhoc_sweep");
  ASSERT_NE(schema, nullptr);

  SchemaRepository repo;
  auto schema_id = repo.Deploy(schema);
  ASSERT_TRUE(schema_id.ok());
  InstanceStore store(&repo);
  Engine engine;
  Rng rng(seed * 31 + 1);
  SimulationDriver driver({.seed = seed + 7});

  int applied = 0, rejected = 0;
  for (int round = 0; round < 10; ++round) {
    ProcessInstance* inst = *engine.CreateInstance(schema, *schema_id);
    ASSERT_TRUE(store.Register(inst->id(), *schema_id).ok());
    ASSERT_TRUE(inst->Start().ok());
    ASSERT_TRUE(MarkingAtFixpoint(*inst));
    ASSERT_TRUE(StepChecked(driver, *inst, rng.NextDouble() * 0.7));

    // Random op against the base schema.
    std::vector<const Edge*> edges;
    std::vector<NodeId> activities;
    schema->VisitEdges([&](const Edge& e) {
      if (e.type == EdgeType::kControl) edges.push_back(schema->FindEdge(e.id));
    });
    schema->VisitNodes([&](const Node& n) {
      if (n.type == NodeType::kActivity) activities.push_back(n.id);
    });
    Delta delta;
    if (rng.NextBool()) {
      const Edge* e = edges[rng.NextIndex(edges.size())];
      NewActivitySpec spec;
      spec.name = "sweep" + std::to_string(round);
      delta.Add(std::make_unique<SerialInsertOp>(spec, e->src, e->dst));
    } else {
      delta.Add(std::make_unique<DeleteActivityOp>(
          activities[rng.NextIndex(activities.size())]));
    }

    Status st = ApplyAdHocChange(*inst, store, std::move(delta));
    EXPECT_TRUE(MarkingAtFixpoint(*inst));
    if (!st.ok()) {
      ++rejected;
      // Rejection must leave the instance unbiased and healthy.
      EXPECT_FALSE(inst->biased());
    } else {
      ++applied;
      // The changed execution schema still verifies.
      EXPECT_TRUE(VerifySchemaOrError(inst->schema()).ok());
      // Overlay equals materialization.
      auto record = store.Get(inst->id());
      ASSERT_TRUE(record.ok());
      if ((*record)->block != nullptr) {
        OverlaySchema overlay(*repo.Get((*record)->base_schema),
                              (*record)->block);
        auto materialized = overlay.Materialize();
        ASSERT_TRUE(materialized.ok());
        EXPECT_EQ(overlay.node_count(), (*materialized)->node_count());
      }
    }
    // Either way the instance must still finish.
    EXPECT_TRUE(StepChecked(driver, *inst, 1.0))
        << "round " << round << " (applied=" << st.ok() << ")";
  }
  // The sweep must exercise both paths across seeds (soft check per seed).
  EXPECT_GT(applied + rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdHocSweepTest,
                         ::testing::Range<uint64_t>(1, 13));

// --- Randomized migration sweeps --------------------------------------------

class MigrationSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MigrationSweepTest, PopulationMigrationInvariants) {
  uint64_t seed = GetParam();
  bench::PopulationOptions options;
  options.instances = 40;
  options.biased_fraction = 0.3;
  options.conflicting_fraction = 0.4;
  options.seed = seed;
  auto pop = bench::MakePopulation(options);
  SchemaId v2 = *pop->repo.DeriveVersion(pop->v1_id,
                                         bench::Fig1TypeChange(*pop->v1));

  MigrationOptions mopts;
  mopts.verify_adaptation_with_replay = true;  // oracle on
  auto report = pop->manager->MigrateAll(pop->v1_id, v2, mopts);
  ASSERT_TRUE(report.ok()) << report.status();

  for (const auto& r : report->results) {
    // The oracle found no adaptation divergence.
    EXPECT_NE(r.outcome, MigrationOutcome::kError) << r.detail;
    ProcessInstance* inst = pop->engine.Find(r.id);
    ASSERT_NE(inst, nullptr);
    EXPECT_TRUE(MarkingAtFixpoint(*inst));
    switch (r.outcome) {
      case MigrationOutcome::kMigrated:
      case MigrationOutcome::kBiasCancelled:
        EXPECT_EQ(inst->schema().version(), 2);
        break;
      case MigrationOutcome::kMigratedBiased:
        EXPECT_EQ(inst->schema().version(), 2);
        EXPECT_TRUE(inst->biased());
        break;
      default:
        EXPECT_EQ(inst->schema().version(), 1);
        break;
    }
  }

  // Everyone still finishes, on whichever version they ended up.
  SimulationDriver driver({.seed = seed + 99});
  for (InstanceId id : pop->ids) {
    ProcessInstance* inst = pop->engine.Find(id);
    Status st = driver.RunToCompletion(*inst);
    EXPECT_TRUE(st.ok()) << "I" << id.value() << ": " << st;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrationSweepTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace adept
