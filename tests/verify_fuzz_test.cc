// Differential fuzz harness for incremental verification.
//
// The contract under test (verify/analysis.h): for any schema S, any
// applicable change transaction Delta with affected region R, the report of
// AnalyzeDelta(analysis(S), Delta(S), R) is identical to a from-scratch
// AnalyzeSchema(Delta(S)). The harness applies >= 1000 randomized change-op
// sequences — structural inserts/deletes/moves, sync edges placed legally
// and illegally, data wiring added and removed — against seeded random
// schemas, chaining the delta analyses so summary reuse compounds across
// generations, and asserts canonical-report equality at every step.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "change/change_op.h"
#include "change/delta.h"
#include "change/id_allocator.h"
#include "common/rng.h"
#include "model/schema.h"
#include "storage/instance_store.h"
#include "storage/schema_repository.h"
#include "verify/analysis.h"
#include "verify/verifier.h"

namespace adept {
namespace {

struct SchemaParts {
  std::vector<NodeId> activities;
  std::vector<Edge> control_edges;
  std::vector<Edge> sync_edges;
  std::vector<DataId> data;
  struct Wire {
    NodeId node;
    DataId data;
    AccessMode mode;
  };
  std::vector<Wire> data_edges;
};

SchemaParts Collect(const SchemaView& schema) {
  SchemaParts parts;
  schema.VisitNodes([&](const Node& n) {
    if (n.type == NodeType::kActivity) parts.activities.push_back(n.id);
  });
  schema.VisitEdges([&](const Edge& e) {
    if (e.type == EdgeType::kControl) parts.control_edges.push_back(e);
    if (e.type == EdgeType::kSync) parts.sync_edges.push_back(e);
  });
  schema.VisitData(
      [&](const DataElement& d) { parts.data.push_back(d.id); });
  schema.VisitNodes([&](const Node& n) {
    schema.VisitDataEdges(n.id, [&](const DataEdge& de) {
      parts.data_edges.push_back({n.id, de.data, de.mode});
    });
  });
  return parts;
}

template <typename T>
const T& Pick(Rng& rng, const std::vector<T>& v) {
  return v[rng.NextBelow(v.size())];
}

// One random change op against the current schema. Structural
// preconditions may still fail at apply time (e.g. moving an activity into
// an edge the same delta removed); callers skip those ops. Illegal-but-
// applicable ops (bad sync placement, reads without writers) are the
// interesting cases: they must produce identical *findings* on both paths.
std::unique_ptr<ChangeOp> RandomOp(Rng& rng, const SchemaView& schema,
                                   const SchemaParts& parts, int salt) {
  const int roll = static_cast<int>(rng.NextBelow(12));
  switch (roll) {
    case 0:
    case 1:
    case 2: {  // serial insert, sometimes with data wiring
      NewActivitySpec spec;
      spec.name = "fz" + std::to_string(salt);
      if (!parts.data.empty() && rng.NextBelow(2) == 0) {
        spec.data_wirings.push_back({Pick(rng, parts.data),
                                     rng.NextBelow(2) == 0
                                         ? AccessMode::kRead
                                         : AccessMode::kWrite,
                                     rng.NextBelow(4) == 0});
      }
      const Edge& slot = Pick(rng, parts.control_edges);
      return std::make_unique<SerialInsertOp>(std::move(spec), slot.src,
                                              slot.dst);
    }
    case 3: {  // parallel insert
      NewActivitySpec spec;
      spec.name = "fp" + std::to_string(salt);
      const Edge& slot = Pick(rng, parts.control_edges);
      return std::make_unique<ParallelInsertOp>(std::move(spec), slot.src,
                                                slot.dst);
    }
    case 4:
      if (parts.activities.empty()) return nullptr;
      return std::make_unique<DeleteActivityOp>(Pick(rng, parts.activities));
    case 5: {  // move
      if (parts.activities.empty()) return nullptr;
      const Edge& slot = Pick(rng, parts.control_edges);
      return std::make_unique<MoveActivityOp>(Pick(rng, parts.activities),
                                              slot.src, slot.dst);
    }
    case 6: {  // sync edge between random activities (legal or not)
      if (parts.activities.size() < 2) return nullptr;
      NodeId from = Pick(rng, parts.activities);
      NodeId to = Pick(rng, parts.activities);
      if (from == to) return nullptr;
      return std::make_unique<InsertSyncEdgeOp>(from, to);
    }
    case 7:
      if (parts.sync_edges.empty()) return nullptr;
      {
        const Edge& e = Pick(rng, parts.sync_edges);
        return std::make_unique<DeleteSyncEdgeOp>(e.src, e.dst);
      }
    case 8:
      return std::make_unique<AddDataElementOp>(
          "fd" + std::to_string(salt),
          rng.NextBelow(3) == 0 ? DataType::kInt : DataType::kString);
    case 9: {  // wire existing node to existing data (often a new race)
      if (parts.activities.empty() || parts.data.empty()) return nullptr;
      return std::make_unique<AddDataEdgeOp>(
          Pick(rng, parts.activities), Pick(rng, parts.data),
          rng.NextBelow(2) == 0 ? AccessMode::kRead : AccessMode::kWrite,
          rng.NextBelow(3) == 0);
    }
    case 10: {  // unwire (often breaks a guaranteed write)
      if (parts.data_edges.empty()) return nullptr;
      const SchemaParts::Wire& w = Pick(rng, parts.data_edges);
      return std::make_unique<DeleteDataEdgeOp>(w.node, w.data, w.mode);
    }
    default:
      if (parts.activities.empty()) return nullptr;
      return std::make_unique<ReplaceActivityImplOp>(
          Pick(rng, parts.activities), "impl" + std::to_string(salt));
  }
  (void)schema;
}

// Applies `delta` to `base` the way Delta::ApplyVerified does, but keeps
// the candidate + region even when the report has errors — the harness
// compares *reports*, not just accepted schemas.
struct AppliedDelta {
  std::shared_ptr<ProcessSchema> schema;
  ChangeRegion region;
};

Result<AppliedDelta> ApplyCollectingRegion(const ProcessSchema& base,
                                           Delta& delta) {
  SchemaIdAllocator alloc;
  AppliedDelta out;
  out.schema = base.Clone();
  out.schema->set_version(base.version() + 1);
  for (const auto& op : delta.ops()) {
    op->RegionBefore(*out.schema, out.region);
    ADEPT_RETURN_IF_ERROR(op->ApplyTo(*out.schema, alloc));
    op->RegionAfter(*out.schema, out.region);
  }
  ADEPT_RETURN_IF_ERROR(out.schema->Freeze());
  return out;
}

struct FuzzStats {
  int sequences = 0;
  int divergences = 0;
  int reports_with_findings = 0;
  size_t blocks_reused = 0;
  size_t blocks_total = 0;
};

// Runs one chain: a random base schema, then `chain_len` sequential deltas
// of 1-3 ops each. The delta analysis of step k seeds step k+1, so stale
// summaries would not just fail once — they would propagate.
void RunChain(uint64_t seed, int size, int chain_len, FuzzStats& stats) {
  auto base = bench::ScaledSchema(size, seed, "fuzz" + std::to_string(seed));
  ASSERT_NE(base, nullptr);
  std::shared_ptr<ProcessSchema> current = base->Clone();
  ASSERT_TRUE(current->Freeze().ok());

  Rng rng(seed * 2654435761u + 1);
  AnalysisResult current_analysis = AnalyzeSchema(*current);
  ASSERT_TRUE(current_analysis.analysis->incremental());

  int salt = 0;
  for (int step = 0; step < chain_len; ++step) {
    SchemaParts parts = Collect(*current);
    if (parts.control_edges.empty()) break;
    Delta delta;
    const int nops = 1 + static_cast<int>(rng.NextBelow(3));
    for (int i = 0; i < nops; ++i) {
      auto op = RandomOp(rng, *current, parts, ++salt);
      if (op != nullptr) delta.Add(std::move(op));
    }
    if (delta.empty()) continue;

    auto applied = ApplyCollectingRegion(*current, delta);
    if (!applied.ok()) continue;  // structural precondition failed: skip

    AnalysisResult full = AnalyzeSchema(*applied->schema);
    AnalysisResult incremental = AnalyzeDelta(
        *current_analysis.analysis, *applied->schema, applied->region);

    ++stats.sequences;
    if (!full.report.issues().empty()) ++stats.reports_with_findings;
    stats.blocks_reused += incremental.analysis->stats().blocks_reused;
    stats.blocks_total += incremental.analysis->stats().blocks_total;

    const std::string want = full.report.CanonicalString();
    const std::string got = incremental.report.CanonicalString();
    if (want != got) {
      ++stats.divergences;
      ADD_FAILURE() << "divergence at seed=" << seed << " step=" << step
                    << " delta=" << delta.Describe() << "\n--- full ---\n"
                    << want << "--- incremental ---\n"
                    << got;
      return;  // later steps would chain off a wrong analysis
    }

    // Chain: only verified schemas become the next base (matching how the
    // system only stores candidates whose report is error-free).
    if (full.report.ok()) {
      current = std::move(applied->schema);
      current_analysis = std::move(incremental);
    }
  }
}

TEST(VerifyFuzzTest, DeltaAnalysisMatchesFullAnalysis) {
  FuzzStats stats;
  uint64_t seed = 1;
  // 3 sizes x 36 seeds x 14-step chains; with skips this lands well above
  // the 1000-sequence floor.
  for (int size : {12, 35, 80}) {
    for (int s = 0; s < 36; ++s) {
      RunChain(seed++, size, 14, stats);
      if (stats.divergences > 0) break;
    }
  }
  EXPECT_GE(stats.sequences, 1000) << "fuzz volume too low to be meaningful";
  EXPECT_EQ(stats.divergences, 0);
  // The harness must exercise schemas with findings, not only clean ones.
  EXPECT_GT(stats.reports_with_findings, stats.sequences / 20);
  // And the incremental path must actually reuse summaries, or the test
  // proves nothing about invalidation.
  EXPECT_GT(stats.blocks_reused, stats.blocks_total / 4);
}

// Store level: a chain of up to 8 AddBias calls on one instance. Each call
// re-applies the whole bias seeded from the type schema's analysis; the
// report it stores must equal a full analysis of the materialized
// instance-specific schema.
TEST(VerifyFuzzTest, StoredBiasReportMatchesFullAnalysis) {
  int accepted = 0;
  int compared_with_findings = 0;
  uint64_t seed = 1000;
  for (int size : {12, 35}) {
    for (int s = 0; s < 24; ++s, ++seed) {
      auto base = bench::ScaledSchema(size, seed, "store" + std::to_string(seed));
      ASSERT_NE(base, nullptr);
      SchemaRepository repo;
      auto schema_id = repo.Deploy(base);
      ASSERT_TRUE(schema_id.ok()) << schema_id.status().message();
      InstanceStore store(&repo);
      const InstanceId id(1);
      ASSERT_TRUE(store
                      .Register(id, *schema_id,
                                static_cast<StorageStrategy>(seed % 3))
                      .ok());
      Rng rng(seed * 2654435761u + 7);
      int salt = 0;
      int calls = 0;
      for (int attempt = 0; attempt < 40 && calls < 8; ++attempt) {
        auto view = store.ExecutionSchema(id);
        ASSERT_TRUE(view.ok());
        SchemaParts parts = Collect(**view);
        Delta delta;
        const int nops = 1 + static_cast<int>(rng.NextBelow(2));
        for (int i = 0; i < nops; ++i) {
          auto op = RandomOp(rng, **view, parts, ++salt);
          if (op != nullptr) delta.Add(std::move(op));
        }
        if (delta.empty()) continue;
        const std::string described = delta.Describe();
        if (!store.AddBias(id, std::move(delta)).ok()) continue;
        ++calls;
        ++accepted;

        auto record = store.Get(id);
        ASSERT_TRUE(record.ok());
        Delta bias = (*record)->bias.Clone();
        BiasIdAllocator alloc;
        auto materialized = bias.ApplyRaw(*base, base->version(), &alloc);
        ASSERT_TRUE(materialized.ok()) << materialized.status().message();
        const std::string want =
            AnalyzeSchema(**materialized).report.CanonicalString();
        const std::string got = (*record)->report.CanonicalString();
        if (!(*record)->report.issues().empty()) ++compared_with_findings;
        ASSERT_EQ(want, got) << "seed=" << seed << " call=" << calls
                             << " delta=" << described;
      }
    }
  }
  EXPECT_GE(accepted, 200);
  // Accepted biases still carry warnings; some must be compared.
  EXPECT_GT(compared_with_findings, 0);
}

// region.full must force a from-scratch analysis even with a stale base.
TEST(VerifyFuzzTest, FullRegionIgnoresBaseAnalysis) {
  auto schema = bench::ScaledSchema(40, 99, "fullregion");
  ASSERT_NE(schema, nullptr);
  AnalysisResult base = AnalyzeSchema(*schema);

  Delta delta;
  NewActivitySpec spec;
  spec.name = "x";
  NodeId end = schema->end_node();
  NodeId last = schema->Predecessors(end, EdgeType::kControl)[0];
  delta.Add(std::make_unique<SerialInsertOp>(spec, last, end));
  auto derived = delta.ApplyRaw(*schema);
  ASSERT_TRUE(derived.ok());

  ChangeRegion full_region;
  full_region.full = true;
  AnalysisResult via_full_region =
      AnalyzeDelta(*base.analysis, **derived, full_region);
  AnalysisResult from_scratch = AnalyzeSchema(**derived);
  EXPECT_EQ(via_full_region.report.CanonicalString(),
            from_scratch.report.CanonicalString());
  EXPECT_EQ(via_full_region.analysis->stats().blocks_reused, 0u);
}

}  // namespace
}  // namespace adept
