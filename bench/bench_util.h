// Shared workload generators for the benchmark harness.
//
// All benchmarks are seeded and deterministic. Two generators are provided:
//   * ScaledSchema: a random well-formed WSM net with ~`activities`
//     activities, nested AND/XOR/LOOP blocks, decision/loop data elements
//     wired so the data-flow verifier passes, and optional sync edges
//   * Population: the paper's online-ordering process instantiated N times,
//     each instance driven to a random progress point, an adjustable
//     fraction ad-hoc modified ("biased"), matching the migration scenario
//     of Figs. 1/3 at scale

#ifndef ADEPT_BENCH_BENCH_UTIL_H_
#define ADEPT_BENCH_BENCH_UTIL_H_

#include <memory>
#include <vector>

#include "change/change_op.h"
#include "change/delta.h"
#include "common/rng.h"
#include "compliance/adhoc.h"
#include "compliance/migration.h"
#include "model/schema_builder.h"
#include "runtime/driver.h"
#include "runtime/engine.h"
#include "storage/instance_store.h"
#include "storage/schema_repository.h"

namespace adept {
namespace bench {

// --- Random scaled schemas ---------------------------------------------------

// `uid` makes generated names unique across sibling branches — parallel
// branches share a budget value, and budget-derived names alone would
// duplicate on every branch pair, drowning the verifier benchmarks in
// duplicate-name warnings instead of analysis work.
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
    int activities, uint64_t seed, const std::string& name = "scaled") {
  SchemaBuilder b(name, 1);
  Rng rng(seed);
  int budget = activities;
  int uid = 0;
  BuildSegment(b, rng, budget, 0, uid);
  auto schema = b.Build();
  return schema.ok() ? *schema : nullptr;
}

// --- Online-ordering population (Figs. 1/3 at scale) -------------------------

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

// The paper's Delta-T (pinned against `v1`).
inline Delta Fig1TypeChange(const ProcessSchema& v1) {
  Delta probe;
  NewActivitySpec spec;
  spec.name = "send questions";
  auto* op = probe.Add(std::make_unique<SerialInsertOp>(
      spec, v1.FindNodeByName("compose order"), v1.FindNodeByName("and_join")));
  (void)probe.ApplyToSchema(v1);
  Delta delta;
  delta.Add(op->Clone());
  delta.Add(std::make_unique<InsertSyncEdgeOp>(
      static_cast<SerialInsertOp*>(op)->inserted_node(),
      v1.FindNodeByName("confirm order")));
  return delta;
}

// A bias disjoint from Delta-T (migratable with bias kept).
inline Delta DisjointBias(const ProcessSchema& v1) {
  Delta delta;
  NewActivitySpec spec;
  spec.name = "gift wrap";
  delta.Add(std::make_unique<SerialInsertOp>(
      spec, v1.FindNodeByName("pack goods"),
      v1.FindNodeByName("deliver goods")));
  return delta;
}

// A bias conflicting with Delta-T (deadlock cycle; Fig. 1's I2).
inline Delta ConflictingBias(const ProcessSchema& v1) {
  Delta delta;
  delta.Add(std::make_unique<InsertSyncEdgeOp>(
      v1.FindNodeByName("confirm order"),
      v1.FindNodeByName("compose order")));
  return delta;
}

// Type changes of a version-history run: "audit" between "get order" and
// "collect data" of the latest version, and its removal, so the schema
// stays the same size however many rounds alternate the two.
inline Delta InsertAudit(const ProcessSchema& latest) {
  NewActivitySpec spec;
  spec.name = "audit";
  Delta delta;
  delta.Add(std::make_unique<SerialInsertOp>(
      spec, latest.FindNodeByName("get order"),
      latest.FindNodeByName("collect data")));
  return delta;
}

inline Delta DeleteAudit(const ProcessSchema& latest) {
  Delta delta;
  delta.Add(
      std::make_unique<DeleteActivityOp>(latest.FindNodeByName("audit")));
  return delta;
}

struct PopulationOptions {
  int instances = 1000;
  double biased_fraction = 0.0;       // of these...
  double conflicting_fraction = 0.0;  // ...this many get the conflicting bias
  double max_progress = 0.6;          // uniform progress in [0, max]
  uint64_t seed = 1;
  StorageStrategy strategy = StorageStrategy::kOverlay;
};

struct Population {
  std::shared_ptr<const ProcessSchema> v1;
  SchemaId v1_id;
  SchemaRepository repo;
  Engine engine;
  std::unique_ptr<InstanceStore> store;
  std::unique_ptr<MigrationManager> manager;
  std::vector<InstanceId> ids;
};

inline std::unique_ptr<Population> MakePopulation(
    const PopulationOptions& options) {
  auto pop = std::make_unique<Population>();
  pop->v1 = OnlineOrderV1();
  pop->v1_id = *pop->repo.Deploy(pop->v1);
  pop->store = std::make_unique<InstanceStore>(&pop->repo);
  pop->manager = std::make_unique<MigrationManager>(&pop->engine, &pop->repo,
                                                    pop->store.get());
  Rng rng(options.seed);
  SimulationDriver driver({.seed = options.seed + 1});
  for (int i = 0; i < options.instances; ++i) {
    ProcessInstance* inst = *pop->engine.CreateInstance(pop->v1, pop->v1_id);
    (void)pop->store->Register(inst->id(), pop->v1_id, options.strategy);
    (void)inst->Start();
    double roll = rng.NextDouble();
    if (roll < options.biased_fraction * options.conflicting_fraction) {
      (void)ApplyAdHocChange(*inst, *pop->store, ConflictingBias(*pop->v1));
    } else if (roll < options.biased_fraction) {
      (void)ApplyAdHocChange(*inst, *pop->store, DisjointBias(*pop->v1));
    }
    (void)driver.RunToProgress(*inst, rng.NextDouble() * options.max_progress);
    pop->ids.push_back(inst->id());
  }
  return pop;
}

}  // namespace bench
}  // namespace adept

#endif  // ADEPT_BENCH_BENCH_UTIL_H_
