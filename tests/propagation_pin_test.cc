// Pins the engine's observable behaviour byte for byte.
//
// Each seed drives a standalone AdeptSystem through a seeded mix of
// operations on a bench::ScaledSchema (20-180 activities with AND, XOR and
// loop blocks): driver steps with loops continuing at probability 0.5,
// ad-hoc changes (serial insert, parallel insert, delete, sync-edge insert
// and delete) and type evolutions followed by MigrateToLatest, some with
// the replay oracle on. After every operation the ExportInstance of each
// instance it touched is hashed (FNV-1a-64), and the hashes of a seed fold
// into one digest.
//
// The expected digests were recorded by running this same test body, in a
// separate checkout, against the engine that propagated markings by
// re-scanning every node of the schema until a pass changed nothing. The
// frontier-driven propagation that replaced it must reproduce every trace,
// marking and data value that engine produced, so any mismatch here is a
// behaviour change.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/adept.h"
#include "net/transport.h"
#include "runtime/instance_snapshot.h"

namespace adept {
namespace {

// A random ad-hoc change against the instance as published. Targets are
// drawn among NotActivated nodes; the change may still be rejected (the
// verifier or the state conditions refuse it), which is part of the pin.
Delta RandomChange(const InstanceSnapshot& snapshot, Rng& rng,
                   const std::string& name) {
  const SchemaView& schema = *snapshot.schema;
  auto fresh = [&](NodeId id) {
    return snapshot.marking.node(id) == NodeState::kNotActivated;
  };
  std::vector<NodeId> activities;
  std::vector<std::pair<NodeId, NodeId>> control, sync, and_heads;
  schema.VisitNodes([&](const Node& n) {
    if (n.type == NodeType::kActivity && fresh(n.id)) {
      activities.push_back(n.id);
    }
    if (n.type == NodeType::kAndSplit) {
      std::vector<NodeId> heads = schema.Successors(n.id, EdgeType::kControl);
      if (heads.size() >= 2 && fresh(heads[1])) {
        and_heads.emplace_back(heads[0], heads[1]);
      }
    }
  });
  schema.VisitEdges([&](const Edge& e) {
    if (e.type == EdgeType::kControl && fresh(e.dst)) {
      control.emplace_back(e.src, e.dst);
    } else if (e.type == EdgeType::kSync && fresh(e.dst)) {
      sync.emplace_back(e.src, e.dst);
    }
  });

  NewActivitySpec spec;
  spec.name = name;
  Delta delta;
  const uint64_t roll = rng.NextBelow(100);
  if (roll < 20 && !activities.empty()) {
    NodeId target = activities[rng.NextIndex(activities.size())];
    delta.Add(std::make_unique<ParallelInsertOp>(spec, target, target));
  } else if (roll < 40 && !activities.empty()) {
    delta.Add(std::make_unique<DeleteActivityOp>(
        activities[rng.NextIndex(activities.size())]));
  } else if (roll < 52 && !and_heads.empty()) {
    auto [from, to] = and_heads[rng.NextIndex(and_heads.size())];
    delta.Add(std::make_unique<InsertSyncEdgeOp>(from, to));
  } else if (roll < 58 && !sync.empty()) {
    auto [from, to] = sync[rng.NextIndex(sync.size())];
    delta.Add(std::make_unique<DeleteSyncEdgeOp>(from, to));
  } else if (!control.empty()) {
    auto [pred, succ] = control[rng.NextIndex(control.size())];
    delta.Add(std::make_unique<SerialInsertOp>(spec, pred, succ));
  }
  return delta;
}

// A type change of the latest version: a serial insert of a fresh activity
// into a random control edge, or the removal of an earlier such activity.
Delta RandomTypeChange(const ProcessSchema& latest, Rng& rng, int round) {
  std::vector<NodeId> evolved;
  std::vector<std::pair<NodeId, NodeId>> control;
  latest.VisitNodes([&](const Node& n) {
    if (n.name.rfind("evo", 0) == 0) evolved.push_back(n.id);
  });
  latest.VisitEdges([&](const Edge& e) {
    if (e.type == EdgeType::kControl) control.emplace_back(e.src, e.dst);
  });
  Delta delta;
  if (!evolved.empty() && rng.NextBool(0.4)) {
    delta.Add(std::make_unique<DeleteActivityOp>(
        evolved[rng.NextIndex(evolved.size())]));
  } else {
    NewActivitySpec spec;
    spec.name = "evo" + std::to_string(round);
    auto [pred, succ] = control[rng.NextIndex(control.size())];
    delta.Add(std::make_unique<SerialInsertOp>(spec, pred, succ));
  }
  return delta;
}

// Runs the seeded mix and returns its digest.
uint64_t RunMix(uint64_t seed, int operations) {
  auto created = AdeptSystem::Create();
  EXPECT_TRUE(created.ok());
  AdeptSystem& adept = **created;
  const int activities = 20 + static_cast<int>((seed * 37) % 161);
  auto schema = bench::ScaledSchema(activities, seed, "pin");
  EXPECT_NE(schema, nullptr);
  EXPECT_TRUE(adept.DeployProcessType(schema).ok());

  Rng rng(seed * 7919 + 3);
  SimulationDriver driver(
      {.seed = seed + 11, .loop_continue_probability = 0.5});
  std::string trail;
  auto fold = [&](InstanceId id, bool ok) {
    auto exported = adept.ExportInstance(id);
    trail += ok ? "+" : "-";
    trail += exported.ok() ? std::to_string(NetChecksum(exported->Dump()))
                           : std::string("missing");
    trail += "\n";
  };
  std::vector<InstanceId> live;
  auto create = [&] {
    auto id = adept.CreateInstance("pin");
    EXPECT_TRUE(id.ok()) << id.status();
    live.push_back(*id);
    fold(*id, id.ok());
  };
  for (int i = 0; i < 6; ++i) create();

  int rounds = 0;
  for (int op = 0; op < operations; ++op) {
    const size_t slot = rng.NextIndex(live.size());
    const InstanceId id = live[slot];
    const uint64_t roll = rng.NextBelow(100);
    if (roll < 70) {
      auto stepped = adept.DriveStep(id, driver);
      fold(id, stepped.ok() && *stepped);
    } else if (roll < 97) {
      Delta delta = RandomChange(*adept.SnapshotOf(id), rng,
                                 "x" + std::to_string(op));
      Status st = adept.ApplyAdHocChange(id, std::move(delta));
      fold(id, st.ok());
    } else {
      SchemaId latest = *adept.LatestVersion("pin");
      Delta change = RandomTypeChange(**adept.Schema(latest), rng, ++rounds);
      Status st = adept.EvolveProcessType(latest, std::move(change)).status();
      MigrationOptions options;
      options.verify_adaptation_with_replay = rounds % 2 == 1;
      if (st.ok()) st = adept.MigrateToLatest("pin", options).status();
      for (InstanceId each : live) fold(each, st.ok());
    }
    if (adept.SnapshotOf(id)->finished) {
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(slot));
      create();
    }
  }
  return NetChecksum(trail);
}

struct Pin {
  uint64_t seed;
  uint64_t digest;
};

class PropagationPinTest : public ::testing::TestWithParam<Pin> {};

TEST_P(PropagationPinTest, ExportsMatchRecordedDigests) {
  const Pin& pin = GetParam();
  EXPECT_EQ(RunMix(pin.seed, 600), pin.digest) << "seed " << pin.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PropagationPinTest,
    ::testing::Values(
        Pin{1, 12619887638110265538u},
        Pin{2, 4647181922067711459u},
        Pin{3, 13330998428617578665u},
        Pin{4, 17213193040425606832u},
        Pin{5, 6141264497807191298u},
        Pin{6, 17328755161090224942u},
        Pin{7, 3087189527428701848u},
        Pin{8, 129154306105026240u},
        Pin{9, 770298863969002821u},
        Pin{10, 10142728033418027551u},
        Pin{11, 13987565490846566495u},
        Pin{12, 8694401775662972277u}));

}  // namespace
}  // namespace adept
