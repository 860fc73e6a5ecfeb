// Container transportation with distributed process control.
//
// Bassil et al. built "a workflow-oriented system architecture for the
// management of container transportation" on ADEPT (paper ref. [3]). This
// example partitions the transport process across three (simulated)
// process servers — harbor, trucking company, terminal — runs instances
// with control handovers, evolves the process type (adding a customs
// inspection), and propagates the migration decision to every partition.
//
// Build & run:  ./build/examples/container_transport

#include <iostream>

#include "change/change_op.h"
#include "core/adept.h"
#include "dist/cluster.h"
#include "model/schema_builder.h"
#include "monitor/monitor.h"

using namespace adept;

int main() {
  auto system = AdeptSystem::Create();
  AdeptSystem& adept = **system;

  SimulatedCluster cluster;
  ServerId harbor = cluster.AddServer("harbor");
  ServerId trucking = cluster.AddServer("trucking");
  ServerId terminal = cluster.AddServer("terminal");

  // Transport process partitioned by responsibility.
  SchemaBuilder b("container_transport", 1);
  DataId damaged = b.Data("damaged", DataType::kInt);
  NodeId unload = b.Activity("unload vessel", {.server = harbor});
  b.Writes(unload, damaged);
  b.Conditional(damaged, {
      [&](SchemaBuilder&) { /* intact: no extra step */ },
      [&](SchemaBuilder& s) {
        s.Activity("record damage", {.server = harbor});
      },
  });
  b.Parallel({
      [&](SchemaBuilder& s) {
        s.Activity("prepare transport docs", {.server = harbor});
      },
      [&](SchemaBuilder& s) {
        s.Activity("dispatch truck", {.server = trucking});
        s.Activity("drive to terminal", {.server = trucking});
      },
  });
  b.Activity("hand over container", {.server = trucking});
  b.Activity("stack container", {.server = terminal});
  b.Activity("confirm delivery", {.server = terminal});
  auto schema = b.Build();
  if (!schema.ok()) {
    std::cerr << "modeling failed: " << schema.status() << "\n";
    return 1;
  }
  SchemaId v1_id = *adept.DeployProcessType(*schema);

  std::cout << "--- container transport process ---\n"
            << RenderSchema(**schema);
  std::cout << "partitions:";
  for (ServerId s : cluster.PartitionsOf(**schema)) {
    std::cout << " " << *cluster.ServerName(s);
  }
  std::cout << "\n\n";

  // Run a fleet of containers through the distributed cluster.
  SimulationDriver driver({.seed = 2026});
  constexpr int kContainers = 25;
  std::vector<InstanceId> fleet;
  for (int i = 0; i < kContainers; ++i) {
    InstanceId id = *adept.CreateInstance("container_transport");
    fleet.push_back(id);
    Status st =
        cluster.RunDistributed(*adept.MutableInstance(id), driver);
    if (!st.ok()) {
      std::cerr << "distributed run failed: " << st << "\n";
      return 1;
    }
  }

  std::cout << "--- distributed execution of " << kContainers
            << " containers ---\n";
  for (ServerId s : {harbor, trucking, terminal}) {
    auto stats = cluster.StatsFor(s);
    std::cout << "  " << *cluster.ServerName(s) << ": "
              << stats->activities_executed << " activities, "
              << stats->handovers_in << " control handovers received\n";
  }
  std::cout << "  total messages: " << cluster.total_messages() << " ("
            << cluster.handover_count() << " handovers)\n\n";

  // A few containers still in flight on V1 (unloaded, nothing more).
  std::vector<InstanceId> in_flight;
  for (int i = 0; i < 5; ++i) {
    InstanceId id = *adept.CreateInstance("container_transport");
    NodeId node = (*schema)->FindNodeByName("unload vessel");
    (void)adept.StartActivity(id, node);
    (void)adept.CompleteActivity(id, node, {{damaged, DataValue::Int(0)}});
    in_flight.push_back(id);
  }

  // Schema evolution: customs now inspects every container before stacking.
  Delta customs;
  NewActivitySpec spec;
  spec.name = "customs inspection";
  customs.Add(std::make_unique<SerialInsertOp>(
      spec, (*schema)->FindNodeByName("hand over container"),
      (*schema)->FindNodeByName("stack container")));
  SchemaId v2_id = *adept.EvolveProcessType(v1_id, std::move(customs));

  auto report = adept.Migrate(v1_id, v2_id);
  std::cout << RenderMigrationReport(*report);

  // The migration decision is propagated to every partition server.
  (void)cluster.PropagateMigration(*report, **adept.Schema(v2_id));
  std::cout << "\npropagation messages sent: ";
  size_t propagation = 0;
  for (const auto& m : cluster.message_log()) {
    if (m.kind == DistMessageKind::kChangePropagation) ++propagation;
  }
  std::cout << propagation << "\n";

  // In-flight containers complete on V2 with the customs step.
  for (InstanceId id : in_flight) {
    (void)adept.DriveToCompletion(id, driver);
    (void)adept.WithInstance(id, [&](const ProcessInstance& inst) {
      NodeId customs_node =
          inst.schema().FindNodeByName("customs inspection");
      std::cout << "I" << id.value() << " finished on V"
                << inst.schema().version() << ", customs inspection: "
                << NodeStateToString(inst.node_state(customs_node)) << "\n";
    });
  }
  return 0;
}
