// SimulatedCluster: distributed process control (paper Sec. 5).
//
// ADEPT partitions a process schema over multiple process servers; control
// over a running instance migrates between servers as execution enters a
// partition owned by someone else. The reproduction simulates the server
// topology in-process: activities carry an optional ServerId assignment
// (SchemaBuilder::ActivityOptions::server), unassigned activities belong to
// the *home* server (the first one registered), and RunDistributed() drives
// an instance to completion while
//   * executing every activity on its partition server,
//   * migrating control whenever the next activity lives on another server
//     (one handover message per switch), and
//   * preferring activated activities of the current controller (locality
//     heuristic) to keep handovers rare.
//
// PropagateMigration() models the fan-out of a schema-change decision after
// a type migration: every non-home partition receives one change
// propagation message per migrated instance.
//
// All messages are recorded in an inspectable log; per-server counters
// (activities executed, handovers received, messages sent/received) feed
// the examples and distribution benchmarks.

#ifndef ADEPT_DIST_CLUSTER_H_
#define ADEPT_DIST_CLUSTER_H_

#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "compliance/migration.h"
#include "model/schema_view.h"
#include "runtime/driver.h"
#include "runtime/instance.h"

namespace adept {

enum class DistMessageKind {
  kHandover,           // control migrates to another process server
  kChangePropagation,  // schema-change decision fans out to a partition
};

struct DistMessage {
  DistMessageKind kind;
  ServerId from;
  ServerId to;
  InstanceId instance;
  // Handover only: the activity whose execution forced the control switch.
  NodeId node;
};

struct ServerStats {
  size_t activities_executed = 0;
  size_t handovers_in = 0;
  size_t messages_sent = 0;
  size_t messages_received = 0;
};

class SimulatedCluster {
 public:
  SimulatedCluster() = default;

  SimulatedCluster(const SimulatedCluster&) = delete;
  SimulatedCluster& operator=(const SimulatedCluster&) = delete;

  // Registers a process server; the first one becomes the home server.
  ServerId AddServer(const std::string& name);

  Result<std::string> ServerName(ServerId server) const;

  // Owner of activities without an explicit assignment (invalid id when the
  // cluster is empty).
  ServerId home_server() const;

  // Partition server controlling `node` (explicit assignment or home).
  ServerId ServerOf(const Node& node) const;

  // Distinct partition servers of `schema`'s activities, ordered by first
  // use (ascending node id).
  std::vector<ServerId> PartitionsOf(const SchemaView& schema) const;

  // Drives `instance` to completion under distributed control (see file
  // comment). Fails with kFailedPrecondition on an empty cluster or a
  // blocked instance.
  Status RunDistributed(ProcessInstance& instance, SimulationDriver& driver,
                        int max_steps = 100000);

  // Fans the migration decision out: one kChangePropagation message per
  // migrated instance to every non-home partition of `schema`.
  Status PropagateMigration(const MigrationReport& report,
                            const SchemaView& schema);

  size_t handover_count() const { return handover_count_; }
  size_t total_messages() const { return message_log_.size(); }
  const std::vector<DistMessage>& message_log() const { return message_log_; }
  Result<ServerStats> StatsFor(ServerId server) const;

 private:
  struct ServerEntry {
    std::string name;
    ServerStats stats;
  };

  bool Known(ServerId server) const {
    return server.valid() && server.value() < servers_.size();
  }
  void Send(DistMessageKind kind, ServerId from, ServerId to,
            InstanceId instance, NodeId node);

  std::vector<ServerEntry> servers_;  // index == ServerId value
  size_t handover_count_ = 0;
  std::vector<DistMessage> message_log_;
};

}  // namespace adept

#endif  // ADEPT_DIST_CLUSTER_H_
