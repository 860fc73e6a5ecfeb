// AdeptApi: the abstract process-management facade.
//
// Two implementations exist:
//   * AdeptSystem (core/adept.h)      — one engine, single-threaded, the
//     faithful reproduction of the prototype's per-server execution model
//   * AdeptCluster (cluster/adept_cluster.h) — N independent AdeptSystem
//     shards behind the same API, instances partitioned by id, shards
//     executing in parallel
//
// Application code written against AdeptApi runs unchanged on either; the
// scale-out path is a configuration decision, not a code change. Schema
// management calls (deploy/evolve) affect the whole deployment; instance
// calls are routed to wherever the instance lives.
//
// Every instance write is one InstanceOp (core/instance_op.h) through the
// one virtual Apply: the named instance calls below are non-virtual
// one-line wrappers that build the op, so an implementation spells each
// operation once, and the cluster routes every write through one path.

#ifndef ADEPT_CORE_ADEPT_API_H_
#define ADEPT_CORE_ADEPT_API_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "change/delta.h"
#include "common/ids.h"
#include "common/status.h"
#include "compliance/migration.h"
#include "core/instance_op.h"
#include "model/schema.h"
#include "query/query.h"
#include "runtime/driver.h"
#include "runtime/instance.h"
#include "runtime/instance_snapshot.h"

namespace adept {

class AdeptApi {
 public:
  virtual ~AdeptApi() = default;

  // --- Buildtime ------------------------------------------------------------

  // Verifies and deploys version 1 of a process type.
  virtual Result<SchemaId> DeployProcessType(
      std::shared_ptr<const ProcessSchema> schema) = 0;

  // Applies a type change, creating the next version (schema evolution).
  virtual Result<SchemaId> EvolveProcessType(SchemaId base, Delta delta) = 0;

  virtual Result<SchemaId> LatestVersion(const std::string& type_name)
      const = 0;
  virtual Result<std::shared_ptr<const ProcessSchema>> Schema(SchemaId id)
      const = 0;

  // --- Lock-free read path ---------------------------------------------------
  //
  // The versioned-snapshot discipline (runtime/instance_snapshot.h):
  // mutators publish an immutable InstanceSnapshot after every change,
  // readers fetch the current one without touching the lock that
  // serializes the instance's engine turn. Reads therefore scale with the
  // reader count and never block behind CompleteActivity/Migrate on the
  // same shard; staleness is bounded by one in-flight mutation.
  //
  // Choosing a read call (the full guide lives in src/cluster/README.md):
  //   SnapshotOf     one instance by id, lock-free
  //   ReadInstance   same, with a distinguishing error instead of nullptr
  //   Query          all instances matching a predicate, lock-free +
  //                  index-accelerated — the monitoring/worklist sweep
  //   WithInstance   live state under the owner's lock (trace access);
  //                  last resort, blocks the instance's engine

  // Current snapshot of `id`, or nullptr when the instance does not exist
  // (AdeptCluster: also nullptr while the cluster is topology-poisoned —
  // use ReadInstance for the distinguishing error).
  virtual std::shared_ptr<const InstanceSnapshot> SnapshotOf(
      InstanceId id) const = 0;

  // Runs `fn` on the current snapshot. kNotFound when the instance does
  // not exist. `fn` may be arbitrarily slow: it holds no lock, only the
  // snapshot's shared_ptr.
  virtual Status ReadInstance(
      InstanceId id,
      const std::function<void(const InstanceSnapshot&)>& fn) const {
    std::shared_ptr<const InstanceSnapshot> snapshot = SnapshotOf(id);
    if (snapshot == nullptr) return Status::NotFound("no such instance");
    fn(*snapshot);
    return Status::OK();
  }

  // Runs `fn` with the live instance while it cannot be concurrently
  // mutated (AdeptCluster holds the owning shard's lock for the duration
  // of the callback). Returns kNotFound when the instance does not exist.
  // Keep `fn` short: it blocks the instance's engine — prefer ReadInstance
  // unless the read needs live-state guarantees a snapshot cannot give
  // (e.g. the full trace).
  virtual Status WithInstance(
      InstanceId id,
      const std::function<void(const ProcessInstance&)>& fn) const = 0;

  // Evaluates a textual predicate (grammar + semantics: src/query/
  // README.md) over the published snapshots and returns the matches in
  // ascending instance-id order. Lock-free: takes no shard mutex; when a
  // conjunct is indexable the candidate set comes from the snapshot-
  // maintained secondary indexes, and every hit is re-validated against
  // its current published snapshot (no stale-wrong results). Staleness is
  // bounded exactly like SnapshotOf: each match reflects its instance's
  // latest publication, not a global point in time. kInvalidArgument on a
  // malformed query (message carries the offset and a caret span);
  // AdeptCluster additionally kFailedPrecondition while topology-
  // poisoned.
  virtual Result<QueryResult> Query(const std::string& query) const = 0;

  // --- Instance operations --------------------------------------------------

  // Executes one instance operation, publishes the instance's snapshot and
  // logs the op's WAL record (AdeptSystem), or routes it to the owning
  // shard — a create round-robin — and waits until its record is durable
  // (AdeptCluster). Failures are in the result, never thrown.
  virtual OpResult Apply(const InstanceOp& op) = 0;

  // Creates and starts an instance of the latest version of `type_name`.
  Result<InstanceId> CreateInstance(const std::string& type_name) {
    return Created(Apply(InstanceOp::Create(type_name)));
  }
  Result<InstanceId> CreateInstanceOn(SchemaId schema) {
    return Created(Apply(InstanceOp::CreateOn(schema)));
  }

  Status StartActivity(InstanceId id, NodeId node) {
    return Apply(InstanceOp::Start(id, node)).status;
  }
  Status CompleteActivity(InstanceId id, NodeId node,
                          std::vector<ProcessInstance::DataWrite> writes = {}) {
    return Apply(InstanceOp::Complete(id, node, std::move(writes))).status;
  }
  Status FailActivity(InstanceId id, NodeId node, std::string reason) {
    return Apply(InstanceOp::Fail(id, node, std::move(reason))).status;
  }
  Status RetryActivity(InstanceId id, NodeId node) {
    return Apply(InstanceOp::Retry(id, node)).status;
  }
  Status SuspendActivity(InstanceId id, NodeId node) {
    return Apply(InstanceOp::Suspend(id, node)).status;
  }
  Status ResumeActivity(InstanceId id, NodeId node) {
    return Apply(InstanceOp::Resume(id, node)).status;
  }
  Status SelectBranch(InstanceId id, NodeId split, int branch_value) {
    return Apply(InstanceOp::SelectBranch(id, split, branch_value)).status;
  }
  Status SetLoopDecision(InstanceId id, NodeId loop_end, bool iterate) {
    return Apply(InstanceOp::LoopDecision(id, loop_end, iterate)).status;
  }

  // Synthetic execution through the facade (WAL-logged, unlike driving the
  // ProcessInstance directly): one step starts and completes one activated
  // activity `driver` picks; false when none is activated.
  Result<bool> DriveStep(InstanceId id, SimulationDriver& driver) {
    OpResult result = Apply(InstanceOp::DriveStep(id, &driver));
    if (!result.status.ok()) return result.status;
    return result.progressed;
  }
  // Steps until the instance's published snapshot is finished. Each step is
  // a separate Apply (on a cluster, a separately routed write).
  Status DriveToCompletion(InstanceId id, SimulationDriver& driver,
                           int max_steps = 100000) {
    for (int i = 0; i < max_steps; ++i) {
      std::shared_ptr<const InstanceSnapshot> snapshot = SnapshotOf(id);
      if (snapshot == nullptr) return Status::NotFound("no such instance");
      if (snapshot->finished) return Status::OK();
      ADEPT_ASSIGN_OR_RETURN(bool progressed, DriveStep(id, driver));
      if (!progressed) return Status::FailedPrecondition("instance blocked");
    }
    return Status::Internal("step budget exceeded");
  }

  // --- Dynamic change --------------------------------------------------------

  // Ad-hoc change of a single instance (paper Sec. 2).
  Status ApplyAdHocChange(InstanceId id, Delta delta) {
    return Apply(InstanceOp::AdHocChange(id, std::move(delta))).status;
  }

  // Propagates the type change `from` -> `to` to all running instances.
  virtual Result<MigrationReport> Migrate(
      SchemaId from, SchemaId to, const MigrationOptions& options = {}) = 0;
  // Convenience: migrate every predecessor-version instance to the latest.
  virtual Result<MigrationReport> MigrateToLatest(
      const std::string& type_name, const MigrationOptions& options = {}) = 0;

  // --- Worklist claims -------------------------------------------------------
  //
  // A claim is durable state of the system that owns its instance: an entry
  // of that system's claim ledger (worklist/claim_ledger.h), logged to its
  // WAL. The WorklistService drives both calls.

  // Runs `transition` under the lock that serializes instance `id`'s engine
  // turn. When it returns OK, records `user`'s claim on (id, node) at
  // activation `epoch` — an invalid `user` releases the claim — in the
  // owner's ledger and enqueues the record; otherwise returns its error and
  // records nothing. Returns the record's LSN (0 without a WAL), which
  // WaitClaimDurable waits for.
  virtual Result<uint64_t> RecordClaim(
      InstanceId id, NodeId node, UserId user, uint64_t epoch,
      const std::function<Status()>& transition) = 0;

  // Waits until the record RecordClaim returned `lsn` for is durable: the
  // wait of any write, so it includes the replica quorum when replication
  // is attached.
  virtual Status WaitClaimDurable(InstanceId id, uint64_t lsn) = 0;

  // --- Durability ------------------------------------------------------------

  // Writes a full snapshot and truncates the WAL (checkpoint).
  virtual Status SaveSnapshot() = 0;

 private:
  static Result<InstanceId> Created(const OpResult& result) {
    if (!result.status.ok()) return result.status;
    return result.id;
  }
};

}  // namespace adept

#endif  // ADEPT_CORE_ADEPT_API_H_
