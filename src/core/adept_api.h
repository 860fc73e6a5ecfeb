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

#ifndef ADEPT_CORE_ADEPT_API_H_
#define ADEPT_CORE_ADEPT_API_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "change/delta.h"
#include "common/ids.h"
#include "common/status.h"
#include "compliance/migration.h"
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

  // --- Instance lifecycle ----------------------------------------------------

  virtual Result<InstanceId> CreateInstance(const std::string& type_name) = 0;
  virtual Result<InstanceId> CreateInstanceOn(SchemaId schema) = 0;

  // DEPRECATED: TOCTOU-prone bare read path — implementations that
  // execute concurrently (AdeptCluster) return a pointer that may be
  // invalidated by other threads the moment the call returns, so any
  // check-then-dereference against it races. Use ReadInstance/SnapshotOf
  // for lock-free reads, or WithInstance when the callback needs the live
  // instance under the owner's lock. The accessor is [[deprecated]] and
  // CI builds with -Werror=deprecated-declarations, so new call sites
  // cannot appear; implementations override the protected InstanceImpl.
  [[deprecated(
      "bare Instance() races against concurrent mutation; use "
      "ReadInstance/SnapshotOf (lock-free) or WithInstance "
      "(linearized)")]] const ProcessInstance*
  Instance(InstanceId id) const {
    return InstanceImpl(id);
  }

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
  // mutated (AdeptCluster overrides this to hold the owning shard's lock
  // for the duration of the callback). Returns kNotFound when the instance
  // does not exist. Keep `fn` short: it blocks the instance's engine —
  // prefer ReadInstance unless the read needs live-state guarantees a
  // snapshot cannot give (e.g. the full trace).
  virtual Status WithInstance(
      InstanceId id,
      const std::function<void(const ProcessInstance&)>& fn) const {
    const ProcessInstance* instance = InstanceImpl(id);
    if (instance == nullptr) return Status::NotFound("no such instance");
    fn(*instance);
    return Status::OK();
  }

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

  virtual Status StartActivity(InstanceId id, NodeId node) = 0;
  virtual Status CompleteActivity(
      InstanceId id, NodeId node,
      const std::vector<ProcessInstance::DataWrite>& writes = {}) = 0;
  virtual Status FailActivity(InstanceId id, NodeId node,
                              const std::string& reason) = 0;
  virtual Status RetryActivity(InstanceId id, NodeId node) = 0;
  virtual Status SuspendActivity(InstanceId id, NodeId node) = 0;
  virtual Status ResumeActivity(InstanceId id, NodeId node) = 0;
  virtual Status SelectBranch(InstanceId id, NodeId split,
                              int branch_value) = 0;
  virtual Status SetLoopDecision(InstanceId id, NodeId loop_end,
                                 bool iterate) = 0;

  // Synthetic execution through the facade (WAL-logged, unlike driving the
  // ProcessInstance directly).
  virtual Result<bool> DriveStep(InstanceId id, SimulationDriver& driver) = 0;
  virtual Status DriveToCompletion(InstanceId id, SimulationDriver& driver,
                                   int max_steps = 100000) = 0;

  // --- Dynamic change --------------------------------------------------------

  // Ad-hoc change of a single instance (paper Sec. 2).
  virtual Status ApplyAdHocChange(InstanceId id, Delta delta) = 0;

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

 protected:
  // Implementation behind the deprecated bare Instance() accessor and the
  // default WithInstance(). Same hazard as Instance(): the pointer is only
  // meaningful while the caller excludes concurrent mutation.
  virtual const ProcessInstance* InstanceImpl(InstanceId id) const = 0;
};

}  // namespace adept

#endif  // ADEPT_CORE_ADEPT_API_H_
