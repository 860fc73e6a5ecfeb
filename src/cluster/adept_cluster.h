// AdeptCluster: N AdeptSystem shards behind the AdeptApi facade.
//
// The single-node AdeptSystem is single-threaded by design; this layer is
// where concurrency enters the codebase. Instances are partitioned across
// `shards` fully independent AdeptSystem instances:
//
//   * shard key        ShardOf(id) == (id - 1) % shards. The cluster
//                      allocates instance ids shard-affinely (shard k issues
//                      k+1, k+1+N, k+2N+1, ...), so the owning shard is a
//                      pure function of the id — no routing table, stable
//                      across recovery.
//   * creation         new instances are placed round-robin; all later
//                      lifecycle/worklist calls are routed to the owner.
//   * schema calls     DeployProcessType/EvolveProcessType/Migrate fan out
//                      to every shard in parallel (FanOut) under a global
//                      schema lock; since all shards see the identical call
//                      sequence, they allocate identical SchemaIds
//                      (divergence is detected and reported as kInternal).
//   * locking          one mutex per shard serializes that shard's engine
//                      turn; distinct shards execute in parallel. Reads
//                      (SnapshotOf/ReadInstance/ForEachSnapshot) take no
//                      shard mutex: they fetch immutable published
//                      snapshots through an epoch-checked routing view
//                      (see "Reading instances" in README.md).
//   * durability       each shard owns a WAL/snapshot pair derived from the
//                      configured base paths ("<path>.shard<k>"), written
//                      through a group-commit WalWriter with the configured
//                      SyncMode. Calls are *pipelined*: state mutates and
//                      the WAL record is enqueued under the shard lock, the
//                      durability wait happens after the lock is released —
//                      distinct shards overlap engine work with WAL I/O.
//                      Worklist claims and the org model ride the same
//                      per-shard streams. Recover() rebuilds every shard
//                      and re-derives the per-shard id allocators.
//
// Writes: every instance write is one InstanceOp (core/instance_op.h), and
// one per-shard routine (WriteShard) runs it: topology and writable gates,
// shard lock, AdeptSystem::Apply, unlock, durability wait. Apply() calls it
// inline with one op; SubmitBatch(), the scale-out entry point, groups
// heterogeneous ops by owning shard and calls it once per group in
// parallel on a small worker pool — one lock acquisition per shard per
// batch instead of one per operation.
//
// Observers registered via AddObserver() are invoked from worker threads
// (under the owning shard's lock) and must be thread-safe.

#ifndef ADEPT_CLUSTER_ADEPT_CLUSTER_H_
#define ADEPT_CLUSTER_ADEPT_CLUSTER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cluster/shard_routing.h"
#include "cluster/thread_pool.h"
#include "core/adept.h"
#include "core/adept_api.h"
#include "org/org_model.h"
#include "repl/replication.h"

namespace adept {

class WorklistService;

// Point-in-time replication health of the whole cluster: one PrimaryStatus
// per shard (see repl/replication.h). The surface the FailoverCoordinator
// polls, AV013 `replication-degraded` lints, and the chaos tests assert on.
struct ClusterReplicationStatus {
  bool attached = false;
  uint64_t epoch = 0;
  std::vector<PrimaryStatus> shards;

  // Any shard that cannot currently commit (fenced or below a live
  // quorum): reads still serve from published snapshots, flagged
  // `degraded` in QueryResult.
  bool degraded() const {
    for (const PrimaryStatus& shard : shards) {
      if (shard.fenced || !shard.quorum_live) return true;
    }
    return false;
  }

  JsonValue ToJson() const;
};

struct ClusterOptions {
  // Number of instance partitions. The worker pool runs min(shards, cores)
  // threads: more threads than cores only adds context switching, and the
  // caller thread already executes one shard group of every fan-out itself.
  int shards = 4;
  // Per-shard AdeptSystem defaults (see AdeptOptions).
  StorageStrategy default_strategy = StorageStrategy::kOverlay;
  // Base durability paths; shard k appends ".shard<k>". Empty disables.
  std::string wal_path{};
  std::string snapshot_path{};
  // Durability level of each shard's group-commit WAL writer (see SyncMode
  // in storage/wal.h).
  SyncMode sync = SyncMode::kFlush;
  // Seed/policy of the shard-local drivers that plan a drive step naming no
  // driver (shard k runs with seed `driver.seed + k`).
  DriverOptions driver{};
  // Maintain per-shard secondary query indexes (src/query/README.md);
  // when off, Query() falls back to full snapshot scans.
  bool query_indexes = true;
};

class AdeptCluster : public AdeptApi {
 public:
  // Fresh cluster (ignores existing per-shard WAL/snapshot files).
  static Result<std::unique_ptr<AdeptCluster>> Create(
      const ClusterOptions& options = {});

  // Rebuilds every shard from its snapshot + WAL tail. `options.shards`
  // may differ from the writing cluster: recovery probes the per-shard
  // files on disk and, when the counts differ, performs the same
  // redistribution as Resize() — surplus durable shards are drained as
  // donors and retired, missing shards are created fresh with the
  // replicated schema history, and every instance is moved to the shard
  // the new routing assigns it (crash-window duplicates are deduped back
  // to exactly one owner). kCorruption — naming the recovered and
  // requested counts and the repair action — only when the durable state
  // is damaged beyond redistribution.
  static Result<std::unique_ptr<AdeptCluster>> Recover(
      const ClusterOptions& options);

  AdeptCluster(const AdeptCluster&) = delete;
  AdeptCluster& operator=(const AdeptCluster&) = delete;
  ~AdeptCluster() override;

  // --- Partitioning ---------------------------------------------------------

  size_t shard_count() const { return shards_.size(); }
  size_t ShardOf(InstanceId id) const { return routing_.OwnerOf(id); }
  const ShardRouting& routing() const { return routing_; }

  // --- Elastic resizing ------------------------------------------------------

  // Repartitions the live cluster onto `new_shard_count` shards in place:
  // quiesces, creates (grow) or retires (shrink) per-shard ".shard<k>"
  // WAL/snapshot files, moves every instance the new routing places
  // elsewhere via the WAL-logged export/import handover (at every crash
  // point an instance is durable on at least one shard; recovery dedups
  // the import-durable/evict-lost window back to exactly one owner),
  // re-derives the shard-affine id allocators, and checkpoints the new
  // topology. Existing work items — including claimed ones — keep their
  // WorkItemId and owner: the worklist is keyed by instance id, which a
  // move never changes. The caller must exclude concurrent facade calls
  // for the duration (same contract as Recover); schema management is
  // blocked internally via the schema lock.
  Status Resize(int new_shard_count);

  // Direct shard access (tests, benchmarks). The caller owns the
  // synchronization story when mixing this with concurrent cluster calls.
  // A shard holds no worklist: Worklist() is the cluster's only one, and
  // calling worklists() on a shard would build a second, unused one.
  AdeptSystem& shard(size_t index) { return *shards_[index]->system; }

  // Runs `fn` for every live instance, one shard at a time under that
  // shard's lock (the WithInstance discipline, extended to a full sweep).
  // Keep `fn` short: it blocks the visited shard. Prefer ForEachSnapshot
  // for monitoring/compliance sweeps that tolerate snapshot staleness.
  void ForEachInstance(
      const std::function<void(const ProcessInstance&)>& fn) const;

  // Lock-free sweep over the published snapshot of every instance (in
  // ascending instance-id order). Takes no shard lock: each instance is
  // seen at some published version, not one global point in time, and
  // `fn` may be arbitrarily slow. Implemented as a match-all Query —
  // prefer Query(predicate) when only a subset matters.
  void ForEachSnapshot(
      const std::function<void(const InstanceSnapshot&)>& fn) const;

  // Indexed predicate evaluation across every shard (the AdeptApi::Query
  // contract). The compiled predicate fans out over the atomic ReadView
  // under the same epoch-stable discipline as ForEachSnapshot, so the
  // merged result is duplicate-free across a concurrent Resize();
  // per-shard candidates come from that shard's secondary indexes.
  // kFailedPrecondition while the cluster is topology-poisoned.
  Result<QueryResult> Query(const std::string& query) const override;

  // --- Organization / worklist ----------------------------------------------

  // Cluster-level organizational model backing Worklist(). Not internally
  // synchronized: populate users/roles before serving concurrent traffic.
  // Durable as of the last SaveSnapshot(), which logs it into every
  // shard's WAL before that shard checkpoints; Recover() restores it from
  // the shards. A cluster that never checkpointed recovers an empty org:
  // repopulate it after Recover() in the same call order for stable ids.
  OrgModel& org() { return org_; }
  const OrgModel& org() const { return org_; }

  // The cluster-wide concurrent worklist service. Subscribed to every
  // shard's instance events; each claim is recorded in the claim ledger
  // and WAL of the shard that owns its instance, and Recover() re-attaches
  // them.
  WorklistService& Worklist() { return *worklist_; }

  // --- AdeptApi: schema management (fans out to every shard) ---------------

  Result<SchemaId> DeployProcessType(
      std::shared_ptr<const ProcessSchema> schema) override;
  Result<SchemaId> EvolveProcessType(SchemaId base, Delta delta) override;
  Result<SchemaId> LatestVersion(const std::string& type_name) const override;
  Result<std::shared_ptr<const ProcessSchema>> Schema(
      SchemaId id) const override;

  // --- AdeptApi: instance operations (routed to the owning shard) -----------

  // Routes `op` to its owning shard — a create to the next shard round-
  // robin, which assigns it its shard-affine id — and runs it there through
  // WriteShard, the one routed write (SubmitBatch uses it too).
  OpResult Apply(const InstanceOp& op) override;

  // Lock-free read path: resolves the owning shard through an immutable
  // routing view and fetches the instance's published snapshot without
  // taking the shard mutex — readers scale with the reader count and
  // never block behind CompleteActivity/Migrate on the same shard. The
  // lookup is epoch-checked against the routing (see ReadView below): a
  // miss observed while a Resize() is repartitioning retries until the
  // topology stabilizes, so a mid-move instance is never reported absent
  // and a retired donor shard's memory stays alive for in-flight readers.
  // Returns nullptr for an unknown id, or while the cluster is topology-
  // poisoned (ReadInstance surfaces the distinguishing error).
  std::shared_ptr<const InstanceSnapshot> SnapshotOf(
      InstanceId id) const override;
  Status ReadInstance(
      InstanceId id,
      const std::function<void(const InstanceSnapshot&)>& fn) const override;

  // Runs `fn` under the owning shard's lock, so the instance cannot be
  // mutated (or removed) while the callback reads it. Keep `fn` short: it
  // blocks every operation routed to that shard. Prefer ReadInstance
  // unless the callback needs live state a snapshot cannot give.
  Status WithInstance(
      InstanceId id,
      const std::function<void(const ProcessInstance&)>& fn) const override;

  // --- AdeptApi: dynamic change ---------------------------------------------

  Result<MigrationReport> Migrate(
      SchemaId from, SchemaId to,
      const MigrationOptions& options = {}) override;
  Result<MigrationReport> MigrateToLatest(
      const std::string& type_name,
      const MigrationOptions& options = {}) override;

  // --- AdeptApi: worklist claims and durability ------------------------------

  // RecordClaim runs under the owning shard's lock, like every record of
  // that shard's WAL (WalWriter::Truncate's exclusion contract and the
  // checkpoint rely on it).
  Result<uint64_t> RecordClaim(
      InstanceId id, NodeId node, UserId user, uint64_t epoch,
      const std::function<Status()>& transition) override;
  Status WaitClaimDurable(InstanceId id, uint64_t lsn) override;

  Status SaveSnapshot() override;

  // --- Replication (src/repl/README.md) --------------------------------------

  // Attaches one ReplicationPrimary per shard to that shard's WAL writer:
  // from here on, every commit wait means "durable on a quorum" — locally
  // per the configured SyncMode AND acked by at least options.quorum - 1
  // of the replica nodes in options.replicas (each of which serves every
  // shard on one port; see repl/replica_node.h). The failover epoch is
  // read from (or created at) "<wal_path>.replmeta"; promoting a replica
  // file set (PromoteReplicaFiles) bumps its epoch so stale lineages are
  // detected and snapshot-reset on rejoin. Requires configured WAL and
  // snapshot paths. Resize() is refused while replication is attached —
  // DetachReplication() first, resize both sides, re-attach.
  Status AttachReplication(const ReplicationOptions& options);

  // Detaches every shard's commit hook and stops the primaries (joining
  // their peer threads). In-flight quorum waits fail with kUnavailable.
  // Must not run concurrently with commit traffic. Idempotent; also runs
  // on destruction.
  void DetachReplication();

  // Failover epoch of the attached primaries; 0 when not attached.
  uint64_t replication_epoch() const { return replication_epoch_; }
  // Per-shard primary (introspection: connected_peers, quorum_acked_lsn);
  // nullptr when replication is not attached.
  ReplicationPrimary* shard_replication(size_t index) {
    return index < replication_.size() ? replication_[index].get() : nullptr;
  }

  // Snapshot of every shard's replication health (empty `shards` when
  // replication is not attached). Safe to call concurrently with commit
  // traffic; NOT concurrently with Attach/DetachReplication (same
  // quiescence contract as those calls).
  ClusterReplicationStatus ReplicationStatus() const;

  // Waits until `lsn` is durable on `shard_index` per the cluster's
  // durability contract — including the replication quorum when attached.
  // The client retry layer uses this to re-wait a maybe-applied write
  // (same routing generation) instead of re-issuing it.
  Status WaitShardDurable(size_t shard_index, uint64_t lsn);

  // --- Observers -------------------------------------------------------------

  // Subscribes to events of every shard. The observer is called from worker
  // threads (under the owning shard's lock) and must be thread-safe.
  void AddObserver(InstanceObserver* observer);

  // --- Batch execution -------------------------------------------------------

  // The batch names of the engine's op and result types, kept as aliases
  // because clients spell them (AdeptCluster::BatchOp::Create, ...).
  using BatchOp = InstanceOp;
  using BatchResult = OpResult;

  // Groups `ops` by owning shard (creates are placed round-robin first) and
  // runs WriteShard once per shard group, the groups in parallel on the
  // worker pool. Within one shard, ops run in submission order; results
  // align with `ops`. Failures are per-op: one bad op does not stop the
  // rest of its group.
  std::vector<BatchResult> SubmitBatch(const std::vector<BatchOp>& ops);

 private:
  struct Shard {
    std::unique_ptr<AdeptSystem> system;
    // Serializes this shard's engine turn. Mutable: read-only facade calls
    // (Instance, LatestVersion, ...) also lock.
    mutable std::mutex mu;
    // Next shard-affine sequence number: id = seq * N + shard_index + 1.
    uint64_t next_seq = 0;
    // Plans the drive steps that name no driver; only touched under `mu`.
    std::unique_ptr<SimulationDriver> driver;
  };

  // The readers' view of the topology: an immutable (routing, systems)
  // pair published by swapping one raw atomic pointer. A raw pointer — not
  // an atomic shared_ptr — keeps the per-read cost at one plain acquire
  // load: every published view lives until the cluster dies (old_views_),
  // and shards retired by a shrink are parked in retired_shards_ instead
  // of freed, so a reader still inside a stale view dereferences valid
  // memory. Both graveyards are bounded by the number of resizes, which
  // are rare and operator-driven. Paired with read_epoch_ — a
  // seqlock-style counter, odd while a resize is repartitioning — so a
  // miss during the unstable window retries instead of reporting a
  // mid-move instance as absent.
  struct ReadView {
    ShardRouting routing{1};
    std::vector<AdeptSystem*> systems;
  };

  explicit AdeptCluster(const ClusterOptions& options);

  // Shared scaffold of Create()/Recover(): builds shards via `make_system`
  // and sizes the worker pool.
  static Result<std::unique_ptr<AdeptCluster>> Build(
      const ClusterOptions& options,
      const std::function<Result<std::unique_ptr<AdeptSystem>>(
          const AdeptOptions&)>& make_system);

  static AdeptOptions ShardOptions(const ClusterOptions& options, int index);

  // Runs the tasks concurrently: all but the last go to the worker pool,
  // the last runs on the calling thread; returns when every task finished.
  void RunParallel(std::vector<std::function<void()>> tasks);

  // The one routed write: runs ops[group[0..count)] on shard `shard_index`
  // in order, each result into results[group[i]]. The topology and
  // writable gates refuse the whole group before any mutation. Under the
  // shard lock a create gets its shard-affine id and a drive step naming
  // no driver the shard's own, then AdeptSystem::Apply runs the op. After
  // the lock is released the group waits for durability once — only if
  // its ops enqueued a record — so distinct shards overlap engine work
  // with WAL I/O; a failed wait downgrades every op that succeeded.
  void WriteShard(size_t shard_index, const InstanceOp* ops,
                  const size_t* group, size_t count, BatchResult* results);
  // The shard `op` runs on: the owner of its id, or for a create the next
  // shard round-robin.
  size_t ShardFor(const InstanceOp& op) {
    return op.kind == InstanceOp::Kind::kCreate ? NextCreationShard()
                                                : ShardOf(op.id);
  }

  // The one shard-wide fan-out, run under schema_mu_: for every shard in
  // parallel on the worker pool, shard lock, `call(k, shard k)`, unlock,
  // then a wait until what the call enqueued is durable. Returns each
  // shard's status: the call's, or the wait's when the call succeeded.
  std::vector<Status> FanOut(
      const std::function<Status(size_t, AdeptSystem&)>& call);
  // Body of DeployProcessType/EvolveProcessType through FanOut. The same
  // failure on every shard is the caller's error; any other disagreement
  // (kInternal) or a failed durability wait poisons schema management.
  Result<SchemaId> ChangeSchema(
      const char* what,
      const std::function<Result<SchemaId>(AdeptSystem&)>& change);
  // Body of Migrate/MigrateToLatest through FanOut: merges the reports.
  Result<MigrationReport> MigrateShards(
      const std::function<Result<MigrationReport>(AdeptSystem&)>& migrate);

  // Publishes the current (routing_, shards_) pair as the readers' view.
  void PublishReadView();
  // Body of SnapshotOf/ReadInstance: the epoch-checked snapshot lookup.
  // kNotFound when the id is absent under a stable topology;
  // kFailedPrecondition when the cluster is topology-poisoned.
  Result<std::shared_ptr<const InstanceSnapshot>> FindSnapshot(
      InstanceId id) const;

  // Body of Query/ForEachSnapshot: fans the compiled predicate out to
  // every shard of the read view, retrying until the routing epoch is
  // stable across the whole collection (or sweeping best-effort once
  // topology-poisoned), then sorts the merge by instance id.
  void CollectQueryMatches(const CompiledQuery& query,
                           QueryResult* result) const;

  // --- Resize machinery (quiescent; shared by Resize and Recover) -----------

  // Copies the schema history of the first shard that has one into every
  // shard whose repository is still empty (freshly created by a grow).
  Status ReplicateSchemasToFreshShards(
      const std::vector<std::shared_ptr<Shard>>& donors);
  // Moves every instance the current routing_ places elsewhere to its
  // owner: phase 1 imports at the destinations and waits until every
  // import is durable, phase 2 evicts at the sources — so a durable evict
  // always implies a durable import, and no crash point leaves an
  // instance on zero shards. Destination-side duplicates (a crash between
  // a durable import and its evict) are not re-imported, only evicted at
  // the source. `donors` are drained completely.
  Status MoveMisplacedInstances(
      const std::vector<std::shared_ptr<Shard>>* donors);
  // Recomputes every shard's next_seq under routing_; an instance still
  // misplaced after redistribution is damage and yields the named
  // resize error (`recovered_count` feeds the message).
  Status DeriveShardAllocators(size_t recovered_count);

  // kFailedPrecondition once a Resize() failed after it started moving
  // state: the in-memory topology may disagree with the routing, so every
  // routed call refuses instead of misrouting. Recover() (the durable
  // state stays consistent — moves are WAL-logged) is the repair.
  Status CheckTopology() const;

  // Fail-fast write gate: kUnavailable (FencedStatus / NoLiveQuorumStatus,
  // distinguishable via IsFenced/IsNoQuorum) when the shard's attached
  // primary is fenced or below a live quorum — BEFORE any mutation, so
  // the caller knows the op was definitely not applied. OK when
  // replication is not attached.
  Status CheckShardWritable(size_t shard_index) const;
  // Whether any attached shard cannot commit (sets QueryResult::degraded).
  bool ReplicationDegraded() const;

  // Body of SaveSnapshot() with schema_mu_ already held (Resize
  // checkpoints while holding it): through FanOut, every shard logs the
  // org and checkpoints at once. A checkpoint holds about its file's
  // bytes, so the shards' checkpoints can run side by side.
  Status SaveSnapshotLocked();
  size_t NextCreationShard() {
    return static_cast<size_t>(rr_.fetch_add(1, std::memory_order_relaxed) %
                               shards_.size());
  }

  // Shared scaffold of Create()/Recover(): builds (or rebuilds from the
  // shards' claim ledgers) the worklist service and subscribes it to every
  // shard.
  void AttachWorklist(bool recover);

  ClusterOptions options_;
  std::vector<std::shared_ptr<Shard>> shards_;
  // The placement invariant (owner == (id-1) % N); swapped by Resize.
  ShardRouting routing_{1};
  // Readers' topology view (see ReadView). The atomic points at the
  // current entry of old_views_; superseded views stay allocated for
  // readers still inside them.
  std::atomic<const ReadView*> read_view_{nullptr};
  std::vector<std::unique_ptr<const ReadView>> old_views_;
  // Shards removed by a shrink, parked (drained, files retired) so stale
  // views keep dereferencing valid systems; freed with the cluster.
  std::vector<std::shared_ptr<Shard>> retired_shards_;
  // Seqlock-style routing epoch: even = stable, odd = a Resize() is
  // repartitioning. Bumped around the routing swap so lock-free readers
  // can tell a genuine miss from a mid-move window.
  std::atomic<uint64_t> read_epoch_{0};
  OrgModel org_;
  std::unique_ptr<WorklistService> worklist_;
  // Per-shard replication primaries (empty when not attached). Detached
  // (hooks cleared, threads joined) before shards_ is destroyed.
  std::vector<std::unique_ptr<ReplicationPrimary>> replication_;
  uint64_t replication_epoch_ = 0;
  // Everything registered via AddObserver(), so shards created by a later
  // Resize() see the same observers as the original ones.
  std::vector<InstanceObserver*> observers_;
  // Serializes schema-management fan-outs so every shard sees the identical
  // deploy/evolve/migrate sequence (identical SchemaId allocation). Also
  // taken by cross-shard reads (LatestVersion/Schema) so they never observe
  // a half-applied fan-out.
  mutable std::mutex schema_mu_;
  // Set when a fan-out failed part-way (shards now disagree on schema
  // state); all further schema management is refused. Guarded by schema_mu_.
  bool schema_poisoned_ = false;
  // Set when a Resize() failed after the routing swap; see CheckTopology.
  std::atomic<bool> topology_poisoned_{false};
  std::atomic<uint64_t> rr_{0};
  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace adept

#endif  // ADEPT_CLUSTER_ADEPT_CLUSTER_H_
