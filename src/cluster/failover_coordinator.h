// FailoverCoordinator: automatic, coordinated promotion for a replicated
// AdeptCluster — the in-process harness form of the control plane a real
// deployment would run as a separate service.
//
// It owns the whole replication topology: the primary AdeptCluster and N
// standby ReplicationReplica nodes (each with its own on-disk file set
// under options.data_dir). A monitor thread polls every live standby's
// PrimaryHealth() verdict — which is driven purely by the heartbeat/
// batch traffic of src/repl, not by coordinator-internal knowledge — and
// when a strict majority of live standbys has assessed the primary dead
// for `confirm_polls` consecutive polls, it runs the promotion protocol:
//
//   1. refuse unless live standbys >= quorum (a minority island must
//      degrade, not elect — this is the split-brain guard);
//   2. stop the live standbys (their file sets quiesce);
//   3. probe each standby's per-shard durable LSN from disk and pick the
//      promotion target = the node with the longest acked prefix overall;
//      for any shard where another standby is longer, copy that shard's
//      WAL + snapshot files onto the target (per-shard longest-prefix
//      assembly — acked writes survive even when no single node saw
//      every shard's maximum);
//   4. PromoteReplicaFiles(target, at_least = max known epoch + 1): the
//      new lineage's epoch dominates every older one, so the old primary
//      is fenced at its first HELLO if it ever comes back;
//   5. AdeptCluster::Recover over the target file set, restart the other
//      standbys, AttachReplication to them;
//   6. publish the new PrimaryView (version + 1, new epoch, the per-shard
//      recovered LSN) — clients re-resolve and reconcile through it.
//
// Chaos controls (KillPrimary / KillReplica / RestartReplica / the
// promotion-stage hook) let a deterministic test script deaths at exact
// protocol points; ResurrectOldPrimary / RejoinOldPrimaryAsReplica
// exercise the two rejoin paths of a dead lineage's file set.
//
// Worklist claims and the org model ride the shard WALs (per
// src/repl/README.md), so a promotion keeps every claim whose record
// reached the target and re-derives offers from the recovered instance
// state.

#ifndef ADEPT_CLUSTER_FAILOVER_COORDINATOR_H_
#define ADEPT_CLUSTER_FAILOVER_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/adept_cluster.h"
#include "cluster/cluster_client.h"
#include "repl/replica_node.h"
#include "repl/replication.h"

namespace adept {

struct FailoverOptions {
  // Shard count / strategy / sync of every lineage; wal_path and
  // snapshot_path name the FOUNDING primary's file set (standby file sets
  // derive from data_dir).
  ClusterOptions cluster;
  // Standby node count and the commit quorum (copies including the
  // primary's local disk; see ReplicationOptions::quorum).
  int replicas = 3;
  int quorum = 2;
  // Directory for standby file sets: node i lives at
  // "<data_dir>/node<i>.wal" / "<data_dir>/node<i>.snapshot".
  std::string data_dir;
  // Replication transport/health knobs applied to every lineage's
  // primaries (replicas/quorum are overwritten by the coordinator). The
  // suspect/dead thresholds also configure the standby nodes' verdict on
  // their primary, so both sides of the health state machine agree.
  ReplicationOptions repl;
  // Durability of standby appends (an ack is only as strong as this).
  SyncMode replica_sync = SyncMode::kFlush;
  // Per-standby-NODE fault injectors (chaos scripting): index i applies
  // to node i regardless of its position in the current peer list across
  // promotions/rejoins. `send` intercepts the primary's frames toward
  // node i (the coordinator rebuilds repl.peer_fault_injectors from this
  // on every attach — do not set that field directly); `ack` intercepts
  // node i's frames back toward the primary. Injectors must outlive the
  // coordinator.
  std::vector<FaultInjector*> node_send_injectors;
  std::vector<FaultInjector*> node_ack_injectors;
  // Monitor cadence: poll every standby's PrimaryHealth() at this
  // interval, and require this many consecutive all-dead polls before
  // promoting (debounces a single missed heartbeat edge).
  int poll_interval_ms = 50;
  int confirm_polls = 2;
  // When false the monitor only observes; Promote() must be called
  // explicitly (tests that script the exact promotion moment).
  bool auto_promote = true;
};

class FailoverCoordinator : public PrimaryResolver {
 public:
  // Creates the founding primary (AdeptCluster::Create over
  // options.cluster), starts the standby nodes, attaches replication,
  // publishes view version 1, and starts the monitor thread.
  static Result<std::unique_ptr<FailoverCoordinator>> Start(
      const FailoverOptions& options);

  ~FailoverCoordinator() override;
  FailoverCoordinator(const FailoverCoordinator&) = delete;
  FailoverCoordinator& operator=(const FailoverCoordinator&) = delete;

  // Joins the monitor, detaches the current primary's replication and
  // stops every standby. Idempotent; also runs on destruction. The
  // caller must have quiesced client traffic.
  void Stop();

  // --- PrimaryResolver ------------------------------------------------------

  PrimaryView View() override;
  uint64_t SurvivorWatermark(uint64_t version, size_t shard) override;

  // --- Chaos controls (deterministic fault scripting) -----------------------

  // Simulated primary crash: stops the current lineage's shard primaries
  // (heartbeats cease, in-flight quorum waits fail kUnavailable) but
  // keeps the object alive for in-flight callers — writes applied after
  // the kill become the divergent unacked suffix a rejoin discards. The
  // routing view keeps naming the dead lineage until a promotion
  // replaces it (reads against it serve, flagged degraded).
  Status KillPrimary();

  // Stops standby `node` (its health decays to dead at the primaries).
  Status KillReplica(int node);
  // Restarts a killed standby on its original port, so the attached
  // primaries' reconnect loop finds it again without a re-attach.
  Status RestartReplica(int node);

  bool ReplicaRunning(int node) const;
  int replica_count() const;

  // Called (without coordinator locks held) at each promotion stage:
  // "begin", "selected", "promoted-files", "recovered", "attached".
  // A test hook may KillReplica() here to script a death mid-promotion.
  void SetPromotionHook(std::function<void(const std::string&)> hook);

  // --- Promotion ------------------------------------------------------------

  // Runs the promotion protocol now (the monitor calls this; tests with
  // auto_promote=false call it directly). kUnavailable without touching
  // anything when live standbys < quorum. Serialized: concurrent calls
  // queue, and a second call after a successful promotion is a no-op
  // returning the current view (the primary it would depose is alive).
  Result<PrimaryView> Promote();

  // Blocks until the view version exceeds `last_version` (a completed
  // promotion) or the timeout elapses (kUnavailable).
  Result<PrimaryView> WaitForFailover(uint64_t last_version, int timeout_ms);

  // Promotions completed so far (view version - 1).
  uint64_t promotions() const;

  // --- Rejoin paths for a deposed lineage's file set ------------------------

  // Restarts the previous primary's file set AS A PRIMARY — recovery +
  // AttachReplication to the current standbys — modelling an operator
  // (or a partition heal) bringing the old node back unaware it was
  // deposed. Its epoch is stale, so the standbys reject its HELLO and it
  // self-fences: writes against the returned cluster fail with
  // IsFenced(). The coordinator keeps the object alive; call
  // RejoinOldPrimaryAsReplica() to convert it to a standby. The caller
  // must not retain the returned pointer past that call.
  Result<std::shared_ptr<AdeptCluster>> ResurrectOldPrimary();

  // Converts the previous primary's file set into a new standby node:
  // releases every handle on it, starts a ReplicationReplica over its
  // paths, and re-attaches the current primary's replication to include
  // it. The stale lineage (epoch check at the resume handshake) is
  // snapshot-reset, which discards its divergent unacked suffix. The
  // caller must have quiesced writes (AttachReplication contract); the
  // node is appended, so replica_count() grows by one.
  Status RejoinOldPrimaryAsReplica();

 private:
  struct Node {
    std::string wal_path;
    std::string snapshot_path;
    std::unique_ptr<ReplicationReplica> replica;  // null while not running
    bool running = false;
    // Assigned at first start; restarts rebind it (SO_REUSEADDR).
    uint16_t port = 0;
    // This node's file set was promoted: it IS the current primary and
    // cannot serve as a standby again until deposed and rejoined.
    bool promoted = false;
  };

  explicit FailoverCoordinator(const FailoverOptions& options);

  void MonitorLoop();
  // Strict majority of live standbys says dead AND live >= quorum.
  bool PrimaryAssessedDead();

  // mu_ held: replication options naming every running standby.
  ReplicationOptions BuildReplOptionsLocked() const;
  // mu_ held: starts (or restarts) node `i`'s ReplicationReplica.
  Status StartNodeLocked(int i);

  // Durable LSN of `shard` in the file set at (wal, snapshot), read from
  // disk: max(snapshot covered LSN, last complete WAL frame). Used on
  // quiesced standby file sets during promotion.
  static Result<uint64_t> ShardDurableLsnOnDisk(const std::string& wal_base,
                                                const std::string& snap_base,
                                                uint64_t shard);
  static Status CopyFile(const std::string& from, const std::string& to);

  void RunHook(const std::string& stage);

  const FailoverOptions options_;

  mutable std::mutex mu_;
  PrimaryView view_;                       // guarded by mu_
  std::vector<Node> nodes_;                // guarded by mu_
  // File-set base paths of the lineage view_ names.
  std::string primary_wal_, primary_snapshot_;  // guarded by mu_
  // Per-promotion (version, recovered_lsn) records backing
  // SurvivorWatermark(). Bounded by the promotion count.
  std::vector<std::pair<uint64_t, std::vector<uint64_t>>> history_;
  // The deposed lineage: kept alive (in-flight callers), released when
  // its file set rejoins. paths empty = no deposed lineage outstanding.
  std::shared_ptr<AdeptCluster> old_primary_;          // guarded by mu_
  std::string old_primary_wal_, old_primary_snapshot_; // guarded by mu_
  uint64_t old_primary_epoch_ = 0;                     // guarded by mu_
  std::shared_ptr<AdeptCluster> resurrected_;          // guarded by mu_
  bool primary_alive_ = true;                          // guarded by mu_

  std::mutex hook_mu_;
  std::function<void(const std::string&)> hook_;  // guarded by hook_mu_

  // Serializes the promotion protocol itself (mu_ is released during the
  // slow file/recovery work so chaos controls and View() stay live).
  std::mutex promote_mu_;

  std::atomic<bool> stopping_{false};
  std::thread monitor_;
};

}  // namespace adept

#endif  // ADEPT_CLUSTER_FAILOVER_COORDINATOR_H_
