// Per-shard WAL replication: replica side.
//
// A ReplicationReplica is one standby *node*: it listens on one TCP port
// and serves a replication session per shard of the cluster that dials it
// (the session's HELLO names the shard). Received WAL batches are
// appended — as the exact raw frames the primary persisted — to this
// node's own per-shard WAL files ("<wal_path>.shard<k>", the same naming
// AdeptCluster uses), synced per the configured SyncMode, and acked; a
// SNAPSHOT message resets the shard (WAL deleted, blob installed at
// "<snapshot_path>.shard<k>") before streaming resumes from the covered
// LSN.
//
// Because the replica's file set *is* a valid AdeptCluster file set,
// promotion is nothing special: Stop() the node, bump the failover epoch
// with PromoteReplicaFiles(wal_path), and run AdeptCluster::Recover over
// the same base paths — recovery replays whatever prefix this node had
// acked. See src/repl/README.md for the full failover walk-through.
//
// Contiguity: a session only accepts a BATCH frame whose LSN is exactly
// last+1 for its shard; anything else ends the session with an ERROR
// frame, and the primary's re-handshake (resume from the acked LSN, or
// snapshot reset) repairs the stream. Two sessions may target the same
// shard during a failover overlap; per-shard state is mutex-guarded so
// the log never interleaves torn writes.

#ifndef ADEPT_REPL_REPLICA_NODE_H_
#define ADEPT_REPL_REPLICA_NODE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "net/transport.h"
#include "repl/health.h"
#include "storage/wal.h"

namespace adept {

struct ReplicaNodeOptions {
  // Listen endpoint; port 0 picks an ephemeral port (see port()).
  NetEndpoint listen;
  // Base paths of this node's durable file set; shard k's files live at
  // "<path>.shard<k>" (AdeptCluster naming, so Recover() promotes them).
  std::string wal_path;
  std::string snapshot_path;
  // Durability applied to every received batch before it is acked. An ack
  // under kFsync means "on this replica's disk" — quorum durability at
  // the primary is only as strong as this mode.
  SyncMode sync = SyncMode::kFlush;
  // Per-frame read/write timeout inside a session.
  int io_timeout_ms = 5000;
  // Health thresholds this node applies to the primary it hears from
  // (every received frame — batches and heartbeats alike — is a proof of
  // liveness; see PrimaryHealth()).
  int suspect_after_ms = 1000;
  int dead_after_ms = 3000;
  // Applied to accepted connections, i.e. this node's outgoing STATUS/ACK
  // frames (fault-testing the ack direction).
  FaultInjector* fault_injector = nullptr;
};

class ReplicationReplica {
 public:
  // Binds the listener, loads the persisted failover epoch (creating the
  // meta file at epoch 0 semantics: a fresh replica reports epoch 0 until
  // its first session), and starts the accept thread.
  static Result<std::unique_ptr<ReplicationReplica>> Start(
      const ReplicaNodeOptions& options);

  ~ReplicationReplica();
  ReplicationReplica(const ReplicationReplica&) = delete;
  ReplicationReplica& operator=(const ReplicationReplica&) = delete;

  // Closes the listener and every session, joins all threads. After Stop
  // the file set is quiescent — safe to promote. Idempotent.
  void Stop();

  uint16_t port() const;

  // Introspection (tests): last contiguous LSN applied for `shard` (0 if
  // the shard never received anything) and the node's current epoch.
  uint64_t ShardLastLsn(uint64_t shard) const;
  uint64_t epoch() const;

  // This node's verdict on its primary: silence across every session
  // (no batch, no heartbeat) degrades alive -> suspect -> dead per the
  // configured thresholds. A node that never heard from any primary
  // reports its silence since startup — a standby with no master is
  // exactly as concerning as one whose master just died.
  PeerHealth PrimaryHealth() const {
    return primary_health_.Assess(options_.suspect_after_ms,
                                  options_.dead_after_ms);
  }

 private:
  // Durable state of one shard stream.
  struct ShardState {
    std::mutex mu;
    std::unique_ptr<WriteAheadLog> wal;  // guarded by mu
    uint64_t last_lsn = 0;               // guarded by mu
  };

  explicit ReplicationReplica(const ReplicaNodeOptions& options);

  void AcceptLoop();
  void SessionLoop(TcpConnection* conn);
  ShardState* GetShard(uint64_t shard);
  Status HandleBatch(ShardState& state, const JsonValue& body,
                     uint64_t* acked);
  Status HandleSnapshot(uint64_t shard, ShardState& state,
                        const JsonValue& body, uint64_t* acked);
  Status PersistEpoch(uint64_t epoch);

  const ReplicaNodeOptions options_;
  std::unique_ptr<TcpListener> listener_;
  std::thread accept_thread_;

  mutable std::mutex mu_;
  bool stopping_ = false;                            // guarded by mu_
  uint64_t epoch_ = 0;                               // guarded by mu_
  std::map<uint64_t, std::unique_ptr<ShardState>> shards_;  // guarded by mu_
  // Sessions: the connection (owned) + its thread, reaped on Stop.
  struct Session {
    std::unique_ptr<TcpConnection> conn;
    std::thread thread;
  };
  std::vector<std::unique_ptr<Session>> sessions_;   // guarded by mu_
  HealthTracker primary_health_;  // internally synchronized
};

}  // namespace adept

#endif  // ADEPT_REPL_REPLICA_NODE_H_
