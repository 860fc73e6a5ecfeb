// Per-shard WAL replication: primary side.
//
// A ReplicationPrimary attaches to one shard's group-commit WalWriter as
// its WalCommitHook and streams every locally durable batch, in LSN order,
// to N replica peers over the net/transport.h framing. Replica acks feed a
// configurable quorum that extends WaitDurable's meaning: with
// ReplicationOptions::quorum == q, a commit wait returns once the record
// is durable on the primary's disk AND acked by at least q-1 replicas
// (the primary's own copy counts toward the quorum, so q == 1 is
// local-only durability with asynchronous shipping).
//
// Wire protocol (all payloads are single JSON objects; the frame type is
// the message discriminator — see kMsg* below):
//
//   primary -> HELLO    {"shard": k, "epoch": e, "durable": lsn}
//   replica -> STATUS   {"epoch": e', "last": lsn'}
//   primary -> RESUME   {"epoch": e, "from": lsn'}          (stream path)
//          or  SNAPSHOT {"epoch": e, "cover": c, "blob": s} (reset path)
//   replica -> ACK      {"last": lsn}
//   repeat:  primary -> BATCH {"first": l, "frames": [{"l": lsn, "p": raw}]}
//            replica -> ACK   {"last": lsn}
//
// Catch-up decision (primary, after STATUS): a peer resumes from its last
// acked LSN when the primary can still produce the frames above it (from
// the in-memory tail buffer or the on-disk WAL). It gets a full snapshot
// transfer instead when (a) its epoch disagrees with the primary's and it
// has history (a stale pre-failover lineage), (b) its last LSN exceeds
// the primary's durable LSN (divergent suffix — an old primary rejoining
// after a promotion), or (c) the frames it needs were checkpoint-
// truncated away. The snapshot reset forces a fresh checkpoint on the
// shard, ships the snapshot blob, and streaming restarts from the
// snapshot's covered LSN.
//
// Epochs: a monotonically increasing failover counter persisted in
// "<wal_base>.replmeta" next to the cluster's base WAL path. Promoting a
// replica's file set (PromoteReplicaFiles) bumps it, so a promoted
// cluster's primaries carry a higher epoch than any peer that last spoke
// to the dead primary — which is exactly the divergence signal (b)/(a)
// above. Replicas adopt the primary's epoch when they accept a RESUME or
// SNAPSHOT.
//
// What replicates: the per-shard engine WAL/snapshot pair, and with it
// the worklist claims and the org model, which ride the shard WALs (see
// src/repl/README.md for the contract).
//
// Threading: one sender thread per peer; OnDurableBatch only appends to a
// bounded in-memory tail buffer (the WalWriter contract: never block the
// drain), peers fall back to WriteAheadLog::ReadTail when the buffer no
// longer reaches back to their ack point. Stop() (or destruction) joins
// every peer thread; in-flight WaitRemote calls return kUnavailable.

#ifndef ADEPT_REPL_REPLICATION_H_
#define ADEPT_REPL_REPLICATION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
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
#include "storage/wal_writer.h"

namespace adept {

// Frame types of the replication protocol.
constexpr uint32_t kMsgHello = 1;
constexpr uint32_t kMsgStatus = 2;
constexpr uint32_t kMsgResume = 3;
constexpr uint32_t kMsgSnapshot = 4;
constexpr uint32_t kMsgBatch = 5;
constexpr uint32_t kMsgAck = 6;
constexpr uint32_t kMsgError = 7;
// Liveness probe, primary -> replica, sent when a peer is caught up and
// the stream has been idle for heartbeat_interval_ms. The replica answers
// with a normal ACK {"last": lsn}; both directions feed a HealthTracker.
constexpr uint32_t kMsgHeartbeat = 8;

// The replication layer reports every refusal as kUnavailable; these
// predicates tell the flavors apart (stable message markers, part of the
// status contract — the client retry layer keys on them):
//
//   quorum timeout — the record IS on the primary's disk but fewer than
//     quorum copies acked it: maybe-applied, survives a failover iff the
//     promoted replica's prefix covers its LSN.
//   fenced — a newer epoch owns the shard; the write was rejected before
//     any mutation: definitely-not-applied, safe to retry elsewhere.
//   no live quorum — not enough live replicas to ever reach quorum; the
//     write was rejected before any mutation: definitely-not-applied.
bool IsQuorumTimeout(const Status& status);
bool IsFenced(const Status& status);
bool IsNoQuorum(const Status& status);
Status FencedStatus(uint64_t shard, uint64_t newer_epoch, uint64_t own_epoch);
Status NoLiveQuorumStatus(uint64_t shard, int live_copies, int quorum);

struct ReplicationOptions {
  // Replica endpoints; every shard's primary dials each of them (a replica
  // node serves all shards of the cluster on one port).
  std::vector<NetEndpoint> replicas;
  // Copies — including the primary's local disk — that must hold a record
  // before a commit wait returns. 1 = local durability only (shipping is
  // asynchronous); replicas.size() + 1 = every copy. Must satisfy
  // 1 <= quorum <= replicas.size() + 1.
  int quorum = 1;
  // Per-frame read/write timeout on peer connections.
  int io_timeout_ms = 5000;
  // WaitRemote gives up (kUnavailable) after this long without a quorum.
  int ack_timeout_ms = 10000;
  // Backoff between reconnect attempts to a down peer.
  int retry_ms = 100;
  // Idle-stream liveness probe interval and the health thresholds the
  // primary applies to its replicas (alive -> suspect -> dead).
  int heartbeat_interval_ms = 250;
  int suspect_after_ms = 1000;
  int dead_after_ms = 3000;
  // Applied to every peer connection this primary dials (tests).
  FaultInjector* fault_injector = nullptr;
  // Per-peer override of fault_injector, indexed like `replicas` (tests:
  // partition one peer while the others stream normally). Entries may be
  // null; missing entries fall back to fault_injector.
  std::vector<FaultInjector*> peer_fault_injectors;
};

// Point-in-time health of one replica peer as the primary sees it.
struct PeerStatus {
  NetEndpoint endpoint;
  bool streaming = false;
  PeerHealth health = PeerHealth::kDead;
  uint64_t acked_lsn = 0;
  int64_t silence_ms = 0;
};

// Point-in-time status of one shard's replication primary — the surface
// the failover coordinator, AV013 lint rule, and tests read.
struct PrimaryStatus {
  uint64_t shard = 0;
  uint64_t epoch = 0;
  uint64_t local_durable = 0;
  uint64_t quorum_acked = 0;
  int quorum = 1;
  bool fenced = false;
  // Enough live (streaming, not dead) copies — counting the primary's
  // own — to reach the quorum.
  bool quorum_live = false;
  uint64_t tail_evictions = 0;
  size_t tail_frames = 0;
  size_t tail_bytes = 0;
  std::vector<PeerStatus> peers;

  JsonValue ToJson() const;
};

// What a ReplicationPrimary replicates: one shard's WAL + snapshot.
struct ReplicationSource {
  uint64_t shard = 0;
  // The shard's live WAL file; read (never written) for peer catch-up.
  std::string wal_path;
  // The shard's snapshot file; shipped whole on a snapshot reset. Empty
  // disables the snapshot fallback (a gapped peer then stays down).
  std::string snapshot_path;
  // Forces a fresh checkpoint of the shard (snapshot written, WAL
  // truncated) so a snapshot transfer covers everything; called from peer
  // threads, must be internally synchronized. Null: ship the file as-is.
  std::function<Status()> checkpoint;
  // This primary's failover epoch (see header comment).
  uint64_t epoch = 1;
  // The shard's locally durable LSN at attach time.
  uint64_t start_lsn = 0;
};

class ReplicationPrimary : public WalCommitHook {
 public:
  // Validates the options and starts one sender thread per replica. The
  // caller attaches the result to the shard's writer
  // (WalWriter::SetCommitHook) and must detach before destroying it.
  static Result<std::unique_ptr<ReplicationPrimary>> Start(
      ReplicationSource source, const ReplicationOptions& options);

  ~ReplicationPrimary() override;
  ReplicationPrimary(const ReplicationPrimary&) = delete;
  ReplicationPrimary& operator=(const ReplicationPrimary&) = delete;

  // Closes peer connections, joins sender threads, fails in-flight
  // WaitRemote calls with kUnavailable. Idempotent.
  void Stop();

  // WalCommitHook. OnDurableBatch buffers and returns; WaitRemote blocks
  // until quorum-1 replicas acked `lsn` or ack_timeout_ms elapsed.
  void OnDurableBatch(const std::vector<WalFrame>& frames) override;
  Status WaitRemote(uint64_t lsn) override;

  // Highest LSN acked by at least quorum-1 replicas (the remote half of
  // the quorum; local durability is the writer's durable_lsn()).
  uint64_t quorum_acked_lsn() const;
  // Peers currently past the handshake and streaming.
  int connected_peers() const;
  // Test helper: blocks until `n` peers are streaming (kUnavailable on
  // timeout).
  Status WaitForPeers(int n, int timeout_ms);

  uint64_t epoch() const { return source_.epoch; }

  // This primary observed a higher epoch on a peer: a promotion happened
  // behind its back and a newer primary owns the shard. Once fenced, every
  // WaitRemote fails fast with FencedStatus and no peer is ever snapshot-
  // reset (the one action that could destroy the newer lineage's data).
  bool fenced() const { return fenced_.load(std::memory_order_acquire); }

  // Whether enough copies (local + not-dead peers) are live to reach the
  // quorum. False = writes cannot commit; reads degrade. Health-based, not
  // connection-based: a freshly attached primary is optimistic (every
  // peer starts `alive` and only decays to `dead` after dead_after_ms of
  // real silence), and a transient reconnect does not flip the verdict.
  bool HasLiveQuorum() const;

  // Fail-fast write gate: FencedStatus when fenced, NoLiveQuorumStatus
  // when below a live quorum, OK otherwise. Callers check this BEFORE
  // mutating, so a refusal means definitely-not-applied.
  Status CheckWritable() const;

  // Frames evicted from the tail buffer before every peer acked them
  // (each one forces the affected peers onto the WAL/snapshot path).
  uint64_t tail_evictions() const;

  PrimaryStatus GetStatus() const;

 private:
  struct Peer {
    NetEndpoint endpoint;
    std::thread thread;
    // Guarded by mu_ (the connection object itself is used only by the
    // peer thread; the pointer is shared so Stop() can Close() it).
    TcpConnection* conn = nullptr;
    uint64_t acked_lsn = 0;   // guarded by mu_
    bool streaming = false;   // guarded by mu_; handshake completed
    HealthTracker health;     // internally synchronized
    FaultInjector* injector = nullptr;  // set once at construction
  };

  ReplicationPrimary(ReplicationSource source,
                     const ReplicationOptions& options);

  void PeerLoop(Peer& peer);
  // Dial, publish the connection (so Stop can close it), run the session,
  // unpublish. Returns only on a session error or stop.
  Status ConnectPeer(Peer& peer);
  // Handshake (HELLO/STATUS + catch-up negotiation) then the streaming
  // loop; runs until the connection dies or the primary stops.
  Status RunSession(Peer& peer, TcpConnection& conn);
  // The catch-up decision for a fresh session (see header comment).
  Status NegotiateSession(Peer& peer, TcpConnection& conn,
                          uint64_t replica_epoch, uint64_t replica_last);
  // Checkpoint + ship the snapshot blob; leaves the peer acked at the
  // snapshot's covered LSN.
  Status SendSnapshotReset(Peer& peer, TcpConnection& conn);
  // One BATCH/ACK round trip; frames must be contiguous from acked+1.
  Status SendBatch(Peer& peer, TcpConnection& conn,
                   const std::vector<WalFrame>& frames);
  // One HEARTBEAT/ACK round trip (idle stream liveness probe).
  Status SendHeartbeat(Peer& peer, TcpConnection& conn);
  // Collects the next frames for `peer` from the tail buffer or the WAL
  // file; empty when the peer is caught up. kCorruption-class gaps
  // trigger a snapshot reset inside.
  Result<std::vector<WalFrame>> CollectFrames(Peer& peer,
                                              TcpConnection& conn);
  // Marks this primary fenced (a newer epoch was observed on `peer`).
  Status FenceSelf(const Peer& peer, uint64_t newer_epoch);

  const ReplicationSource source_;
  const ReplicationOptions options_;

  mutable std::mutex mu_;
  std::condition_variable frames_cv_;  // new durable frames / stop
  std::condition_variable acks_cv_;    // peer acks / connects / stop
  std::deque<WalFrame> tail_;          // guarded by mu_; bounded
  size_t tail_bytes_ = 0;              // guarded by mu_
  uint64_t tail_evictions_ = 0;        // guarded by mu_
  uint64_t local_durable_ = 0;         // guarded by mu_
  bool stopping_ = false;              // guarded by mu_
  std::atomic<bool> fenced_{false};
  std::atomic<uint64_t> fenced_by_{0};  // the newer epoch that fenced us
  std::vector<std::unique_ptr<Peer>> peers_;
};

// The failover epoch file of the file set at `wal_base`:
// "<wal_base>.replmeta", holding {"epoch": e}.
std::string ReplicationEpochPath(const std::string& wal_base);

// Reads the failover epoch persisted at ReplicationEpochPath(wal_base);
// writes and returns epoch 1 when the file does not exist yet.
Result<uint64_t> ReadReplicationEpoch(const std::string& wal_base);

// Atomically (re)writes the epoch file with `epoch`.
Status WriteReplicationEpoch(const std::string& wal_base, uint64_t epoch);

// Promotion: bumps the failover epoch of the file set at `wal_base`
// (a stopped replica's — or a recovering primary's — base WAL path) and
// returns the new epoch, at least `at_least` (a coordinator that saw a
// higher epoch elsewhere in the cluster passes it so the promoted lineage
// dominates every older one). The caller then runs AdeptCluster::Recover
// over these paths and re-attaches replication; any peer that last spoke
// to the previous primary now fails the epoch check and is snapshot-
// reset, which is how a divergent unacked suffix on a rejoining old
// primary is discarded.
Result<uint64_t> PromoteReplicaFiles(const std::string& wal_base,
                                     uint64_t at_least = 0);

}  // namespace adept

#endif  // ADEPT_REPL_REPLICATION_H_
