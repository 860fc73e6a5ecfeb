// Replication fault matrix (see src/repl/README.md):
//
//   - loopback quorum commits reach every replica (the CI smoke row)
//   - primary crash + promote: acked writes survive on the promoted
//     replica, the stale replica converges to the new lineage
//   - crash after local fsync but before quorum: the commit wait reports
//     kUnavailable, yet recovering the primary's own files keeps the record
//   - replica disconnect mid-batch (torn frame / hard disconnect): the
//     primary reconnects and resumes from the acked prefix
//   - lost ACK: the batch applied but unacknowledged is reconciled by the
//     resume handshake, not re-applied
//   - stale replica whose frames were checkpoint-truncated away catches up
//     via full snapshot transfer
//   - promote-then-old-primary-rejoins: the divergent unacked suffix is
//     detected by the epoch/LSN check and discarded via snapshot reset

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/adept_cluster.h"
#include "repl/replica_node.h"
#include "repl/replication.h"
#include "tests/test_fixtures.h"

namespace adept {
namespace {

using testing_fixtures::SequenceSchema;

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("adept_repl_test_" + std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string File(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  static int counter_;
  std::filesystem::path path_;
};

int TempDir::counter_ = 0;

ClusterOptions PrimaryOptions(const TempDir& dir, int shards,
                              const std::string& name = "primary") {
  ClusterOptions options;
  options.shards = shards;
  options.wal_path = dir.File(name + ".wal");
  options.snapshot_path = dir.File(name + ".snapshot");
  return options;
}

std::unique_ptr<ReplicationReplica> StartReplica(
    const TempDir& dir, const std::string& name,
    FaultInjector* ack_faults = nullptr) {
  ReplicaNodeOptions options;
  options.wal_path = dir.File(name + ".wal");
  options.snapshot_path = dir.File(name + ".snapshot");
  options.fault_injector = ack_faults;
  auto replica = ReplicationReplica::Start(options);
  EXPECT_TRUE(replica.ok()) << replica.status();
  return replica.ok() ? std::move(*replica) : nullptr;
}

ReplicationOptions ReplOptions(const std::vector<uint16_t>& ports, int quorum) {
  ReplicationOptions options;
  for (uint16_t port : ports) {
    options.replicas.push_back({.host = "127.0.0.1", .port = port});
  }
  options.quorum = quorum;
  options.retry_ms = 20;
  options.io_timeout_ms = 2000;
  options.ack_timeout_ms = 8000;
  return options;
}

uint64_t DurableLsn(AdeptCluster& cluster, size_t shard) {
  return cluster.shard(shard).wal_writer()->durable_lsn();
}

// Polls until `replica` applied everything `cluster` holds durable, on
// every shard.
bool WaitConverged(AdeptCluster& cluster, const ReplicationReplica& replica,
                   int shards, int timeout_ms = 15000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    bool converged = true;
    for (int k = 0; k < shards; ++k) {
      if (replica.ShardLastLsn(static_cast<uint64_t>(k)) <
          DurableLsn(cluster, static_cast<size_t>(k))) {
        converged = false;
      }
    }
    if (converged) return true;
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

std::vector<InstanceId> CreateMany(AdeptCluster& cluster, int n) {
  std::vector<InstanceId> ids;
  for (int i = 0; i < n; ++i) {
    auto id = cluster.CreateInstance("seq");
    EXPECT_TRUE(id.ok()) << id.status();
    if (id.ok()) ids.push_back(*id);
  }
  return ids;
}

void DriveRounds(AdeptCluster& cluster, const std::vector<InstanceId>& ids,
                 int rounds) {
  std::vector<AdeptCluster::BatchOp> steps;
  for (InstanceId id : ids) {
    steps.push_back(AdeptCluster::BatchOp::DriveStep(id));
  }
  for (int round = 0; round < rounds; ++round) {
    for (const auto& result : cluster.SubmitBatch(steps)) {
      EXPECT_TRUE(result.status.ok()) << result.status;
    }
  }
}

size_t TraceEvents(AdeptCluster& cluster, InstanceId id) {
  size_t events = 0;
  Status st = cluster.WithInstance(id, [&](const ProcessInstance& instance) {
    events = instance.trace().events().size();
  });
  EXPECT_TRUE(st.ok()) << st;
  return events;
}

size_t CountInstances(AdeptCluster& cluster) {
  size_t count = 0;
  cluster.ForEachSnapshot([&](const InstanceSnapshot&) { ++count; });
  return count;
}

// Promotion: bump the file set's epoch and recover a cluster over it.
Result<std::unique_ptr<AdeptCluster>> PromoteToCluster(
    const std::string& wal_base, const std::string& snapshot_base,
    int shards) {
  ADEPT_RETURN_IF_ERROR(PromoteReplicaFiles(wal_base).status());
  ClusterOptions options;
  options.shards = shards;
  options.wal_path = wal_base;
  options.snapshot_path = snapshot_base;
  return AdeptCluster::Recover(options);
}

TEST(ReplicationTest, EpochMetaRoundTrip) {
  TempDir dir;
  const std::string base = dir.File("shard.wal");
  auto first = ReadReplicationEpoch(base);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(*first, 1u);  // created on first read
  auto again = ReadReplicationEpoch(base);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 1u);
  auto promoted = PromoteReplicaFiles(base);
  ASSERT_TRUE(promoted.ok()) << promoted.status();
  EXPECT_EQ(*promoted, 2u);
  auto read_back = ReadReplicationEpoch(base);
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(*read_back, 2u);
}

// The loopback smoke row: 1 primary (2 shards), 2 replicas, quorum = 2.
// Every commit waits for at least one replica ack; both replicas converge
// to the primary's durable LSN on every shard.
TEST(ReplicationTest, QuorumCommitsReachBothReplicas) {
  TempDir dir;
  auto replica1 = StartReplica(dir, "replica1");
  auto replica2 = StartReplica(dir, "replica2");
  ASSERT_NE(replica1, nullptr);
  ASSERT_NE(replica2, nullptr);

  auto cluster = AdeptCluster::Create(PrimaryOptions(dir, 2));
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  ASSERT_TRUE((*cluster)
                  ->AttachReplication(
                      ReplOptions({replica1->port(), replica2->port()}, 2))
                  .ok());
  EXPECT_EQ((*cluster)->replication_epoch(), 1u);

  ASSERT_TRUE((*cluster)->DeployProcessType(SequenceSchema(6)).ok());
  std::vector<InstanceId> ids = CreateMany(**cluster, 8);
  ASSERT_EQ(ids.size(), 8u);
  DriveRounds(**cluster, ids, 3);

  EXPECT_TRUE(WaitConverged(**cluster, *replica1, 2));
  EXPECT_TRUE(WaitConverged(**cluster, *replica2, 2));
  // Both replicas adopted the primary's epoch on their first session.
  EXPECT_EQ(replica1->epoch(), 1u);
  EXPECT_EQ(replica2->epoch(), 1u);
  for (size_t k = 0; k < 2; ++k) {
    ASSERT_NE((*cluster)->shard_replication(k), nullptr);
    EXPECT_EQ((*cluster)->shard_replication(k)->quorum_acked_lsn(),
              DurableLsn(**cluster, k));
  }
  (*cluster)->DetachReplication();
  EXPECT_EQ((*cluster)->shard_replication(0), nullptr);
}

// Tail trimming: with quorum = every copy, each commit returns only after
// both peers acked it, so the next durable batch drops everything before
// it and the tail never holds more than the newest batch.
TEST(ReplicationTest, AckedTailFramesAreDropped) {
  TempDir dir;
  auto replica1 = StartReplica(dir, "replica1");
  auto replica2 = StartReplica(dir, "replica2");
  ASSERT_NE(replica1, nullptr);
  ASSERT_NE(replica2, nullptr);
  auto cluster = AdeptCluster::Create(PrimaryOptions(dir, 1));
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  ASSERT_TRUE((*cluster)
                  ->AttachReplication(
                      ReplOptions({replica1->port(), replica2->port()}, 3))
                  .ok());
  ASSERT_TRUE((*cluster)->DeployProcessType(SequenceSchema(4)).ok());
  std::vector<InstanceId> ids = CreateMany(**cluster, 10);
  ASSERT_EQ(ids.size(), 10u);
  const uint64_t before = DurableLsn(**cluster, 0);
  ASSERT_EQ(CreateMany(**cluster, 1).size(), 1u);
  const uint64_t last_batch = DurableLsn(**cluster, 0) - before;
  ASSERT_GT(last_batch, 0u);

  PrimaryStatus status = (*cluster)->shard_replication(0)->GetStatus();
  EXPECT_LE(status.tail_frames, last_batch);
  EXPECT_LT(status.tail_frames, DurableLsn(**cluster, 0));
  EXPECT_EQ(status.tail_evictions, 0u);
}

// A peer that acks nothing (nobody listens on its port) pins every frame
// written since replication was attached, even though the live peer acked
// them all; nothing is evicted below the caps.
TEST(ReplicationTest, LaggingPeerPinsTailFrames) {
  TempDir dir;
  auto replica = StartReplica(dir, "replica1");
  ASSERT_NE(replica, nullptr);
  uint16_t dead_port;
  {
    auto listener = TcpListener::Bind({.host = "127.0.0.1", .port = 0});
    ASSERT_TRUE(listener.ok());
    dead_port = (*listener)->port();
    (*listener)->Close();
  }
  auto cluster = AdeptCluster::Create(PrimaryOptions(dir, 1));
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  ASSERT_TRUE((*cluster)
                  ->AttachReplication(
                      ReplOptions({replica->port(), dead_port}, 2))
                  .ok());
  const uint64_t attached_at = DurableLsn(**cluster, 0);
  ASSERT_TRUE((*cluster)->DeployProcessType(SequenceSchema(4)).ok());
  std::vector<InstanceId> ids = CreateMany(**cluster, 10);
  ASSERT_EQ(ids.size(), 10u);
  ASSERT_TRUE(WaitConverged(**cluster, *replica, 1));

  PrimaryStatus status = (*cluster)->shard_replication(0)->GetStatus();
  EXPECT_EQ(status.tail_frames, DurableLsn(**cluster, 0) - attached_at);
  EXPECT_EQ(status.tail_evictions, 0u);
}

// The acceptance scenario: kill the primary, promote a replica, verify
// every acked write; then the stale second replica converges to the
// promoted lineage (epoch bump forces the reset path) and keeps serving.
TEST(ReplicationTest, KillPrimaryPromoteReplicaStaleReplicaConverges) {
  TempDir dir;
  auto replica1 = StartReplica(dir, "replica1");
  auto replica2 = StartReplica(dir, "replica2");
  ASSERT_NE(replica1, nullptr);
  ASSERT_NE(replica2, nullptr);

  std::vector<InstanceId> ids;
  std::vector<size_t> events;
  {
    auto cluster = AdeptCluster::Create(PrimaryOptions(dir, 2));
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    ASSERT_TRUE((*cluster)
                    ->AttachReplication(
                        ReplOptions({replica1->port(), replica2->port()}, 2))
                    .ok());
    ASSERT_TRUE((*cluster)->DeployProcessType(SequenceSchema(6)).ok());
    ids = CreateMany(**cluster, 6);
    ASSERT_EQ(ids.size(), 6u);
    DriveRounds(**cluster, ids, 2);
    // Quorum = 2 guarantees one replica per commit; for a deterministic
    // promotion target, wait until replica1 holds the full prefix.
    ASSERT_TRUE(WaitConverged(**cluster, *replica1, 2));
    for (InstanceId id : ids) events.push_back(TraceEvents(**cluster, id));
  }  // primary killed (destroyed without any further checkpoint)

  // Promote replica1's file set and recover a cluster over it.
  replica1->Stop();
  auto promoted = PromoteToCluster(dir.File("replica1.wal"),
                                   dir.File("replica1.snapshot"), 2);
  ASSERT_TRUE(promoted.ok()) << promoted.status();
  EXPECT_EQ(*ReadReplicationEpoch(dir.File("replica1.wal")), 2u);

  // Every acked write is present with the exact same trace.
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(TraceEvents(**promoted, ids[i]), events[i])
        << "instance " << ids[i];
  }

  // The stale replica2 (last spoke to the dead primary, epoch 1) rejoins
  // the promoted primary (epoch 2): divergence check fires, snapshot
  // reset brings it onto the new lineage.
  ASSERT_TRUE(
      (*promoted)->AttachReplication(ReplOptions({replica2->port()}, 2)).ok());
  EXPECT_EQ((*promoted)->replication_epoch(), 2u);
  std::vector<InstanceId> more = CreateMany(**promoted, 4);
  ASSERT_EQ(more.size(), 4u);
  DriveRounds(**promoted, more, 2);
  EXPECT_TRUE(WaitConverged(**promoted, *replica2, 2));
  EXPECT_EQ(replica2->epoch(), 2u);  // adopted the promoted lineage
}

// Crash after local fsync but before quorum: with an unreachable replica
// the commit wait reports kUnavailable — yet the record made the local
// disk, so recovering the primary's own files keeps it. Both durability
// verdicts are honest: "not quorum-durable" at commit time, "locally
// durable" after recovery.
TEST(ReplicationTest, LocalFsyncWithoutQuorumFailsTheWaitButSurvivesLocally) {
  TempDir dir;
  // Reserve a port nobody listens on.
  uint16_t dead_port;
  {
    auto listener = TcpListener::Bind({.host = "127.0.0.1", .port = 0});
    ASSERT_TRUE(listener.ok());
    dead_port = (*listener)->port();
    (*listener)->Close();
  }
  ClusterOptions options = PrimaryOptions(dir, 1);
  size_t survivors = 0;
  {
    auto cluster = AdeptCluster::Create(options);
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    ASSERT_TRUE((*cluster)->DeployProcessType(SequenceSchema(3)).ok());
    ReplicationOptions repl = ReplOptions({dead_port}, 2);
    repl.ack_timeout_ms = 300;
    ASSERT_TRUE((*cluster)->AttachReplication(repl).ok());
    auto id = (*cluster)->CreateInstance("seq");
    ASSERT_FALSE(id.ok());
    EXPECT_EQ(id.status().code(), StatusCode::kUnavailable) << id.status();
  }  // crash
  auto recovered = AdeptCluster::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  survivors = CountInstances(**recovered);
  EXPECT_EQ(survivors, 1u);  // locally durable despite the failed quorum
}

// Mid-stream connection faults on the primary->replica direction: a torn
// frame and a hard disconnect. Commits keep succeeding (the peer thread
// reconnects and resumes from the acked prefix within the ack timeout)
// and the replica ends byte-exact with the primary.
TEST(ReplicationTest, ResumesAfterTornFrameAndDisconnect) {
  TempDir dir;
  auto replica = StartReplica(dir, "replica");
  ASSERT_NE(replica, nullptr);

  ScriptedFaultInjector faults;
  faults.Set(4, FaultInjector::Action::kTruncate, 10);
  faults.Set(9, FaultInjector::Action::kDisconnect);

  auto cluster = AdeptCluster::Create(PrimaryOptions(dir, 1));
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  // Deploy before attaching so catch-up starts from the WAL file (the
  // tail buffer only holds frames that became durable after attach).
  ASSERT_TRUE((*cluster)->DeployProcessType(SequenceSchema(4)).ok());
  ReplicationOptions repl = ReplOptions({replica->port()}, 2);
  repl.fault_injector = &faults;
  ASSERT_TRUE((*cluster)->AttachReplication(repl).ok());

  std::vector<InstanceId> ids = CreateMany(**cluster, 20);
  ASSERT_EQ(ids.size(), 20u);  // every quorum wait succeeded despite faults
  DriveRounds(**cluster, ids, 2);
  EXPECT_GT(faults.frames_seen(), 9u);  // both faults actually fired
  EXPECT_TRUE(WaitConverged(**cluster, *replica, 1));
  (*cluster)->DetachReplication();

  // The replica's file set recovers to the same instances.
  replica->Stop();
  auto promoted = PromoteToCluster(dir.File("replica.wal"),
                                   dir.File("replica.snapshot"), 1);
  ASSERT_TRUE(promoted.ok()) << promoted.status();
  EXPECT_EQ(CountInstances(**promoted), 20u);
}

// A dropped ACK leaves the replica ahead of what the primary believes:
// the batch applied but the acknowledgement vanished. The reconnect
// handshake reconciles via STATUS/RESUME — the replica's contiguity check
// guarantees nothing is applied twice.
TEST(ReplicationTest, LostAckReconcilesOnResume) {
  TempDir dir;
  ScriptedFaultInjector ack_faults;
  // Replica frame 0 is STATUS, 1 the first ACK; drop a later ACK.
  ack_faults.Set(3, FaultInjector::Action::kDrop);
  auto replica = StartReplica(dir, "replica", &ack_faults);
  ASSERT_NE(replica, nullptr);

  auto cluster = AdeptCluster::Create(PrimaryOptions(dir, 1));
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  ReplicationOptions repl = ReplOptions({replica->port()}, 2);
  repl.io_timeout_ms = 300;  // the lost ACK surfaces as a fast read timeout
  ASSERT_TRUE((*cluster)->AttachReplication(repl).ok());
  ASSERT_TRUE((*cluster)->DeployProcessType(SequenceSchema(4)).ok());
  std::vector<InstanceId> ids = CreateMany(**cluster, 10);
  ASSERT_EQ(ids.size(), 10u);
  EXPECT_GT(ack_faults.frames_seen(), 3u);
  EXPECT_TRUE(WaitConverged(**cluster, *replica, 1));
  EXPECT_EQ(replica->ShardLastLsn(0), DurableLsn(**cluster, 0));
}

// A replica that joins after the frames it needs were checkpoint-
// truncated away cannot stream — it catches up via full snapshot
// transfer, then streams the post-snapshot suffix.
TEST(ReplicationTest, StaleReplicaCatchesUpViaSnapshotTransfer) {
  TempDir dir;
  auto cluster = AdeptCluster::Create(PrimaryOptions(dir, 1));
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  ASSERT_TRUE((*cluster)->DeployProcessType(SequenceSchema(5)).ok());
  std::vector<InstanceId> ids = CreateMany(**cluster, 6);
  DriveRounds(**cluster, ids, 2);
  // The checkpoint truncates every frame so far out of the WAL.
  ASSERT_TRUE((*cluster)->SaveSnapshot().ok());
  DriveRounds(**cluster, ids, 1);  // post-snapshot suffix to stream

  auto replica = StartReplica(dir, "replica");
  ASSERT_NE(replica, nullptr);
  ASSERT_TRUE(
      (*cluster)->AttachReplication(ReplOptions({replica->port()}, 2)).ok());
  std::vector<InstanceId> more = CreateMany(**cluster, 2);
  ASSERT_EQ(more.size(), 2u);
  EXPECT_TRUE(WaitConverged(**cluster, *replica, 1));
  (*cluster)->DetachReplication();

  replica->Stop();
  auto promoted = PromoteToCluster(dir.File("replica.wal"),
                                   dir.File("replica.snapshot"), 1);
  ASSERT_TRUE(promoted.ok()) << promoted.status();
  EXPECT_EQ(CountInstances(**promoted), 8u);
  for (InstanceId id : ids) {
    EXPECT_EQ(TraceEvents(**promoted, id), TraceEvents(**cluster, id));
  }
}

// Failover epilogue: the old primary crashed with an unacked divergent
// suffix (commits made while detached). When its file set rejoins the
// promoted lineage as a replica, the epoch/LSN divergence check fires and
// the suffix is discarded — the rejoined node converges to the new
// primary's history, not a merge of both.
TEST(ReplicationTest, OldPrimaryRejoinsAndDropsDivergentSuffix) {
  TempDir dir;
  auto replica = StartReplica(dir, "replica");
  ASSERT_NE(replica, nullptr);

  std::vector<InstanceId> ids;
  size_t acked_events = 0;
  {
    auto cluster = AdeptCluster::Create(PrimaryOptions(dir, 1, "nodeA"));
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    ASSERT_TRUE(
        (*cluster)->AttachReplication(ReplOptions({replica->port()}, 2)).ok());
    ASSERT_TRUE((*cluster)->DeployProcessType(SequenceSchema(8)).ok());
    ids = CreateMany(**cluster, 3);
    ASSERT_EQ(ids.size(), 3u);
    DriveRounds(**cluster, ids, 2);
    ASSERT_TRUE(WaitConverged(**cluster, *replica, 1));
    acked_events = TraceEvents(**cluster, ids[0]);

    // Divergence: commits the replica never sees (shipping detached).
    (*cluster)->DetachReplication();
    DriveRounds(**cluster, ids, 2);
    ASSERT_GT(TraceEvents(**cluster, ids[0]), acked_events);
  }  // old primary crashes with the unacked suffix on its disk

  // Promote the replica; its lineage ends at the acked prefix.
  replica->Stop();
  auto promoted = PromoteToCluster(dir.File("replica.wal"),
                                   dir.File("replica.snapshot"), 1);
  ASSERT_TRUE(promoted.ok()) << promoted.status();
  EXPECT_EQ(TraceEvents(**promoted, ids[0]), acked_events);
  std::vector<InstanceId> new_lineage = CreateMany(**promoted, 2);
  ASSERT_EQ(new_lineage.size(), 2u);

  // The old primary's file set rejoins as a replica node. Its meta still
  // carries epoch 1; the promoted primary runs epoch 2 — snapshot reset.
  auto rejoined = StartReplica(dir, "nodeA");
  ASSERT_NE(rejoined, nullptr);
  EXPECT_EQ(rejoined->epoch(), 1u);
  ASSERT_TRUE(
      (*promoted)->AttachReplication(ReplOptions({rejoined->port()}, 2)).ok());
  std::vector<InstanceId> tail = CreateMany(**promoted, 1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_TRUE(WaitConverged(**promoted, *rejoined, 1));
  EXPECT_EQ(rejoined->epoch(), 2u);
  (*promoted)->DetachReplication();

  // Promote the rejoined set: it now mirrors the new lineage exactly —
  // the divergent steps are gone, the post-failover instances are there.
  rejoined->Stop();
  auto rejoined_cluster = PromoteToCluster(dir.File("nodeA.wal"),
                                           dir.File("nodeA.snapshot"), 1);
  ASSERT_TRUE(rejoined_cluster.ok()) << rejoined_cluster.status();
  EXPECT_EQ(TraceEvents(**rejoined_cluster, ids[0]), acked_events);
  EXPECT_EQ(CountInstances(**rejoined_cluster), 6u);
  for (InstanceId id : new_lineage) {
    EXPECT_GT(TraceEvents(**rejoined_cluster, id), 0u);
  }
}

// Bidirectional partition: the primary is cut off from both replicas in
// both directions. The minority side (the primary alone) must degrade —
// writes fail fast with the no-quorum marker before any mutation, reads
// still serve its published snapshots flagged degraded — while the
// majority side (the two replica file sets) promotes and keeps
// committing. When the partition heals, the deposed primary meets the
// promoted epoch and self-fences.
TEST(ReplicationTest, BidirectionalPartitionMinorityDegradesMajorityCommits) {
  TempDir dir;
  ToggleFaultInjector ack_cut1, ack_cut2;  // replica -> primary direction
  auto replica1 = StartReplica(dir, "replica1", &ack_cut1);
  auto replica2 = StartReplica(dir, "replica2", &ack_cut2);
  ASSERT_NE(replica1, nullptr);
  ASSERT_NE(replica2, nullptr);

  auto cluster = AdeptCluster::Create(PrimaryOptions(dir, 1));
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  ToggleFaultInjector send_cut1, send_cut2;  // primary -> replica direction
  ReplicationOptions ropts =
      ReplOptions({replica1->port(), replica2->port()}, 2);
  ropts.peer_fault_injectors = {&send_cut1, &send_cut2};
  ropts.ack_timeout_ms = 300;
  ropts.heartbeat_interval_ms = 50;
  ropts.suspect_after_ms = 200;
  ropts.dead_after_ms = 500;
  ASSERT_TRUE((*cluster)->AttachReplication(ropts).ok());

  ASSERT_TRUE((*cluster)->DeployProcessType(SequenceSchema(6)).ok());
  std::vector<InstanceId> ids = CreateMany(**cluster, 3);
  ASSERT_EQ(ids.size(), 3u);
  ASSERT_TRUE(WaitConverged(**cluster, *replica1, 1));
  ASSERT_TRUE(WaitConverged(**cluster, *replica2, 1));

  // Cut everything in both directions and let the health clocks expire.
  send_cut1.set_enabled(true);
  send_cut2.set_enabled(true);
  ack_cut1.set_enabled(true);
  ack_cut2.set_enabled(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(800));

  // Minority side: the write gate rejects before any mutation...
  auto rejected = (*cluster)->CreateInstance("seq");
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(IsNoQuorum(rejected.status())) << rejected.status();
  EXPECT_EQ(CountInstances(**cluster), 3u);
  // ...while reads still serve, flagged as trailing a degraded shard.
  EXPECT_TRUE((*cluster)->ReplicationStatus().degraded());
  auto stale_read = (*cluster)->Query("state != finished");
  ASSERT_TRUE(stale_read.ok()) << stale_read.status();
  EXPECT_TRUE(stale_read->degraded);
  EXPECT_EQ(stale_read->size(), 3u);

  // Majority side: replica1's file set is promoted (epoch 2) and
  // replica2 rejoins its network — the quorum of two keeps committing.
  replica1->Stop();
  ack_cut2.set_enabled(false);
  auto promoted = PromoteToCluster(dir.File("replica1.wal"),
                                   dir.File("replica1.snapshot"), 1);
  ASSERT_TRUE(promoted.ok()) << promoted.status();
  ReplicationOptions majority = ReplOptions({replica2->port()}, 2);
  majority.heartbeat_interval_ms = 50;
  ASSERT_TRUE((*promoted)->AttachReplication(majority).ok());
  std::vector<InstanceId> new_ids = CreateMany(**promoted, 2);
  ASSERT_EQ(new_ids.size(), 2u);
  EXPECT_TRUE(WaitConverged(**promoted, *replica2, 1));
  EXPECT_EQ(CountInstances(**promoted), 5u);
  EXPECT_EQ(replica2->epoch(), 2u);

  // Heal the old primary's links: its first handshake meets epoch 2 and
  // it self-fences — exactly one unfenced primary remains.
  send_cut1.set_enabled(false);
  send_cut2.set_enabled(false);
  ack_cut1.set_enabled(false);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  Status fenced;
  for (;;) {
    auto attempt = (*cluster)->CreateInstance("seq");
    ASSERT_FALSE(attempt.ok());
    fenced = attempt.status();
    if (IsFenced(fenced) || std::chrono::steady_clock::now() > deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(IsFenced(fenced)) << fenced;
}

// Guard rails: quorum bounds, attach-twice, resize-while-attached.
TEST(ReplicationTest, AttachGuards) {
  TempDir dir;
  auto replica = StartReplica(dir, "replica");
  ASSERT_NE(replica, nullptr);
  auto cluster = AdeptCluster::Create(PrimaryOptions(dir, 1));
  ASSERT_TRUE(cluster.ok());

  // Quorum larger than the copy count is rejected.
  Status st = (*cluster)->AttachReplication(ReplOptions({replica->port()}, 3));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;

  ASSERT_TRUE(
      (*cluster)->AttachReplication(ReplOptions({replica->port()}, 1)).ok());
  st = (*cluster)->AttachReplication(ReplOptions({replica->port()}, 1));
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st;

  // Topology changes are mutually exclusive with attached replication.
  st = (*cluster)->Resize(2);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st;
  (*cluster)->DetachReplication();
  EXPECT_TRUE((*cluster)->Resize(2).ok());

  // A memory-only cluster has nothing to replicate.
  auto transient = AdeptCluster::Create({.shards = 1});
  ASSERT_TRUE(transient.ok());
  st = (*transient)->AttachReplication(ReplOptions({replica->port()}, 1));
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st;
}

}  // namespace
}  // namespace adept
