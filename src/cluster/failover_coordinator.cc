#include "cluster/failover_coordinator.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <thread>
#include <utility>

#include "common/fs_util.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "storage/wal.h"

namespace adept {

FailoverCoordinator::FailoverCoordinator(const FailoverOptions& options)
    : options_(options) {}

Result<std::unique_ptr<FailoverCoordinator>> FailoverCoordinator::Start(
    const FailoverOptions& options) {
  if (options.cluster.wal_path.empty() ||
      options.cluster.snapshot_path.empty()) {
    return Status::InvalidArgument(
        "failover coordinator needs durable cluster paths");
  }
  if (options.replicas < 1 || options.data_dir.empty()) {
    return Status::InvalidArgument(
        "failover coordinator needs >= 1 standby and a data_dir");
  }
  if (options.quorum < 1 || options.quorum > options.replicas + 1) {
    return Status::InvalidArgument(StrFormat(
        "quorum %d out of range for %d standbys", options.quorum,
        options.replicas));
  }
  std::error_code ec;
  std::filesystem::create_directories(options.data_dir, ec);
  if (ec) {
    return Status::Corruption(
        StrFormat("cannot create %s: %s", options.data_dir.c_str(),
                  ec.message().c_str()));
  }

  auto coordinator =
      std::unique_ptr<FailoverCoordinator>(new FailoverCoordinator(options));

  ADEPT_ASSIGN_OR_RETURN(std::unique_ptr<AdeptCluster> founding,
                         AdeptCluster::Create(options.cluster));
  std::shared_ptr<AdeptCluster> primary(std::move(founding));

  {
    std::lock_guard<std::mutex> lock(coordinator->mu_);
    coordinator->primary_wal_ = options.cluster.wal_path;
    coordinator->primary_snapshot_ = options.cluster.snapshot_path;
    for (int i = 0; i < options.replicas; ++i) {
      Node node;
      node.wal_path =
          (std::filesystem::path(options.data_dir) /
           StrFormat("node%d.wal", i)).string();
      node.snapshot_path =
          (std::filesystem::path(options.data_dir) /
           StrFormat("node%d.snapshot", i)).string();
      coordinator->nodes_.push_back(std::move(node));
      ADEPT_RETURN_IF_ERROR(coordinator->StartNodeLocked(i));
    }
    ADEPT_RETURN_IF_ERROR(
        primary->AttachReplication(coordinator->BuildReplOptionsLocked()));

    coordinator->view_.cluster = primary;
    coordinator->view_.version = 1;
    coordinator->view_.epoch = primary->replication_epoch();
    coordinator->view_.recovered_lsn.assign(
        static_cast<size_t>(options.cluster.shards), 0);
    coordinator->history_.emplace_back(coordinator->view_.version,
                                       coordinator->view_.recovered_lsn);
  }

  if (options.auto_promote) {
    coordinator->monitor_ =
        std::thread([c = coordinator.get()] { c->MonitorLoop(); });
  }
  return coordinator;
}

FailoverCoordinator::~FailoverCoordinator() { Stop(); }

void FailoverCoordinator::Stop() {
  if (stopping_.exchange(true)) {
    if (monitor_.joinable()) monitor_.join();
    return;
  }
  if (monitor_.joinable()) monitor_.join();

  std::shared_ptr<AdeptCluster> primary;
  std::shared_ptr<AdeptCluster> old_primary;
  std::shared_ptr<AdeptCluster> resurrected;
  {
    std::lock_guard<std::mutex> lock(mu_);
    primary = view_.cluster;
    old_primary = std::move(old_primary_);
    resurrected = std::move(resurrected_);
    for (Node& node : nodes_) {
      if (node.replica) node.replica->Stop();
    }
  }
  if (primary) primary->DetachReplication();
  // old_primary / resurrected detach in their destructors.
}

// --- PrimaryResolver --------------------------------------------------------

PrimaryView FailoverCoordinator::View() {
  std::lock_guard<std::mutex> lock(mu_);
  return view_;
}

uint64_t FailoverCoordinator::SurvivorWatermark(uint64_t version,
                                                size_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t watermark = ~uint64_t{0};
  for (const auto& [v, recovered] : history_) {
    if (v <= version) continue;
    watermark =
        std::min(watermark, shard < recovered.size() ? recovered[shard] : 0);
  }
  return watermark;
}

// --- Monitor ----------------------------------------------------------------

void FailoverCoordinator::MonitorLoop() {
  int consecutive = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.poll_interval_ms));
    if (stopping_.load(std::memory_order_acquire)) break;
    if (!PrimaryAssessedDead()) {
      consecutive = 0;
      continue;
    }
    if (++consecutive < options_.confirm_polls) continue;
    consecutive = 0;
    auto promoted = Promote();
    if (!promoted.ok() && !stopping_.load(std::memory_order_acquire)) {
      ADEPT_LOG(kWarning) << "failover: promotion attempt failed: "
                      << promoted.status();
    }
  }
}

bool FailoverCoordinator::PrimaryAssessedDead() {
  std::lock_guard<std::mutex> lock(mu_);
  int live = 0;
  int dead_votes = 0;
  for (const Node& node : nodes_) {
    if (!node.running || node.promoted || !node.replica) continue;
    ++live;
    if (node.replica->PrimaryHealth() == PeerHealth::kDead) ++dead_votes;
  }
  // The verdict comes from the heartbeat traffic alone: a strict majority
  // of live standbys must have independently timed the primary out.
  return live > 0 && dead_votes * 2 > live;
}

// --- Chaos controls ---------------------------------------------------------

Status FailoverCoordinator::KillPrimary() {
  std::shared_ptr<AdeptCluster> cluster;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!view_.cluster || !primary_alive_) {
      return Status::FailedPrecondition("no live primary to kill");
    }
    primary_alive_ = false;
    cluster = view_.cluster;
  }
  // Simulated crash: heartbeats and shipping cease, in-flight quorum
  // waits fail. The engine object stays alive (in-flight callers), and
  // anything it applies from here on is the divergent unacked suffix.
  for (size_t k = 0; k < cluster->shard_count(); ++k) {
    if (ReplicationPrimary* p = cluster->shard_replication(k)) p->Stop();
  }
  return Status::OK();
}

Status FailoverCoordinator::KillReplica(int node) {
  std::lock_guard<std::mutex> lock(mu_);
  if (node < 0 || node >= static_cast<int>(nodes_.size())) {
    return Status::InvalidArgument(StrFormat("no such node %d", node));
  }
  Node& n = nodes_[static_cast<size_t>(node)];
  if (!n.running || !n.replica) {
    return Status::FailedPrecondition(
        StrFormat("node %d is not running", node));
  }
  n.replica->Stop();
  n.replica.reset();
  n.running = false;
  return Status::OK();
}

Status FailoverCoordinator::RestartReplica(int node) {
  std::lock_guard<std::mutex> lock(mu_);
  if (node < 0 || node >= static_cast<int>(nodes_.size())) {
    return Status::InvalidArgument(StrFormat("no such node %d", node));
  }
  Node& n = nodes_[static_cast<size_t>(node)];
  if (n.running) {
    return Status::FailedPrecondition(
        StrFormat("node %d is already running", node));
  }
  if (n.promoted) {
    return Status::FailedPrecondition(StrFormat(
        "node %d's file set is the current primary", node));
  }
  return StartNodeLocked(node);
}

bool FailoverCoordinator::ReplicaRunning(int node) const {
  std::lock_guard<std::mutex> lock(mu_);
  return node >= 0 && node < static_cast<int>(nodes_.size()) &&
         nodes_[static_cast<size_t>(node)].running;
}

int FailoverCoordinator::replica_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(nodes_.size());
}

void FailoverCoordinator::SetPromotionHook(
    std::function<void(const std::string&)> hook) {
  std::lock_guard<std::mutex> lock(hook_mu_);
  hook_ = std::move(hook);
}

void FailoverCoordinator::RunHook(const std::string& stage) {
  std::function<void(const std::string&)> hook;
  {
    std::lock_guard<std::mutex> lock(hook_mu_);
    hook = hook_;
  }
  if (hook) hook(stage);
}

// --- Promotion --------------------------------------------------------------

uint64_t FailoverCoordinator::promotions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return view_.version > 0 ? view_.version - 1 : 0;
}

Result<PrimaryView> FailoverCoordinator::WaitForFailover(uint64_t last_version,
                                                         int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    PrimaryView view = View();
    if (view.version > last_version && view.cluster) return view;
    if (std::chrono::steady_clock::now() > deadline) {
      return Status::Unavailable(StrFormat(
          "no failover past view %llu within %dms",
          static_cast<unsigned long long>(last_version), timeout_ms));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

Result<PrimaryView> FailoverCoordinator::Promote() {
  std::lock_guard<std::mutex> promote_lock(promote_mu_);

  // Phase 1 (under mu_): confirm the promotion should happen, pick the
  // live participants, and quiesce their file sets.
  std::shared_ptr<AdeptCluster> old_cluster;
  std::string old_wal, old_snap;
  uint64_t old_epoch = 0;
  std::vector<int> live;
  int shards = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A call queued behind a completed promotion must not depose the
    // freshly promoted (healthy) primary.
    if (primary_alive_ && view_.cluster) {
      int alive = 0, dead_votes = 0;
      for (const Node& node : nodes_) {
        if (!node.running || node.promoted || !node.replica) continue;
        ++alive;
        if (node.replica->PrimaryHealth() == PeerHealth::kDead) ++dead_votes;
      }
      if (!(alive > 0 && dead_votes * 2 > alive)) return view_;
    }
    for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
      const Node& node = nodes_[static_cast<size_t>(i)];
      if (node.running && !node.promoted && node.replica) live.push_back(i);
    }
    // The split-brain guard: a minority island degrades, it never elects.
    if (static_cast<int>(live.size()) < options_.quorum) {
      return Status::Unavailable(StrFormat(
          "refusing to promote: %d live standby(s), need quorum %d",
          static_cast<int>(live.size()), options_.quorum));
    }
    old_cluster = view_.cluster;
    old_wal = primary_wal_;
    old_snap = primary_snapshot_;
    old_epoch = view_.epoch;
    shards = options_.cluster.shards;
    for (int i : live) nodes_[static_cast<size_t>(i)].replica->Stop();
  }

  RunHook("begin");

  // Make sure the deposed lineage has stopped shipping (idempotent when a
  // chaos kill — or the crash being recovered from — already did).
  if (old_cluster) {
    for (size_t k = 0; k < old_cluster->shard_count(); ++k) {
      if (ReplicationPrimary* p = old_cluster->shard_replication(k)) {
        p->Stop();
      }
    }
  }

  // On any failure below, bring the quiesced standbys back up so the
  // cluster stays degraded-but-recoverable instead of headless.
  auto restart_standbys = [&]() {
    std::lock_guard<std::mutex> lock(mu_);
    for (int i : live) {
      Node& node = nodes_[static_cast<size_t>(i)];
      if (!node.running) continue;  // chaos killed it meanwhile: respect that
      node.replica.reset();
      Status st = StartNodeLocked(i);
      if (!st.ok()) {
        ADEPT_LOG(kWarning) << "failover: standby " << i
                        << " failed to restart after aborted promotion: "
                        << st;
      }
    }
  };

  // Phase 2: probe every participant's per-shard durable prefix from its
  // quiesced files and assemble the longest prefix onto the target.
  std::vector<std::vector<uint64_t>> lsn(live.size());
  for (size_t j = 0; j < live.size(); ++j) {
    const Node& node = nodes_[static_cast<size_t>(live[j])];
    lsn[j].resize(static_cast<size_t>(shards), 0);
    for (int k = 0; k < shards; ++k) {
      auto probed = ShardDurableLsnOnDisk(node.wal_path, node.snapshot_path,
                                          static_cast<uint64_t>(k));
      if (!probed.ok()) {
        restart_standbys();
        return probed.status();
      }
      lsn[j][static_cast<size_t>(k)] = *probed;
    }
  }
  size_t target = 0;
  {
    uint64_t best_total = 0;
    for (size_t j = 0; j < live.size(); ++j) {
      uint64_t total = 0;
      for (uint64_t l : lsn[j]) total += l;
      if (j == 0 || total > best_total) {
        best_total = total;
        target = j;
      }
    }
  }
  const Node& target_node = nodes_[static_cast<size_t>(live[target])];
  for (int k = 0; k < shards; ++k) {
    size_t best = target;
    for (size_t j = 0; j < live.size(); ++j) {
      if (lsn[j][static_cast<size_t>(k)] >
          lsn[best][static_cast<size_t>(k)]) {
        best = j;
      }
    }
    if (best == target) continue;
    // Another standby acked more of this shard: take its WAL/snapshot
    // pair wholesale (the pair is internally consistent; mixing one
    // node's snapshot with another's WAL is not).
    const Node& donor = nodes_[static_cast<size_t>(live[best])];
    const size_t shard = static_cast<size_t>(k);
    for (const auto& [from, to] :
         {std::pair<std::string, std::string>(
              ShardRouting::PathFor(donor.wal_path, shard),
              ShardRouting::PathFor(target_node.wal_path, shard)),
          std::pair<std::string, std::string>(
              ShardRouting::PathFor(donor.snapshot_path, shard),
              ShardRouting::PathFor(target_node.snapshot_path, shard))}) {
      Status st = CopyFile(from, to);
      if (!st.ok()) {
        restart_standbys();
        return st;
      }
    }
    ADEPT_LOG(kInfo) << "failover: shard " << k << " assembled from node "
                    << live[best] << " (LSN "
                    << lsn[best][static_cast<size_t>(k)] << " > "
                    << lsn[target][static_cast<size_t>(k)] << ")";
  }

  RunHook("selected");

  // Phase 3: epoch bump. at_least = max epoch seen anywhere + 1, so this
  // lineage dominates the deposed one AND any previously promoted one.
  uint64_t max_epoch = old_epoch;
  for (size_t j = 0; j < live.size(); ++j) {
    auto epoch =
        ReadReplicationEpoch(nodes_[static_cast<size_t>(live[j])].wal_path);
    if (!epoch.ok()) {
      restart_standbys();
      return epoch.status();
    }
    max_epoch = std::max(max_epoch, *epoch);
  }
  auto new_epoch = PromoteReplicaFiles(target_node.wal_path, max_epoch + 1);
  if (!new_epoch.ok()) {
    restart_standbys();
    return new_epoch.status();
  }

  RunHook("promoted-files");

  // Phase 4: recover the assembled file set as the new primary.
  ClusterOptions copts = options_.cluster;
  copts.wal_path = target_node.wal_path;
  copts.snapshot_path = target_node.snapshot_path;
  auto recovered = AdeptCluster::Recover(copts);
  if (!recovered.ok()) {
    restart_standbys();
    return recovered.status();
  }
  std::shared_ptr<AdeptCluster> next(std::move(*recovered));
  std::vector<uint64_t> recovered_lsn(static_cast<size_t>(shards), 0);
  for (int k = 0; k < shards; ++k) {
    // The WAL writer's durable LSN is restored from the log on open;
    // last_enqueued_lsn() would read 0 until the first post-recovery
    // append and misjudge every surviving write as lost.
    recovered_lsn[static_cast<size_t>(k)] =
        next->shard(static_cast<size_t>(k)).wal_writer()->durable_lsn();
  }

  RunHook("recovered");

  // Phase 5: restart the other standbys, attach, publish.
  PrimaryView published;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Node& t = nodes_[static_cast<size_t>(live[target])];
    t.promoted = true;
    t.running = false;
    t.replica.reset();
    for (size_t j = 0; j < live.size(); ++j) {
      if (j == target) continue;
      Node& node = nodes_[static_cast<size_t>(live[j])];
      if (!node.running) continue;  // chaos killed it mid-promotion
      node.replica.reset();
      Status st = StartNodeLocked(live[j]);
      if (!st.ok()) {
        ADEPT_LOG(kWarning) << "failover: standby " << live[j]
                        << " failed to restart: " << st;
      }
    }
    Status attach = next->AttachReplication(BuildReplOptionsLocked());
    if (!attach.ok()) return attach;

    old_primary_ = std::move(old_cluster);
    old_primary_wal_ = old_wal;
    old_primary_snapshot_ = old_snap;
    old_primary_epoch_ = old_epoch;
    primary_wal_ = copts.wal_path;
    primary_snapshot_ = copts.snapshot_path;
    view_.cluster = std::move(next);
    view_.version += 1;
    view_.epoch = *new_epoch;
    view_.recovered_lsn = recovered_lsn;
    history_.emplace_back(view_.version, recovered_lsn);
    primary_alive_ = true;
    published = view_;
  }

  RunHook("attached");
  ADEPT_LOG(kInfo) << "failover: promoted node " << live[target]
                  << " as view " << published.version << " epoch "
                  << published.epoch;
  return published;
}

// --- Rejoin paths -----------------------------------------------------------

Result<std::shared_ptr<AdeptCluster>>
FailoverCoordinator::ResurrectOldPrimary() {
  ClusterOptions copts = options_.cluster;
  ReplicationOptions ropts;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (old_primary_wal_.empty()) {
      return Status::FailedPrecondition("no deposed lineage to resurrect");
    }
    if (resurrected_) {
      return Status::FailedPrecondition("old primary already resurrected");
    }
    old_primary_.reset();  // release its file handles
    copts.wal_path = old_primary_wal_;
    copts.snapshot_path = old_primary_snapshot_;
    ropts = BuildReplOptionsLocked();
  }
  ADEPT_ASSIGN_OR_RETURN(std::unique_ptr<AdeptCluster> recovered,
                         AdeptCluster::Recover(copts));
  std::shared_ptr<AdeptCluster> cluster(std::move(recovered));
  // Attaching with its persisted (stale) epoch: the standbys reject the
  // HELLO and the lineage self-fences — writes fail with IsFenced().
  ADEPT_RETURN_IF_ERROR(cluster->AttachReplication(ropts));
  std::lock_guard<std::mutex> lock(mu_);
  resurrected_ = cluster;
  return cluster;
}

Status FailoverCoordinator::RejoinOldPrimaryAsReplica() {
  std::shared_ptr<AdeptCluster> current;
  ReplicationOptions ropts;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (old_primary_wal_.empty()) {
      return Status::FailedPrecondition("no deposed lineage to rejoin");
    }
    // Release every handle on the old file set (destructors detach).
    resurrected_.reset();
    old_primary_.reset();
    Node node;
    node.wal_path = old_primary_wal_;
    node.snapshot_path = old_primary_snapshot_;
    nodes_.push_back(std::move(node));
    const int index = static_cast<int>(nodes_.size()) - 1;
    Status st = StartNodeLocked(index);
    if (!st.ok()) {
      nodes_.pop_back();
      return st;
    }
    old_primary_wal_.clear();
    old_primary_snapshot_.clear();
    old_primary_epoch_ = 0;
    current = view_.cluster;
    ropts = BuildReplOptionsLocked();
  }
  if (!current) return Status::OK();
  // Fold the new standby into the peer set. Caller has quiesced writes
  // (the Attach/DetachReplication contract). The stale lineage fails the
  // resume epoch check and is snapshot-reset, discarding its divergent
  // unacked suffix.
  current->DetachReplication();
  return current->AttachReplication(ropts);
}

// --- Internals --------------------------------------------------------------

ReplicationOptions FailoverCoordinator::BuildReplOptionsLocked() const {
  ReplicationOptions ropts = options_.repl;
  ropts.replicas.clear();
  ropts.peer_fault_injectors.clear();
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    if (!node.running || node.promoted) continue;
    ropts.replicas.push_back({.host = "127.0.0.1", .port = node.port});
    ropts.peer_fault_injectors.push_back(
        i < options_.node_send_injectors.size()
            ? options_.node_send_injectors[i]
            : nullptr);
  }
  ropts.quorum = options_.quorum;
  return ropts;
}

Status FailoverCoordinator::StartNodeLocked(int i) {
  Node& node = nodes_[static_cast<size_t>(i)];
  ReplicaNodeOptions ropts;
  ropts.listen = {.host = "127.0.0.1", .port = node.port};
  ropts.wal_path = node.wal_path;
  ropts.snapshot_path = node.snapshot_path;
  ropts.sync = options_.replica_sync;
  ropts.io_timeout_ms = options_.repl.io_timeout_ms;
  ropts.suspect_after_ms = options_.repl.suspect_after_ms;
  ropts.dead_after_ms = options_.repl.dead_after_ms;
  if (static_cast<size_t>(i) < options_.node_ack_injectors.size()) {
    ropts.fault_injector = options_.node_ack_injectors[static_cast<size_t>(i)];
  }
  ADEPT_ASSIGN_OR_RETURN(std::unique_ptr<ReplicationReplica> replica,
                         ReplicationReplica::Start(ropts));
  node.replica = std::move(replica);
  node.port = node.replica->port();
  node.running = true;
  return Status::OK();
}

Result<uint64_t> FailoverCoordinator::ShardDurableLsnOnDisk(
    const std::string& wal_base, const std::string& snap_base,
    uint64_t shard) {
  uint64_t lsn = 0;
  const std::string snap = ShardRouting::PathFor(snap_base, shard);
  if (std::filesystem::exists(snap)) {
    ADEPT_ASSIGN_OR_RETURN(std::string blob, ReadFileToString(snap));
    ADEPT_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(blob));
    lsn = static_cast<uint64_t>(doc.Get("wal_lsn").as_int());
  }
  // Only the last LSN is read: a tail after the largest LSN holds no frame.
  ADEPT_ASSIGN_OR_RETURN(
      WalTail tail,
      WriteAheadLog::ReadTail(ShardRouting::PathFor(wal_base, shard),
                              std::numeric_limits<uint64_t>::max()));
  return std::max(lsn, tail.last_lsn);
}

Status FailoverCoordinator::CopyFile(const std::string& from,
                                     const std::string& to) {
  std::error_code ec;
  if (!std::filesystem::exists(from)) {
    // Donor has nothing for this file: the pair-replacement rule means
    // the target's must go too.
    std::filesystem::remove(to, ec);
    return Status::OK();
  }
  ADEPT_ASSIGN_OR_RETURN(std::string content, ReadFileToString(from));
  return WriteFileAtomic(to, content);
}

}  // namespace adept
