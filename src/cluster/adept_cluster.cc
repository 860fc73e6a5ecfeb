#include "cluster/adept_cluster.h"

#include <algorithm>
#include <filesystem>
#include <set>
#include <thread>
#include <utility>

#include "common/string_util.h"
#include "worklist/worklist_service.h"

namespace adept {

// --- Construction / recovery -------------------------------------------------

AdeptCluster::AdeptCluster(const ClusterOptions& options) : options_(options) {}

AdeptOptions AdeptCluster::ShardOptions(const ClusterOptions& options,
                                        int index) {
  AdeptOptions shard_options;
  shard_options.default_strategy = options.default_strategy;
  shard_options.sync = options.sync;
  // The cluster pipelines durability itself: records are enqueued under the
  // shard lock, the wait happens after the lock is released.
  shard_options.defer_wal_sync = true;
  shard_options.wal_path =
      ShardRouting::PathFor(options.wal_path, static_cast<size_t>(index));
  shard_options.snapshot_path =
      ShardRouting::PathFor(options.snapshot_path, static_cast<size_t>(index));
  shard_options.query_indexes = options.query_indexes;
  return shard_options;
}

namespace {

Result<std::unique_ptr<SimulationDriver>> MakeShardDriver(
    const ClusterOptions& options, int index) {
  DriverOptions driver_options = options.driver;
  driver_options.seed += static_cast<uint64_t>(index);
  return std::make_unique<SimulationDriver>(driver_options);
}

// min(shards, cores) threads: more only adds context switching, and the
// caller thread runs one task of every fan-out itself.
std::unique_ptr<WorkerPool> MakePool(size_t shards) {
  return std::make_unique<WorkerPool>(std::min(
      shards,
      static_cast<size_t>(std::max(1u, std::thread::hardware_concurrency()))));
}

// True when shard `index` left durable state at the configured base paths.
bool ShardFilesExist(const ClusterOptions& options, size_t index) {
  const std::string wal = ShardRouting::PathFor(options.wal_path, index);
  const std::string snapshot =
      ShardRouting::PathFor(options.snapshot_path, index);
  return (!wal.empty() && std::filesystem::exists(wal)) ||
         (!snapshot.empty() && std::filesystem::exists(snapshot));
}

// Highest contiguous shard index with durable state, i.e. the shard count
// the durable cluster was last written with (0 when nothing is on disk).
size_t CountShardsOnDisk(const ClusterOptions& options) {
  if (options.wal_path.empty() && options.snapshot_path.empty()) return 0;
  size_t count = 0;
  while (ShardFilesExist(options, count)) ++count;
  return count;
}

// The resize error contract: name the recovered and requested counts and
// the repair action.
Status ResizeError(size_t recovered, size_t requested,
                   const std::string& detail) {
  return Status::Corruption(
      "cluster resize from " + std::to_string(recovered) +
      " recovered shard(s) to " + std::to_string(requested) +
      " requested shard(s) failed: " + detail +
      "; repair: recover with shards=" + std::to_string(recovered) +
      " (the recorded count), or restore the damaged per-shard files and "
      "retry the resize");
}

// Best-effort removal of a retired shard's durability files.
void RemoveShardFiles(const ClusterOptions& options, size_t index) {
  std::error_code ec;
  const std::string wal = ShardRouting::PathFor(options.wal_path, index);
  const std::string snapshot =
      ShardRouting::PathFor(options.snapshot_path, index);
  if (!wal.empty()) std::filesystem::remove(wal, ec);
  if (!snapshot.empty()) std::filesystem::remove(snapshot, ec);
}

}  // namespace

Result<std::unique_ptr<AdeptCluster>> AdeptCluster::Build(
    const ClusterOptions& options,
    const std::function<Result<std::unique_ptr<AdeptSystem>>(
        const AdeptOptions&)>& make_system) {
  if (options.shards < 1) {
    return Status::InvalidArgument("cluster needs at least one shard");
  }
  std::unique_ptr<AdeptCluster> cluster(new AdeptCluster(options));
  cluster->routing_ = ShardRouting(static_cast<size_t>(options.shards));
  for (int i = 0; i < options.shards; ++i) {
    auto shard = std::make_shared<Shard>();
    ADEPT_ASSIGN_OR_RETURN(shard->system,
                           make_system(ShardOptions(options, i)));
    ADEPT_ASSIGN_OR_RETURN(shard->driver, MakeShardDriver(options, i));
    cluster->shards_.push_back(std::move(shard));
  }
  cluster->pool_ = MakePool(cluster->shards_.size());
  cluster->PublishReadView();
  return cluster;
}

void AdeptCluster::RunParallel(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  BlockingCounter pending(tasks.size() - 1);
  for (size_t i = 0; i + 1 < tasks.size(); ++i) {
    pool_->Submit([&tasks, i, &pending] {
      tasks[i]();
      pending.DecrementCount();
    });
  }
  tasks.back()();
  pending.Wait();
}

void AdeptCluster::AttachWorklist(bool recover) {
  if (recover) {
    std::vector<const ClaimLedger*> ledgers;
    for (auto& shard_ptr : shards_) {
      ledgers.push_back(&shard_ptr->system->claims());
    }
    worklist_ = WorklistService::Recover(
        &org_, this, {},
        [this](const WorklistService::InstanceVisitor& visitor) {
          ForEachInstance(visitor);
        },
        ledgers);
  } else {
    worklist_ = WorklistService::Create(&org_, this);
  }
  for (auto& shard_ptr : shards_) {
    shard_ptr->system->AddObserver(worklist_.get());
  }
}

Result<std::unique_ptr<AdeptCluster>> AdeptCluster::Create(
    const ClusterOptions& options) {
  ADEPT_ASSIGN_OR_RETURN(
      std::unique_ptr<AdeptCluster> cluster,
      Build(options, [](const AdeptOptions& shard_options) {
        return AdeptSystem::Create(shard_options);
      }));
  // A fresh cluster starts a fresh durable history at these paths. The
  // per-shard Create() calls reset shards 0..N-1, but a previous (larger)
  // cluster may have left ".shard<k>" files beyond the count — Recover()
  // probes for them and would resurrect the dead cluster's state into
  // this one.
  for (size_t k = cluster->shards_.size(); ShardFilesExist(options, k); ++k) {
    RemoveShardFiles(options, k);
  }
  cluster->AttachWorklist(/*recover=*/false);
  return cluster;
}

Result<std::unique_ptr<AdeptCluster>> AdeptCluster::Recover(
    const ClusterOptions& options) {
  // The shard count the durable state was written with; differing from
  // options.shards is not corruption but a resize request.
  const size_t on_disk = CountShardsOnDisk(options);
  const size_t requested = static_cast<size_t>(std::max(options.shards, 1));
  const size_t recorded = on_disk == 0 ? requested : on_disk;

  auto built = Build(options, [](const AdeptOptions& shard_options) {
    return AdeptSystem::Recover(shard_options);
  });
  if (!built.ok()) {
    if (on_disk != 0 && on_disk != requested) {
      return ResizeError(recorded, requested, built.status().ToString());
    }
    return built.status();
  }
  std::unique_ptr<AdeptCluster> cluster = std::move(*built);

  // Shrink: durable shards beyond the requested count become donors —
  // recovered in full, drained below, retired afterwards.
  std::vector<std::shared_ptr<Shard>> donors;
  for (size_t k = requested; k < on_disk; ++k) {
    auto donor = std::make_shared<Shard>();
    auto system = AdeptSystem::Recover(ShardOptions(options, k));
    if (!system.ok()) {
      return ResizeError(recorded, requested,
                         "donor shard " + std::to_string(k) +
                             " did not recover: " + system.status().ToString());
    }
    donor->system = std::move(*system);
    donors.push_back(std::move(donor));
  }

  // Grow: freshly created shards start with an empty schema repository;
  // replicate the cluster's schema history before instances arrive.
  ADEPT_RETURN_IF_ERROR(cluster->ReplicateSchemasToFreshShards(donors));

  // Redistribute every instance the requested routing places elsewhere
  // (crash-window duplicates are deduped back to exactly one owner); each
  // carries its claims along.
  Status moved = cluster->MoveMisplacedInstances(&donors);
  if (!moved.ok()) {
    return ResizeError(recorded, requested, moved.ToString());
  }

  // The org model as of the last checkpoint, which logged it into every
  // shard, shard 0 first. A cluster that never checkpointed recovers an
  // empty org, and the caller repopulates it.
  for (auto& shard_ptr : cluster->shards_) {
    const JsonValue& org = shard_ptr->system->logged_org();
    if (org.is_null()) continue;
    Status restored = cluster->org_.LoadFromJson(org);
    if (!restored.ok()) {
      return Status::Corruption("cannot restore the org model: " +
                                restored.ToString());
    }
    break;
  }

  if (on_disk != 0 && on_disk != requested) {
    // The topology changed: checkpoint it (when snapshots are configured)
    // so the donors' durable copies become redundant, then retire the
    // donor files. Without snapshots the WAL-logged moves already carry
    // the new placement.
    if (!options.snapshot_path.empty()) {
      ADEPT_RETURN_IF_ERROR(cluster->SaveSnapshotLocked());
    }
    for (size_t k = requested; k < on_disk; ++k) {
      donors[k - requested].reset();  // joins the WAL writer, closes files
      RemoveShardFiles(options, k);
    }
  }

  // Re-derive the shard-affine id allocators; an id still on the wrong
  // shard after redistribution is damage, not a resize.
  ADEPT_RETURN_IF_ERROR(cluster->DeriveShardAllocators(recorded));

  // Rebuild open work items: offers from recovered instance state, claims
  // from the shards' ledgers.
  cluster->AttachWorklist(/*recover=*/true);
  return cluster;
}

Status AdeptCluster::ReplicateSchemasToFreshShards(
    const std::vector<std::shared_ptr<Shard>>& donors) {
  AdeptSystem* reference = nullptr;
  for (auto& shard_ptr : shards_) {
    if (shard_ptr->system->repository().size() > 0) {
      reference = shard_ptr->system.get();
      break;
    }
  }
  for (size_t i = 0; reference == nullptr && i < donors.size(); ++i) {
    if (donors[i]->system->repository().size() > 0) {
      reference = donors[i]->system.get();
    }
  }
  if (reference == nullptr) return Status::OK();  // nothing ever deployed
  const JsonValue repo = reference->repository().ToJson();
  for (auto& shard_ptr : shards_) {
    AdeptSystem& system = *shard_ptr->system;
    if (system.repository().size() > 0) continue;
    ADEPT_RETURN_IF_ERROR(system.ReplicateSchemas(repo));
    ADEPT_RETURN_IF_ERROR(system.WaitWalDurable(system.last_enqueued_lsn()));
  }
  return Status::OK();
}

Status AdeptCluster::MoveMisplacedInstances(
    const std::vector<std::shared_ptr<Shard>>* donors) {
  struct Move {
    AdeptSystem* src;
    AdeptSystem* dst;
    InstanceId id;
  };
  std::vector<Move> moves;
  auto collect = [&](AdeptSystem& system, bool placed, size_t index) {
    for (InstanceId id : system.engine().InstanceIds()) {
      size_t owner = routing_.OwnerOf(id);
      if (placed && owner == index) continue;
      moves.push_back({&system, shards_[owner]->system.get(), id});
    }
  };
  for (size_t j = 0; j < shards_.size(); ++j) {
    // During a shrink, shards_ still holds indexes beyond the new count;
    // everything there is misplaced by construction.
    collect(*shards_[j]->system, j < routing_.shards(), j);
  }
  if (donors != nullptr) {
    for (const auto& donor : *donors) {
      collect(*donor->system, /*placed=*/false, 0);
    }
  }
  if (moves.empty()) return Status::OK();

  // Phase 1: import at the destinations, then make every destination
  // durable. A destination that already holds the id is the crash window
  // between a durable import and its evict — the copies are identical
  // (moves only run quiesced), so keep the destination's and fall through
  // to the evict.
  std::set<AdeptSystem*> dirty;
  for (const Move& move : moves) {
    if (move.dst->engine().Find(move.id) != nullptr) continue;
    ADEPT_ASSIGN_OR_RETURN(JsonValue exported,
                           move.src->ExportInstance(move.id));
    ADEPT_RETURN_IF_ERROR(move.dst->ImportInstance(exported));
    dirty.insert(move.dst);
  }
  for (AdeptSystem* system : dirty) {
    ADEPT_RETURN_IF_ERROR(
        system->WaitWalDurable(system->last_enqueued_lsn()));
  }
  dirty.clear();

  // Phase 2: evict at the sources — enqueued only after every import is
  // durable, so a durable evict always implies a durable import and no
  // crash point leaves an instance on zero shards.
  for (const Move& move : moves) {
    ADEPT_RETURN_IF_ERROR(move.src->EvictInstance(move.id));
    dirty.insert(move.src);
  }
  for (AdeptSystem* system : dirty) {
    ADEPT_RETURN_IF_ERROR(
        system->WaitWalDurable(system->last_enqueued_lsn()));
  }
  return Status::OK();
}

Status AdeptCluster::DeriveShardAllocators(size_t recovered_count) {
  for (auto& shard_ptr : shards_) shard_ptr->next_seq = 0;
  for (size_t j = 0; j < shards_.size(); ++j) {
    Shard& shard = *shards_[j];
    for (InstanceId id : shard.system->engine().InstanceIds()) {
      if (!routing_.Owns(j, id)) {
        return ResizeError(
            recovered_count, routing_.shards(),
            "instance " + std::to_string(id.value()) +
                " still lands on shard " + std::to_string(j) +
                " after redistribution (mid-move WAL damage?)");
      }
      shard.next_seq = std::max(shard.next_seq, routing_.SeqOf(id) + 1);
    }
  }
  return Status::OK();
}

AdeptCluster::~AdeptCluster() { DetachReplication(); }

// --- Schema management (fan-out) ---------------------------------------------

namespace {

Status SchemaPoisoned() {
  return Status::FailedPrecondition(
      "a previous schema fan-out failed part-way; shards disagree on schema "
      "state — rebuild the cluster (Recover) before further schema changes");
}

}  // namespace

Status AdeptCluster::CheckTopology() const {
  if (topology_poisoned_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "a cluster resize failed part-way; the in-memory topology is "
        "inconsistent — rebuild the cluster from durable state (Recover) "
        "before further calls");
  }
  return Status::OK();
}

std::vector<Status> AdeptCluster::FanOut(
    const std::function<Status(size_t, AdeptSystem&)>& call) {
  std::vector<Status> statuses(shards_.size());
  std::vector<std::function<void()>> tasks;
  for (size_t k = 0; k < shards_.size(); ++k) {
    tasks.push_back([this, k, &call, &statuses] {
      Shard& shard = *shards_[k];
      uint64_t lsn = 0;
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        statuses[k] = call(k, *shard.system);
        lsn = shard.system->last_enqueued_lsn();
      }
      // Each task awaits its own shard's writer with the lock released.
      if (statuses[k].ok()) statuses[k] = shard.system->WaitWalDurable(lsn);
    });
  }
  RunParallel(std::move(tasks));
  return statuses;
}

Result<SchemaId> AdeptCluster::ChangeSchema(
    const char* what,
    const std::function<Result<SchemaId>(AdeptSystem&)>& change) {
  std::lock_guard<std::mutex> schema_lock(schema_mu_);
  if (schema_poisoned_) return SchemaPoisoned();
  ADEPT_RETURN_IF_ERROR(CheckTopology());
  std::vector<Result<SchemaId>> ids(shards_.size(), SchemaId());
  const std::vector<Status> statuses =
      FanOut([&](size_t k, AdeptSystem& system) {
        ids[k] = change(system);
        return ids[k].status();
      });
  // The same refusal on every shard (verification failure, duplicate type,
  // stale base) is the caller's error: no shard changed. Any other answer
  // than shard 0's, or a record shard k's log durably lacks after every
  // shard applied the change in memory, leaves the shards disagreeing
  // after a crash: refuse further schema management.
  for (size_t k = 0; k < shards_.size(); ++k) {
    const bool same = ids[k].ok() ? ids[0].ok() && *ids[k] == *ids[0]
                                  : ids[k].status() == ids[0].status();
    if (same && statuses[k].ok() == ids[k].ok()) continue;
    schema_poisoned_ = true;
    if (same) return statuses[k];
    return Status::Internal(std::string("schema ") + what +
                            " diverged on shard " + std::to_string(k) +
                            "; schema management is now disabled");
  }
  return ids[0];
}

Result<SchemaId> AdeptCluster::DeployProcessType(
    std::shared_ptr<const ProcessSchema> schema) {
  return ChangeSchema("deploy", [&](AdeptSystem& system) {
    return system.DeployProcessType(schema);
  });
}

Result<SchemaId> AdeptCluster::EvolveProcessType(SchemaId base, Delta delta) {
  return ChangeSchema("evolution", [&](AdeptSystem& system) {
    return system.EvolveProcessType(base, delta.Clone());
  });
}

Result<SchemaId> AdeptCluster::LatestVersion(
    const std::string& type_name) const {
  // schema_mu_ keeps the read from observing a half-applied fan-out (shard 0
  // already evolved, later shards not yet).
  std::lock_guard<std::mutex> schema_lock(schema_mu_);
  const Shard& shard = *shards_[0];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.system->LatestVersion(type_name);
}

Result<std::shared_ptr<const ProcessSchema>> AdeptCluster::Schema(
    SchemaId id) const {
  std::lock_guard<std::mutex> schema_lock(schema_mu_);
  const Shard& shard = *shards_[0];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.system->Schema(id);
}

// --- Instance lifecycle (routed) ---------------------------------------------

Status AdeptCluster::WithInstance(
    InstanceId id,
    const std::function<void(const ProcessInstance&)>& fn) const {
  if (!id.valid()) return Status::NotFound("invalid instance id");
  const Shard& shard = *shards_[ShardOf(id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const ProcessInstance* instance = shard.system->engine().Find(id);
  if (instance == nullptr) return Status::NotFound("no such instance");
  fn(*instance);
  return Status::OK();
}

void AdeptCluster::ForEachInstance(
    const std::function<void(const ProcessInstance&)>& fn) const {
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (InstanceId id : shard.system->engine().InstanceIds()) {
      const ProcessInstance* instance = shard.system->engine().Find(id);
      if (instance != nullptr) fn(*instance);
    }
  }
}

// --- Lock-free read path -----------------------------------------------------

void AdeptCluster::PublishReadView() {
  auto view = std::make_unique<ReadView>();
  view->routing = routing_;
  view->systems.reserve(shards_.size());
  for (const auto& shard_ptr : shards_) {
    view->systems.push_back(shard_ptr->system.get());
  }
  old_views_.push_back(std::move(view));
  read_view_.store(old_views_.back().get(), std::memory_order_release);
}

Result<std::shared_ptr<const InstanceSnapshot>> AdeptCluster::FindSnapshot(
    InstanceId id) const {
  if (!id.valid()) return Status::NotFound("invalid instance id");
  for (;;) {
    // Poison beats retry: a failed resize leaves the epoch odd forever.
    ADEPT_RETURN_IF_ERROR(CheckTopology());
    const uint64_t before = read_epoch_.load(std::memory_order_acquire);
    const ReadView* view = read_view_.load(std::memory_order_acquire);
    std::shared_ptr<const InstanceSnapshot> snapshot =
        view->systems[view->routing.OwnerOf(id)]->SnapshotOf(id);
    // A hit is always safe to return: the snapshot is immutable and was
    // live on its shard at lookup time (at worst it is a bounded-stale
    // pre-move version of an instance that just migrated).
    if (snapshot != nullptr) return snapshot;
    const uint64_t after = read_epoch_.load(std::memory_order_acquire);
    if (before == after && (before & 1) == 0) {
      // Stable topology across the whole lookup: the id is genuinely
      // absent (never created, or evicted by a completed shrink).
      return Status::NotFound("no such instance");
    }
    // A Resize() is repartitioning (or just finished): the instance may
    // sit in the evicted-at-source / published-at-destination window.
    // Retry against the settling view; resizes are rare and bounded.
    std::this_thread::yield();
  }
}

std::shared_ptr<const InstanceSnapshot> AdeptCluster::SnapshotOf(
    InstanceId id) const {
  auto found = FindSnapshot(id);
  return found.ok() ? *found : nullptr;
}

Status AdeptCluster::ReadInstance(
    InstanceId id,
    const std::function<void(const InstanceSnapshot&)>& fn) const {
  ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<const InstanceSnapshot> snapshot,
                         FindSnapshot(id));
  fn(*snapshot);
  return Status::OK();
}

void AdeptCluster::CollectQueryMatches(const CompiledQuery& query,
                                       QueryResult* result) const {
  // The same seqlock discipline as FindSnapshot, extended to a sweep: a
  // resize concurrent with a naive sweep could hide an instance entirely
  // (imported to a shard outside the stale view, then evicted at the
  // source before the sweep arrives) or match its pre- and post-move
  // copies twice. Collect per-shard matches first, accept the batch only
  // after the epoch proved stable across the whole collection — within
  // one stable epoch every instance lives on exactly one shard, so the
  // merge is duplicate-free. Index candidacy is per shard; every hit was
  // re-validated against its shard's current published snapshot.
  for (;;) {
    const bool poisoned = !CheckTopology().ok();
    const uint64_t before = read_epoch_.load(std::memory_order_acquire);
    if (!poisoned && (before & 1) != 0) {
      std::this_thread::yield();  // resize in flight; the view is settling
      continue;
    }
    result->snapshots.clear();
    result->used_index = false;
    result->evaluated = 0;
    const ReadView* view = read_view_.load(std::memory_order_acquire);
    for (AdeptSystem* system : view->systems) {
      system->CollectQueryMatches(query, result);
    }
    const uint64_t after = read_epoch_.load(std::memory_order_acquire);
    // After a failed resize the epoch never stabilizes; sweep the last
    // published view best-effort instead of spinning forever.
    if (poisoned || before == after) break;
  }
  SortQueryResult(result);
}

Result<QueryResult> AdeptCluster::Query(const std::string& query) const {
  ADEPT_ASSIGN_OR_RETURN(CompiledQuery compiled,
                         CompiledQuery::Compile(query));
  // Surface poisoning as the distinguishing error (like ReadInstance)
  // rather than a silently partial sweep.
  ADEPT_RETURN_IF_ERROR(CheckTopology());
  QueryResult result;
  CollectQueryMatches(compiled, &result);
  // Graceful degradation: snapshots keep serving while a shard lacks its
  // quorum, but the caller is told the data may trail the failed writes.
  result.degraded = ReplicationDegraded();
  return result;
}

void AdeptCluster::ForEachSnapshot(
    const std::function<void(const InstanceSnapshot&)>& fn) const {
  // A match-all query: the sweep is just the degenerate case of the query
  // fan-out (one consolidated epoch-stable read path instead of two).
  QueryResult batch;
  CollectQueryMatches(CompiledQuery::MatchAll(), &batch);
  for (const auto& snapshot : batch) {
    fn(*snapshot);
  }
}

OpResult AdeptCluster::Apply(const InstanceOp& op) {
  static constexpr size_t kOnly[] = {0};
  BatchResult result;
  WriteShard(ShardFor(op), &op, kOnly, 1, &result);
  return result;
}

// --- Dynamic change (fan-out) ------------------------------------------------

Result<MigrationReport> AdeptCluster::MigrateShards(
    const std::function<Result<MigrationReport>(AdeptSystem&)>& migrate) {
  std::lock_guard<std::mutex> schema_lock(schema_mu_);
  ADEPT_RETURN_IF_ERROR(CheckTopology());
  std::vector<Result<MigrationReport>> reports(
      shards_.size(), Result<MigrationReport>(Status::Internal("not run")));
  // Each shard's Migrate announces the instances it changed to the
  // worklist under the shard lock, so no resync follows the fan-out.
  const std::vector<Status> statuses =
      FanOut([&](size_t k, AdeptSystem& system) {
        reports[k] = migrate(system);
        return reports[k].status();
      });
  // A failed shard turns the whole call into an error, but the message
  // names the failed shards and how many instances the successful ones
  // already migrated — that work is committed (and WAL-logged) per shard.
  MigrationReport merged;
  std::string failures;
  size_t migrated = 0;
  for (size_t k = 0; k < shards_.size(); ++k) {
    if (!statuses[k].ok()) {
      failures += (failures.empty() ? "shard " : "; shard ") +
                  std::to_string(k) + ": " + statuses[k].ToString();
      continue;
    }
    migrated += reports[k]->MigratedTotal();
    if (k == 0) {
      merged = std::move(*reports[k]);
      continue;
    }
    for (auto& result : reports[k]->results) {
      merged.results.push_back(std::move(result));
    }
  }
  if (!failures.empty()) {
    return Status::Internal("migration failed on " + failures +
                            " (other shards committed " +
                            std::to_string(migrated) + " migrated instances)");
  }
  return merged;
}

Result<MigrationReport> AdeptCluster::Migrate(SchemaId from, SchemaId to,
                                              const MigrationOptions& options) {
  return MigrateShards([&](AdeptSystem& system) {
    return system.Migrate(from, to, options);
  });
}

Result<MigrationReport> AdeptCluster::MigrateToLatest(
    const std::string& type_name, const MigrationOptions& options) {
  return MigrateShards([&](AdeptSystem& system) {
    return system.MigrateToLatest(type_name, options);
  });
}

// --- Durability / observers --------------------------------------------------

Status AdeptCluster::SaveSnapshot() {
  std::lock_guard<std::mutex> schema_lock(schema_mu_);
  ADEPT_RETURN_IF_ERROR(CheckTopology());
  return SaveSnapshotLocked();
}

Status AdeptCluster::SaveSnapshotLocked() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    // The org rides the shard's stream like a schema fan-out record, so
    // the checkpoint covers it and standbys receive it.
    ADEPT_RETURN_IF_ERROR(shard.system->LogOrg(org_));
    ADEPT_RETURN_IF_ERROR(shard.system->SaveSnapshot());
  }
  return Status::OK();
}

Result<uint64_t> AdeptCluster::RecordClaim(
    InstanceId id, NodeId node, UserId user, uint64_t epoch,
    const std::function<Status()>& transition) {
  ADEPT_RETURN_IF_ERROR(CheckTopology());
  Shard& shard = *shards_[ShardOf(id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.system->RecordClaim(id, node, user, epoch, transition);
}

Status AdeptCluster::WaitClaimDurable(InstanceId id, uint64_t lsn) {
  return WaitShardDurable(ShardOf(id), lsn);
}

// --- Replication -------------------------------------------------------------

Status AdeptCluster::AttachReplication(const ReplicationOptions& options) {
  std::lock_guard<std::mutex> schema_lock(schema_mu_);
  ADEPT_RETURN_IF_ERROR(CheckTopology());
  if (!replication_.empty()) {
    return Status::FailedPrecondition(
        "replication is already attached; DetachReplication() first");
  }
  if (options_.wal_path.empty() || options_.snapshot_path.empty()) {
    return Status::FailedPrecondition(
        "replication needs configured WAL and snapshot paths");
  }
  ADEPT_ASSIGN_OR_RETURN(uint64_t epoch,
                         ReadReplicationEpoch(options_.wal_path));

  std::vector<std::unique_ptr<ReplicationPrimary>> primaries;
  for (size_t k = 0; k < shards_.size(); ++k) {
    std::shared_ptr<Shard> shard_ptr = shards_[k];
    WalWriter* writer = shard_ptr->system->wal_writer();
    if (writer == nullptr) {
      return Status::Internal("shard " + std::to_string(k) +
                              " has no WAL writer to replicate");
    }
    ReplicationSource source;
    source.shard = k;
    source.wal_path = ShardRouting::PathFor(options_.wal_path, k);
    source.snapshot_path = ShardRouting::PathFor(options_.snapshot_path, k);
    // The snapshot-transfer path checkpoints the shard so the blob it
    // ships is fresh; the shard lock mirrors SaveSnapshotLocked().
    source.checkpoint = [shard_ptr]() -> Status {
      std::lock_guard<std::mutex> lock(shard_ptr->mu);
      return shard_ptr->system->SaveSnapshot();
    };
    source.epoch = epoch;
    source.start_lsn = writer->durable_lsn();
    ADEPT_ASSIGN_OR_RETURN(auto primary,
                           ReplicationPrimary::Start(source, options));
    primaries.push_back(std::move(primary));
  }

  // All primaries came up — only now arm the commit hooks, so a partial
  // failure above leaves commits purely local.
  for (size_t k = 0; k < shards_.size(); ++k) {
    shards_[k]->system->wal_writer()->SetCommitHook(primaries[k].get());
  }
  replication_ = std::move(primaries);
  replication_epoch_ = epoch;
  return Status::OK();
}

void AdeptCluster::DetachReplication() {
  if (replication_.empty()) return;
  // Disarm the hooks first so no commit can reach a stopping primary.
  for (auto& shard_ptr : shards_) {
    WalWriter* writer = shard_ptr->system->wal_writer();
    if (writer != nullptr) writer->SetCommitHook(nullptr);
  }
  for (auto& primary : replication_) primary->Stop();
  replication_.clear();
  replication_epoch_ = 0;
}

Status AdeptCluster::CheckShardWritable(size_t shard_index) const {
  if (shard_index >= replication_.size()) return Status::OK();
  const ReplicationPrimary* primary = replication_[shard_index].get();
  if (primary == nullptr) return Status::OK();
  return primary->CheckWritable();
}

bool AdeptCluster::ReplicationDegraded() const {
  for (const auto& primary : replication_) {
    if (primary != nullptr && !primary->HasLiveQuorum()) return true;
  }
  return false;
}

ClusterReplicationStatus AdeptCluster::ReplicationStatus() const {
  ClusterReplicationStatus status;
  status.attached = !replication_.empty();
  status.epoch = replication_epoch_;
  for (const auto& primary : replication_) {
    if (primary != nullptr) status.shards.push_back(primary->GetStatus());
  }
  return status;
}

Status AdeptCluster::WaitShardDurable(size_t shard_index, uint64_t lsn) {
  if (shard_index >= shards_.size()) {
    return Status::InvalidArgument(
        StrFormat("no shard %zu in a %zu-shard cluster", shard_index,
                  shards_.size()));
  }
  return shards_[shard_index]->system->WaitWalDurable(lsn);
}

JsonValue ClusterReplicationStatus::ToJson() const {
  JsonValue shard_list = JsonValue::MakeArray();
  for (const PrimaryStatus& shard : shards) {
    shard_list.Append(shard.ToJson());
  }
  JsonValue j = JsonValue::MakeObject();
  j.Set("attached", JsonValue(attached));
  j.Set("epoch", JsonValue(epoch));
  j.Set("degraded", JsonValue(degraded()));
  j.Set("shards", std::move(shard_list));
  return j;
}

void AdeptCluster::AddObserver(InstanceObserver* observer) {
  observers_.push_back(observer);
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.system->AddObserver(observer);
  }
}

// --- Elastic resizing --------------------------------------------------------

Status AdeptCluster::Resize(int new_shard_count) {
  if (new_shard_count < 1) {
    return Status::InvalidArgument("cluster needs at least one shard");
  }
  const size_t m = static_cast<size_t>(new_shard_count);
  std::lock_guard<std::mutex> schema_lock(schema_mu_);
  if (schema_poisoned_) return SchemaPoisoned();
  ADEPT_RETURN_IF_ERROR(CheckTopology());
  if (!replication_.empty()) {
    return Status::FailedPrecondition(
        "cannot resize while replication is attached; DetachReplication(), "
        "resize primary and replicas to the same shard count, re-attach");
  }
  const size_t n = shards_.size();
  if (m == n) return Status::OK();

  // Drain every shard's writer so the handover below never interleaves
  // with records still in flight.
  for (auto& shard_ptr : shards_) {
    AdeptSystem& system = *shard_ptr->system;
    ADEPT_RETURN_IF_ERROR(system.WaitWalDurable(system.last_enqueued_lsn()));
  }

  // Grow: fresh shards with fresh ".shard<k>" files, the replicated
  // schema history, and the same observer set as the original shards.
  // A failure here rolls back cleanly — nothing but the fresh shards
  // (and their empty files) exists yet.
  if (m > n) {
    Status grown = [&]() -> Status {
      for (size_t k = n; k < m; ++k) {
        auto shard = std::make_shared<Shard>();
        ADEPT_ASSIGN_OR_RETURN(
            shard->system,
            AdeptSystem::Create(ShardOptions(options_, static_cast<int>(k))));
        ADEPT_ASSIGN_OR_RETURN(shard->driver,
                               MakeShardDriver(options_, static_cast<int>(k)));
        shard->system->AddObserver(worklist_.get());
        for (InstanceObserver* observer : observers_) {
          shard->system->AddObserver(observer);
        }
        shards_.push_back(std::move(shard));
      }
      return ReplicateSchemasToFreshShards({});
    }();
    if (!grown.ok()) {
      while (shards_.size() > n) {
        const size_t k = shards_.size() - 1;
        shards_.pop_back();
        RemoveShardFiles(options_, k);
      }
      return grown;
    }
  }

  // Swap the routing invariant and move what it now places elsewhere. The
  // worklist survives untouched: items (including claims) are keyed by
  // instance id, and the export/import handover fires no instance events.
  // From here on a failure leaves in-memory placement inconsistent with
  // the routing — poison the cluster so every later call fails loudly
  // (the durable state is intact; Recover() rebuilds a consistent one).
  //
  // Lock-free readers keep running throughout (they are the one facade
  // call exempt from the quiescence contract): the epoch goes odd here,
  // so a reader that misses an instance mid-move — evicted at the source,
  // view not yet republished — retries instead of reporting NotFound,
  // and the old ReadView's shared_ptrs keep retired shards alive for
  // readers still inside them.
  read_epoch_.fetch_add(1, std::memory_order_acq_rel);
  routing_ = ShardRouting(m);
  Status applied = [&]() -> Status {
    ADEPT_RETURN_IF_ERROR(MoveMisplacedInstances(nullptr));
    options_.shards = new_shard_count;

    // Checkpoint the new topology before any old file is retired: with
    // snapshots configured the drained shards' durable copies become
    // redundant; without them the WAL-logged moves already carry the new
    // placement.
    if (!options_.snapshot_path.empty()) {
      ADEPT_RETURN_IF_ERROR(SaveSnapshotLocked());
    }

    // Shrink: retire the drained shards and their durability files. The
    // Shard objects are parked, not destroyed: a lock-free reader inside
    // a stale ReadView may still dereference their systems.
    while (shards_.size() > m) {
      const size_t k = shards_.size() - 1;
      retired_shards_.push_back(std::move(shards_.back()));
      shards_.pop_back();
      RemoveShardFiles(options_, k);
    }

    return DeriveShardAllocators(n);
  }();
  if (!applied.ok()) {
    // The epoch stays odd; FindSnapshot's poison check turns retrying
    // readers into kFailedPrecondition instead of a spin.
    topology_poisoned_.store(true, std::memory_order_release);
    return applied;
  }

  // Publish the new topology to lock-free readers, then stabilize the
  // epoch (even again): from here a miss is a genuine miss.
  PublishReadView();
  read_epoch_.fetch_add(1, std::memory_order_acq_rel);

  pool_ = MakePool(m);

  // Self-check sweep: reconcile the worklist with engine truth under the
  // new placement (a no-op when the handover was clean), through the
  // handler a migration's announcements run.
  ForEachInstance([this](const ProcessInstance& instance) {
    worklist_->OnInstanceMigrated(instance);
  });
  return Status::OK();
}

// --- Batch execution ---------------------------------------------------------

// Pipelined routing: the engine turns and the WAL enqueues happen under the
// shard lock, the durability wait after it — a thread working shard A waits
// for A's writer while a thread on shard B is already inside B's engine.
void AdeptCluster::WriteShard(size_t shard_index, const InstanceOp* ops,
                              const size_t* group, size_t count,
                              BatchResult* results) {
  // Fenced / no-live-quorum shards refuse BEFORE mutating: the caller can
  // safely re-issue elsewhere, which a mid-flight quorum timeout (maybe-
  // applied) never allows. Healthy shards of the same batch proceed.
  Status gate = CheckTopology();
  if (gate.ok()) gate = CheckShardWritable(shard_index);
  if (!gate.ok()) {
    for (size_t i = 0; i < count; ++i) {
      BatchResult& result = results[group[i]];
      result.status = gate;
      result.id = ops[group[i]].id;
      result.shard = shard_index;
    }
    return;
  }
  Shard& shard = *shards_[shard_index];
  AdeptSystem& system = *shard.system;
  uint64_t first_lsn = 0;
  uint64_t last_lsn = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    first_lsn = system.last_enqueued_lsn();
    for (size_t i = 0; i < count; ++i) {
      const InstanceOp& op = ops[group[i]];
      BatchResult& result = results[group[i]];
      if (op.kind == InstanceOp::Kind::kCreate) {
        // A create gets this shard's next shard-affine id.
        InstanceOp placed = op;
        placed.id = routing_.IdFor(shard_index, shard.next_seq++);
        result = system.Apply(placed);
      } else if (op.kind == InstanceOp::Kind::kDriveStep &&
                 op.driver == nullptr) {
        // A step that names no driver runs with this shard's own.
        InstanceOp placed = op;
        placed.driver = shard.driver.get();
        result = system.Apply(placed);
      } else {
        result = system.Apply(op);
      }
      result.shard = shard_index;
    }
    last_lsn = system.last_enqueued_lsn();
  }
  // Group commit: one durability wait covers the whole group. On failure
  // every op that reported success is downgraded — its record may not
  // have survived.
  if (last_lsn == first_lsn) return;
  Status durable = system.WaitWalDurable(last_lsn);
  if (durable.ok()) return;
  for (size_t i = 0; i < count; ++i) {
    BatchResult& result = results[group[i]];
    if (result.status.ok()) result.status = durable;
  }
}

std::vector<AdeptCluster::BatchResult> AdeptCluster::SubmitBatch(
    const std::vector<BatchOp>& ops) {
  std::vector<BatchResult> results(ops.size());
  // Route every op up front (creates get their round-robin placement here),
  // then run one task per shard that has work.
  std::vector<std::vector<size_t>> by_shard(shards_.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    by_shard[ShardFor(ops[i])].push_back(i);
  }
  std::vector<std::function<void()>> tasks;
  for (size_t shard_index = 0; shard_index < by_shard.size(); ++shard_index) {
    const std::vector<size_t>& group = by_shard[shard_index];
    if (group.empty()) continue;
    tasks.push_back([this, shard_index, &group, &ops, &results] {
      WriteShard(shard_index, ops.data(), group.data(), group.size(),
                 results.data());
    });
  }
  RunParallel(std::move(tasks));
  return results;
}

}  // namespace adept
