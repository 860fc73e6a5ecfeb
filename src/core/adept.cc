#include "core/adept.h"

#include <cstdio>
#include <filesystem>

#include "common/fs_util.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "compliance/adhoc.h"
#include "model/serialization.h"
#include "storage/state_serialization.h"
#include "verify/verifier.h"

namespace adept {

namespace {

// The warnings of the version a deploy or evolution just stored. Replay
// calls neither: they were logged when the version was made.
void LogVersionWarnings(const char* action, SchemaRepository& repository,
                        SchemaId id) {
  auto schema = repository.Get(id);
  auto report = repository.ReportFor(id);
  if (!schema.ok() || !report.ok()) return;
  for (const auto& issue : (*report)->issues()) {
    if (issue.severity != VerifySeverity::kWarning) continue;
    ADEPT_LOG(kWarning) << action << " " << (*schema)->type_name() << " v"
                        << (*schema)->version() << ": ["
                        << VerifyRuleId(issue.rule) << "] " << issue.message;
  }
}

}  // namespace

AdeptSystem::AdeptSystem(const AdeptOptions& options) : options_(options) {
  engine_.set_observer(&fanout_);
  // The ledger drops a claim when its node's run ends, live and on replay.
  fanout_.Add(&claims_);
}

Status AdeptSystem::OpenWalIfConfigured(uint64_t min_last_lsn,
                                        const WalScan* prescan) {
  if (options_.wal_path.empty()) return Status::OK();
  WalWriterOptions writer_options;
  writer_options.sync = options_.sync;
  writer_options.min_last_lsn = min_last_lsn;
  ADEPT_ASSIGN_OR_RETURN(
      wal_, WalWriter::Open(options_.wal_path, writer_options, prescan));
  return Status::OK();
}

Result<std::unique_ptr<AdeptSystem>> AdeptSystem::Create(
    const AdeptOptions& options) {
  std::unique_ptr<AdeptSystem> system(new AdeptSystem(options));
  ADEPT_RETURN_IF_ERROR(system->OpenWalIfConfigured());
  // A fresh system starts a fresh history — durably: a stale snapshot left
  // on disk would otherwise be resurrected by a later Recover() (which
  // would also skip this run's WAL records below its covered LSN).
  if (!options.snapshot_path.empty()) {
    std::error_code ec;
    std::filesystem::remove(options.snapshot_path, ec);
    if (ec) {
      return Status::Corruption("cannot discard stale snapshot '" +
                                options.snapshot_path + "': " + ec.message());
    }
  }
  if (system->wal_ != nullptr) {
    ADEPT_RETURN_IF_ERROR(system->wal_->Truncate());
  }
  return system;
}

Result<std::unique_ptr<AdeptSystem>> AdeptSystem::Recover(
    const AdeptOptions& options) {
  std::unique_ptr<AdeptSystem> system(new AdeptSystem(options));
  system->recovering_ = true;

  uint64_t snapshot_lsn = 0;
  if (!options.snapshot_path.empty() &&
      std::filesystem::exists(options.snapshot_path)) {
    ADEPT_ASSIGN_OR_RETURN(std::string content,
                           ReadFileToString(options.snapshot_path));
    ADEPT_ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(content));
    ADEPT_RETURN_IF_ERROR(system->LoadSnapshotJson(json, &snapshot_lsn));
  }

  WalScan scan;
  if (!options.wal_path.empty()) {
    // One parse pass serves both the replay below and the writer open at
    // the end (historically Open() rescanned the file a second time).
    ADEPT_ASSIGN_OR_RETURN(scan, WriteAheadLog::Scan(options.wal_path));
    for (const WalRecord& record : scan.records) {
      // Records at or below the snapshot's covered LSN are already part of
      // the snapshot state; replaying them would double-apply (the window
      // exists when a checkpoint wrote the snapshot but failed to truncate).
      if (record.lsn <= snapshot_lsn) continue;
      Status st = system->ApplyWalRecord(record.value);
      if (!st.ok()) {
        return Status::Corruption("WAL replay failed at record " +
                                  record.value.Dump() + ": " + st.message());
      }
    }
  }

  system->recovering_ = false;
  // One bulk snapshot publication instead of one per replayed record: the
  // lock-free read path serves the recovered state from here on.
  system->PublishAllSnapshots();
  // Seed LSN numbering past the snapshot's coverage: after a checkpoint
  // truncated the log, the file alone would restart at 1 and the *next*
  // recovery would skip the new records as already covered.
  ADEPT_RETURN_IF_ERROR(system->OpenWalIfConfigured(snapshot_lsn, &scan));
  return system;
}

Status AdeptSystem::Log(const JsonValue& record) {
  if (!Logging()) return Status::OK();
  last_enqueued_lsn_ = wal_->Enqueue(record);
  if (options_.defer_wal_sync) return Status::OK();
  return wal_->WaitDurable(last_enqueued_lsn_);
}

Status AdeptSystem::WaitWalDurable(uint64_t lsn) {
  if (wal_ == nullptr || lsn == 0) return Status::OK();
  return wal_->WaitDurable(lsn);
}

// --- Buildtime ---------------------------------------------------------------

Result<SchemaId> AdeptSystem::DeployProcessType(
    std::shared_ptr<const ProcessSchema> schema) {
  ADEPT_ASSIGN_OR_RETURN(SchemaId id, repository_.Deploy(std::move(schema)));
  if (recovering_) return id;
  LogVersionWarnings("deploy", repository_, id);
  if (wal_ == nullptr) return id;
  ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<const ProcessSchema> deployed,
                         repository_.Get(id));
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("deploy"));
  record.Set("id", JsonValue(id.value()));
  record.Set("schema", SchemaToJson(*deployed));
  ADEPT_RETURN_IF_ERROR(Log(record));
  return id;
}

Result<SchemaId> AdeptSystem::EvolveProcessType(SchemaId base, Delta delta) {
  ADEPT_ASSIGN_OR_RETURN(SchemaId id,
                         repository_.DeriveVersion(base, std::move(delta)));
  if (recovering_) return id;
  LogVersionWarnings("evolve", repository_, id);
  if (wal_ == nullptr) return id;
  // The stored delta carries the pins its application captured.
  ADEPT_ASSIGN_OR_RETURN(const Delta* stored, repository_.DeltaFor(id));
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("evolve"));
  record.Set("base", JsonValue(base.value()));
  record.Set("id", JsonValue(id.value()));
  record.Set("delta", stored->ToJson());
  ADEPT_RETURN_IF_ERROR(Log(record));
  return id;
}

Result<SchemaId> AdeptSystem::LatestVersion(
    const std::string& type_name) const {
  return repository_.Latest(type_name);
}

Result<std::shared_ptr<const ProcessSchema>> AdeptSystem::Schema(
    SchemaId id) const {
  return repository_.Get(id);
}

// --- Instance lifecycle ------------------------------------------------------

Result<InstanceId> AdeptSystem::CreateInstanceInternal(SchemaId schema_id,
                                                       InstanceId forced_id) {
  ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<const ProcessSchema> schema,
                         repository_.Get(schema_id));
  ProcessInstance* instance = nullptr;
  if (forced_id.valid()) {
    ADEPT_ASSIGN_OR_RETURN(instance,
                           engine_.AdoptInstance(forced_id, schema, schema_id));
  } else {
    ADEPT_ASSIGN_OR_RETURN(instance, engine_.CreateInstance(schema, schema_id));
  }
  Status st = store_.Register(instance->id(), schema_id,
                              options_.default_strategy);
  if (!st.ok()) {
    (void)engine_.Remove(instance->id());
    return st;
  }
  st = instance->Start();
  if (!st.ok()) {
    (void)store_.Unregister(instance->id());
    (void)engine_.Remove(instance->id());
    return st;
  }
  PublishSnapshot(instance->id());
  return instance->id();
}

std::shared_ptr<const InstanceSnapshot> AdeptSystem::SnapshotOf(
    InstanceId id) const {
  return snapshots_.Get(id);
}

void AdeptSystem::PublishSnapshot(InstanceId id) {
  if (recovering_) return;
  const ProcessInstance* instance = engine_.Find(id);
  if (instance == nullptr) {
    ErasePublishedSnapshot(id);
    return;
  }
  std::shared_ptr<InstanceSnapshot> snapshot = instance->BuildSnapshot();
  // The table swap returns the superseded snapshot: exactly the delta the
  // query indexes need. Publication is serialized per system, so the
  // index trails the table by at most this one call — and the query
  // executor re-validates every candidate against the table anyway.
  std::shared_ptr<const InstanceSnapshot> previous =
      snapshots_.Publish(snapshot);
  if (options_.query_indexes) {
    query_index_.ApplyDelta(previous.get(), snapshot.get());
  }
}

void AdeptSystem::ErasePublishedSnapshot(InstanceId id) {
  std::shared_ptr<const InstanceSnapshot> previous = snapshots_.Erase(id);
  if (options_.query_indexes && previous != nullptr) {
    query_index_.ApplyDelta(previous.get(), nullptr);
  }
  // Snapshot versions restart at 1 if the id is ever re-imported; dropping
  // the cached serialization now keeps the version a valid fingerprint.
  checkpoint_cache_.erase(id.value());
}

void AdeptSystem::PublishAllSnapshots() {
  for (InstanceId id : engine_.InstanceIds()) {
    PublishSnapshot(id);
  }
}

Result<QueryResult> AdeptSystem::Query(const std::string& query) const {
  ADEPT_ASSIGN_OR_RETURN(CompiledQuery compiled,
                         CompiledQuery::Compile(query));
  return RunQuery(compiled, snapshots_,
                  options_.query_indexes ? &query_index_ : nullptr);
}

void AdeptSystem::CollectQueryMatches(const CompiledQuery& query,
                                      QueryResult* result) const {
  RunQueryInto(query, snapshots_,
               options_.query_indexes ? &query_index_ : nullptr, result);
}

Status AdeptSystem::WithInstance(
    InstanceId id,
    const std::function<void(const ProcessInstance&)>& fn) const {
  const ProcessInstance* instance = engine_.Find(id);
  if (instance == nullptr) return Status::NotFound("no such instance");
  fn(*instance);
  return Status::OK();
}

OpResult AdeptSystem::Apply(const InstanceOp& op) {
  using Kind = InstanceOp::Kind;
  OpResult result;
  result.id = op.id;
  result.status = [&]() -> Status {
    const bool logging = Logging();
    ProcessInstance* instance = nullptr;
    if (op.kind != Kind::kCreate) {
      instance = engine_.Find(op.id);
      if (instance == nullptr) return Status::NotFound("no such instance");
    }
    // kAdHocChange: the ops the change pinned onto the bias, the record's
    // delta against the bias the replayed prefix already rebuilt.
    JsonValue pinned_ops;
    switch (op.kind) {
      case Kind::kCreate: {
        SchemaId schema = op.schema;
        if (!schema.valid()) {
          ADEPT_ASSIGN_OR_RETURN(schema, repository_.Latest(op.type_name));
        }
        ADEPT_ASSIGN_OR_RETURN(result.id,
                               CreateInstanceInternal(schema, op.id));
        if (!logging) return Status::OK();
        return Log(InstanceOp::CreateOn(schema, result.id).ToRecord());
      }
      case Kind::kStart:
        ADEPT_RETURN_IF_ERROR(instance->StartActivity(op.node));
        break;
      case Kind::kComplete:
        ADEPT_RETURN_IF_ERROR(instance->CompleteActivity(op.node, op.writes));
        break;
      case Kind::kFail:
        ADEPT_RETURN_IF_ERROR(instance->FailActivity(op.node, op.reason));
        break;
      case Kind::kRetry:
        ADEPT_RETURN_IF_ERROR(instance->RetryActivity(op.node));
        break;
      case Kind::kSuspend:
        ADEPT_RETURN_IF_ERROR(instance->SuspendActivity(op.node));
        break;
      case Kind::kResume:
        ADEPT_RETURN_IF_ERROR(instance->ResumeActivity(op.node));
        break;
      case Kind::kSelectBranch:
        ADEPT_RETURN_IF_ERROR(
            instance->SelectBranch(op.node, op.branch_value));
        break;
      case Kind::kLoopDecision:
        ADEPT_RETURN_IF_ERROR(instance->SetLoopDecision(op.node, op.iterate));
        break;
      case Kind::kDriveStep: {
        if (op.driver == nullptr) {
          return Status::InvalidArgument("a drive step needs a driver");
        }
        SimulationDriver::PlannedStep step = op.driver->PlanStep(*instance);
        if (!step.node.valid()) return Status::OK();
        ADEPT_RETURN_IF_ERROR(
            Apply(InstanceOp::Start(op.id, step.node)).status);
        ADEPT_RETURN_IF_ERROR(
            Apply(InstanceOp::Complete(op.id, step.node,
                                       std::move(step.writes)))
                .status);
        result.progressed = true;
        return Status::OK();
      }
      case Kind::kAdHocChange: {
        if (op.delta == nullptr) {
          return Status::InvalidArgument("an ad-hoc op needs a delta");
        }
        ADEPT_ASSIGN_OR_RETURN(const InstanceStore::Record* record,
                               store_.Get(op.id));
        const size_t prior_ops = record->bias.size();
        ADEPT_RETURN_IF_ERROR(adept::ApplyAdHocChange(
            *instance, store_, *op.delta, /*log_warnings=*/!recovering_));
        if (logging) {
          pinned_ops = JsonValue::MakeArray();
          const auto& bias_ops = record->bias.ops();
          for (size_t i = prior_ops; i < bias_ops.size(); ++i) {
            pinned_ops.Append(bias_ops[i]->ToJson());
          }
        }
        break;
      }
    }
    PublishSnapshot(op.id);
    if (!logging) return Status::OK();
    return Log(op.ToRecord(std::move(pinned_ops)));
  }();
  result.lsn = last_enqueued_lsn_;
  return result;
}

WorklistService& AdeptSystem::worklists() {
  if (worklists_ == nullptr) {
    WorklistServiceOptions options;
    options.segments = 1;  // single-threaded facade: nothing to spread
    worklists_ = WorklistService::Recover(
        &org_, this, options,
        [this](const WorklistService::InstanceVisitor& visit) {
          for (InstanceId id : engine_.InstanceIds()) visit(*engine_.Find(id));
        },
        {&claims_});
    fanout_.Add(worklists_.get());
  }
  return *worklists_;
}

Status AdeptSystem::LogOrg(const OrgModel& org) {
  logged_org_ = org.ToJson();
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("org"));
  record.Set("org", logged_org_);
  return Log(record);
}

Result<uint64_t> AdeptSystem::RecordClaim(
    InstanceId id, NodeId node, UserId user, uint64_t epoch,
    const std::function<Status()>& transition) {
  ADEPT_RETURN_IF_ERROR(transition());
  claims_.Set(id, node, user, epoch);
  JsonValue record;
  if (user.valid()) {
    record = ClaimLedger::EntryToJson(id, node, {user, epoch});
    record.Set("t", JsonValue("claim"));
  } else {
    record = JsonValue::MakeObject();
    record.Set("t", JsonValue("release"));
    record.Set("id", JsonValue(id.value()));
    record.Set("node", JsonValue(node.value()));
  }
  if (wal_ != nullptr) last_enqueued_lsn_ = wal_->Enqueue(record);
  return last_enqueued_lsn_;
}

Status AdeptSystem::WaitClaimDurable(InstanceId /*id*/, uint64_t lsn) {
  return WaitWalDurable(lsn);
}

Result<MigrationReport> AdeptSystem::Migrate(SchemaId from, SchemaId to,
                                             const MigrationOptions& options) {
  ADEPT_ASSIGN_OR_RETURN(MigrationReport report,
                         migration_manager_.MigrateAll(from, to, options));
  // No instance on `from`: nothing changed, and replaying a record would
  // find nothing either, so none is logged.
  if (options.dry_run || report.results.empty()) return report;
  // Migration changes instances below the facade's per-call hooks, and a
  // bias cancellation remaps node ids without node events: republish each
  // changed instance and announce it to the observers, whose handlers
  // (the claim ledger, a worklist) reconcile it. Instances that stay
  // behind keep their snapshot, and with its version their cached
  // checkpoint entry.
  for (const auto& result : report.results) {
    if (!ChangesInstance(result.outcome)) continue;
    PublishSnapshot(result.id);
    if (const ProcessInstance* instance = engine_.Find(result.id)) {
      fanout_.OnInstanceMigrated(*instance);
    }
  }
  if (!Logging()) return report;
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("migrate"));
  record.Set("from", JsonValue(from.value()));
  record.Set("to", JsonValue(to.value()));
  record.Set("use_replay", JsonValue(options.use_replay_checker));
  ADEPT_RETURN_IF_ERROR(Log(record));
  return report;
}

Result<MigrationReport> AdeptSystem::MigrateToLatest(
    const std::string& type_name, const MigrationOptions& options) {
  std::vector<SchemaId> versions = repository_.VersionsOf(type_name);
  if (versions.size() < 2) {
    return Status::FailedPrecondition("type has no newer version");
  }
  // A pair with no instance on its source version costs Migrate a few
  // repository lookups and logs nothing; it still carries the header.
  MigrationReport merged;
  for (size_t i = 1; i < versions.size(); ++i) {
    ADEPT_ASSIGN_OR_RETURN(MigrationReport step,
                           Migrate(versions[i - 1], versions[i], options));
    if (i == 1) {
      merged = std::move(step);
    } else {
      merged.to = step.to;
      merged.to_version = step.to_version;
      for (auto& r : step.results) merged.results.push_back(std::move(r));
    }
  }
  return merged;
}

// --- Durability --------------------------------------------------------------

Result<JsonValue> AdeptSystem::InstanceToJson(InstanceId id) const {
  const ProcessInstance* instance = engine_.Find(id);
  if (instance == nullptr) return Status::NotFound("no such instance");
  ADEPT_ASSIGN_OR_RETURN(const InstanceStore::Record* record, store_.Get(id));
  ++full_state_serializations_;
  JsonValue ij = JsonValue::MakeObject();
  ij.Set("id", JsonValue(id.value()));
  ij.Set("base", JsonValue(record->base_schema.value()));
  ij.Set("strategy", JsonValue(static_cast<int>(record->strategy)));
  if (record->biased()) ij.Set("bias", record->bias.ToJson());
  ij.Set("state", InstanceStateToJson(*instance));
  return ij;
}

Status AdeptSystem::AdoptInstanceFromJson(const JsonValue& ij,
                                          TraceNotePool& notes) {
  InstanceId id(static_cast<uint64_t>(ij.Get("id").as_int()));
  SchemaId base(static_cast<uint64_t>(ij.Get("base").as_int()));
  auto strategy = static_cast<StorageStrategy>(ij.Get("strategy").as_int());
  ADEPT_RETURN_IF_ERROR(store_.Register(id, base, strategy));
  bool biased = ij.Has("bias");
  if (biased) {
    ADEPT_ASSIGN_OR_RETURN(Delta bias, Delta::FromJson(ij.Get("bias")));
    ADEPT_RETURN_IF_ERROR(store_.AddBias(id, std::move(bias)).status());
  }
  ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<const SchemaView> view,
                         store_.ExecutionSchema(id));
  auto adopted = engine_.AdoptInstance(id, view, base);
  if (!adopted.ok()) {
    (void)store_.Unregister(id);
    return adopted.status();
  }
  (*adopted)->set_biased(biased);
  ADEPT_RETURN_IF_ERROR(
      RestoreInstanceState(**adopted, ij.Get("state"), notes));
  // An import carries the instance's claims (snapshot entries carry none:
  // the snapshot holds the whole ledger).
  ADEPT_RETURN_IF_ERROR(claims_.AddFromJson(ij.Get("claims")));
  // Live imports (cross-shard handover) must be readable immediately;
  // during recovery PublishSnapshot is a no-op and Recover() bulk-
  // publishes at the end.
  PublishSnapshot(id);
  return Status::OK();
}

Status AdeptSystem::LoadSnapshotJson(const JsonValue& json,
                                     uint64_t* wal_lsn) {
  if (json.Get("format").as_int() != 1) {
    return Status::Corruption("unsupported snapshot format");
  }
  // Pre-LSN snapshots carry no "wal_lsn"; Get() then yields null/0, which
  // reproduces the old replay-everything behavior.
  *wal_lsn = static_cast<uint64_t>(json.Get("wal_lsn").as_int());
  ADEPT_RETURN_IF_ERROR(repository_.LoadFromJson(json.Get("repo")));
  // Equal detail texts share one note across the loaded instances.
  TraceNotePool notes;
  for (const JsonValue& ij : json.Get("instances").as_array()) {
    ADEPT_RETURN_IF_ERROR(AdoptInstanceFromJson(ij, notes));
  }
  ADEPT_RETURN_IF_ERROR(claims_.AddFromJson(json.Get("claims")));
  logged_org_ = json.Get("org");
  return Status::OK();
}

// --- Cross-shard instance migration ------------------------------------------

Result<JsonValue> AdeptSystem::ExportInstance(InstanceId id) const {
  ADEPT_ASSIGN_OR_RETURN(JsonValue exported, InstanceToJson(id));
  exported.Set("claims", claims_.ToJson(id));
  return exported;
}

Status AdeptSystem::ImportInstance(const JsonValue& exported) {
  TraceNotePool notes;
  ADEPT_RETURN_IF_ERROR(AdoptInstanceFromJson(exported, notes));
  if (!Logging()) return Status::OK();
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("import"));
  record.Set("inst", exported);
  return Log(record);
}

Status AdeptSystem::EvictInstance(InstanceId id) {
  ADEPT_RETURN_IF_ERROR(engine_.Remove(id));
  (void)store_.Unregister(id);
  claims_.EraseInstance(id);
  // The cluster's epoch-checked read path retries a miss while a resize
  // is in flight, so erasing here never turns a live instance invisible:
  // by the time the routing epoch stabilizes, the import side's snapshot
  // (and its index entries) is published.
  ErasePublishedSnapshot(id);
  if (!Logging()) return Status::OK();
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("evict"));
  record.Set("id", JsonValue(id.value()));
  return Log(record);
}

Status AdeptSystem::ReplicateSchemas(const JsonValue& repo_json) {
  ADEPT_RETURN_IF_ERROR(repository_.LoadFromJson(repo_json));
  if (!Logging()) return Status::OK();
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("repo"));
  record.Set("repo", repo_json);
  return Log(record);
}

Status AdeptSystem::SaveSnapshot() {
  if (options_.snapshot_path.empty()) {
    return Status::FailedPrecondition("no snapshot path configured");
  }
  // The snapshot is built from in-memory state, which already reflects
  // every enqueued record, so it covers everything up to this LSN — even
  // records the writer thread has not flushed yet. It keeps only the
  // claims of live activities; nothing but a damaged or hand-edited log
  // leaves others in the ledger.
  const uint64_t cover = wal_ != nullptr ? wal_->last_enqueued_lsn() : 0;
  claims_.Prune(engine_);
  // The file holds the bytes Dump() would write for one snapshot object,
  // key by key in Dump()'s sorted order, so they do not depend on where an
  // instance's text came from. An instance whose published version is
  // unchanged since the previous checkpoint reuses that checkpoint's text
  // (every facade mutation republishes before logging): a checkpoint
  // serializes only what changed and holds no tree of the whole state.
  std::string file = "{\"claims\":" + claims_.ToJson().Dump() +
                     ",\"format\":1,\"instances\":[";
  std::unordered_map<uint64_t, CachedInstanceText> next_cache;
  for (InstanceId id : store_.Ids()) {
    std::shared_ptr<const InstanceSnapshot> published = snapshots_.Get(id);
    auto cached = checkpoint_cache_.find(id.value());
    std::string text;
    if (published != nullptr && cached != checkpoint_cache_.end() &&
        cached->second.version == published->version) {
      text = std::move(cached->second.text);
    } else {
      auto ij = InstanceToJson(id);
      if (!ij.ok()) continue;
      text = ij->Dump();
    }
    if (file.back() != '[') file += ',';
    file += text;
    if (published != nullptr) {
      next_cache.emplace(id.value(), CachedInstanceText{published->version,
                                                        std::move(text)});
    }
  }
  // Swapping (not merging) also drops entries of evicted instances.
  checkpoint_cache_ = std::move(next_cache);
  file += ']';
  if (!logged_org_.is_null()) file += ",\"org\":" + logged_org_.Dump();
  // Every WAL record with an LSN <= cover is folded into this snapshot;
  // recovery must not replay them again.
  file += ",\"repo\":" + repository_.ToJson().Dump() +
          ",\"wal_lsn\":" + std::to_string(cover) + "}";
  ADEPT_RETURN_IF_ERROR(WriteFileAtomic(options_.snapshot_path, file));
  if (wal_ != nullptr) {
    // If this truncation fails, the stale records stay in the log but carry
    // LSNs <= cover, so recovery skips them: no double-apply.
    ADEPT_RETURN_IF_ERROR(wal_->Truncate());
  }
  return Status::OK();
}

// --- WAL replay --------------------------------------------------------------

Status AdeptSystem::ApplyWalRecord(const JsonValue& record) {
  const std::string& type = record.Get("t").as_string();
  auto id_of = [&](const char* key) {
    return static_cast<uint64_t>(record.Get(key).as_int());
  };
  // Each record runs the call that logged it. A schema call must allocate
  // the id it logged.
  auto same_id = [&](const Result<SchemaId>& id) -> Status {
    ADEPT_RETURN_IF_ERROR(id.status());
    if (id->value() != id_of("id")) {
      return Status::Corruption("schema id diverged during replay");
    }
    return Status::OK();
  };
  if (type == "deploy") {
    ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<ProcessSchema> schema,
                           SchemaFromJson(record.Get("schema")));
    return same_id(DeployProcessType(std::move(schema)));
  }
  if (type == "evolve") {
    ADEPT_ASSIGN_OR_RETURN(Delta delta, Delta::FromJson(record.Get("delta")));
    return same_id(
        EvolveProcessType(SchemaId(id_of("base")), std::move(delta)));
  }
  if (type == "repo") return ReplicateSchemas(record.Get("repo"));
  if (type == "import") return ImportInstance(record.Get("inst"));
  if (type == "evict") {
    // Tolerate an already-absent instance: an evict whose import side was
    // checkpointed away replays against a shard that never re-created it.
    const InstanceId evicted(id_of("id"));
    if (engine_.Find(evicted) != nullptr) return EvictInstance(evicted);
    claims_.EraseInstance(evicted);
    return Status::OK();
  }
  if (type == "migrate") {
    MigrationOptions options;
    options.use_replay_checker = record.Get("use_replay").as_bool();
    return Migrate(SchemaId(id_of("from")), SchemaId(id_of("to")), options)
        .status();
  }
  if (type == "claim") return claims_.AddFromJson(record);
  if (type == "org") {
    logged_org_ = record.Get("org");
    return Status::OK();
  }
  if (type == "release") {
    claims_.Set(InstanceId(id_of("id")),
                NodeId(static_cast<uint32_t>(id_of("node"))),
                UserId::Invalid(), 0);
    return Status::OK();
  }
  // Every other record is an instance op: the same Apply as live.
  ADEPT_ASSIGN_OR_RETURN(InstanceOp op, InstanceOp::FromRecord(record));
  return Apply(op).status;
}

}  // namespace adept
