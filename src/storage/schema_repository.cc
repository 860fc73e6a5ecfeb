#include "storage/schema_repository.h"

#include "model/serialization.h"
#include "verify/verifier.h"

namespace adept {

Result<SchemaId> SchemaRepository::Deploy(
    std::shared_ptr<const ProcessSchema> schema) {
  if (schema == nullptr || !schema->frozen()) {
    return Status::InvalidArgument("deploy requires a frozen schema");
  }
  for (const auto& [_, entry] : entries_) {
    if (entry.schema->type_name() == schema->type_name()) {
      return Status::AlreadyExists(
          "process type already deployed; use DeriveVersion");
    }
  }
  AnalysisResult analyzed = AnalyzeSchema(*schema);
  if (!analyzed.report.ok()) {
    return Status::VerificationFailed(analyzed.report.FirstError());
  }
  SchemaId id(next_id_++);
  Entry entry{std::move(schema), SchemaId::Invalid(), Delta(),
              std::move(analyzed.report), std::move(analyzed.analysis)};
  entries_.emplace(id, std::move(entry));
  return id;
}

Result<SchemaId> SchemaRepository::DeriveVersion(SchemaId base, Delta delta) {
  auto it = entries_.find(base);
  if (it == entries_.end()) return Status::NotFound("no such schema version");
  const ProcessSchema& base_schema = *it->second.schema;

  // Only the newest version of a type may be extended, keeping version
  // numbers linear per type (the paper's version chains V1 -> V2 -> ...).
  ADEPT_ASSIGN_OR_RETURN(SchemaId latest, Latest(base_schema.type_name()));
  if (latest != base) {
    return Status::FailedPrecondition(
        "only the latest version of a type can be evolved");
  }

  // Incremental: re-verify only the blocks the delta touched, seeded from
  // the base version's cached analysis.
  Entry* base_entry = EnsureAnalyzed(base);
  ADEPT_ASSIGN_OR_RETURN(
      Delta::VerifiedSchema verified,
      delta.ApplyVerified(base_schema, base_entry->analysis.get()));
  SchemaId id(next_id_++);
  Entry entry{std::move(verified.schema), base, std::move(delta),
              std::move(verified.report), std::move(verified.analysis)};
  entries_.emplace(id, std::move(entry));
  return id;
}

SchemaRepository::Entry* SchemaRepository::EnsureAnalyzed(SchemaId id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return nullptr;
  Entry& entry = it->second;
  if (entry.analysis == nullptr) {
    AnalysisResult analyzed = AnalyzeSchema(*entry.schema);
    entry.report = std::move(analyzed.report);
    entry.analysis = std::move(analyzed.analysis);
  }
  return &entry;
}

Result<const VerificationReport*> SchemaRepository::ReportFor(SchemaId id) {
  Entry* entry = EnsureAnalyzed(id);
  if (entry == nullptr) return Status::NotFound("no such schema version");
  return &entry->report;
}

Result<std::shared_ptr<const SchemaAnalysis>> SchemaRepository::AnalysisFor(
    SchemaId id) {
  Entry* entry = EnsureAnalyzed(id);
  if (entry == nullptr) return Status::NotFound("no such schema version");
  return entry->analysis;
}

std::vector<SchemaId> SchemaRepository::AllIds() const {
  std::vector<SchemaId> out;
  out.reserve(entries_.size());
  for (const auto& [id, _] : entries_) out.push_back(id);
  return out;
}

Result<std::shared_ptr<const ProcessSchema>> SchemaRepository::Get(
    SchemaId id) const {
  auto it = entries_.find(id);
  if (it == entries_.end()) return Status::NotFound("no such schema version");
  return it->second.schema;
}

Result<SchemaId> SchemaRepository::Latest(const std::string& type_name) const {
  SchemaId best;
  int best_version = -1;
  for (const auto& [id, entry] : entries_) {
    if (entry.schema->type_name() == type_name &&
        entry.schema->version() > best_version) {
      best = id;
      best_version = entry.schema->version();
    }
  }
  if (!best.valid()) return Status::NotFound("unknown process type");
  return best;
}

std::vector<SchemaId> SchemaRepository::VersionsOf(
    const std::string& type_name) const {
  std::vector<std::pair<int, SchemaId>> found;
  for (const auto& [id, entry] : entries_) {
    if (entry.schema->type_name() == type_name) {
      found.emplace_back(entry.schema->version(), id);
    }
  }
  std::sort(found.begin(), found.end());
  std::vector<SchemaId> out;
  out.reserve(found.size());
  for (const auto& [_, id] : found) out.push_back(id);
  return out;
}

Result<SchemaId> SchemaRepository::ParentOf(SchemaId id) const {
  auto it = entries_.find(id);
  if (it == entries_.end()) return Status::NotFound("no such schema version");
  return it->second.parent;
}

Result<const Delta*> SchemaRepository::DeltaFor(SchemaId id) const {
  auto it = entries_.find(id);
  if (it == entries_.end()) return Status::NotFound("no such schema version");
  if (!it->second.parent.valid()) {
    return Status::FailedPrecondition("version was deployed, not derived");
  }
  return &it->second.delta_from_parent;
}

size_t SchemaRepository::MemoryFootprint() const {
  size_t bytes = sizeof(*this);
  for (const auto& [_, entry] : entries_) {
    bytes += entry.schema->MemoryFootprint() + 64;
  }
  return bytes;
}

JsonValue SchemaRepository::ToJson() const {
  JsonValue arr = JsonValue::MakeArray();
  for (const auto& [id, entry] : entries_) {
    JsonValue ej = JsonValue::MakeObject();
    ej.Set("id", JsonValue(id.value()));
    ej.Set("schema", SchemaToJson(*entry.schema));
    if (entry.parent.valid()) {
      ej.Set("parent", JsonValue(entry.parent.value()));
      ej.Set("delta", entry.delta_from_parent.ToJson());
    }
    arr.Append(std::move(ej));
  }
  JsonValue j = JsonValue::MakeObject();
  j.Set("next_id", JsonValue(next_id_));
  j.Set("entries", std::move(arr));
  return j;
}

Status SchemaRepository::LoadFromJson(const JsonValue& json) {
  if (!entries_.empty()) {
    return Status::FailedPrecondition("repository is not empty");
  }
  if (!json.is_object()) return Status::Corruption("repository json malformed");
  for (const JsonValue& ej : json.Get("entries").as_array()) {
    SchemaId id(static_cast<uint64_t>(ej.Get("id").as_int()));
    ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<ProcessSchema> schema,
                           SchemaFromJson(ej.Get("schema")));
    Entry entry;
    entry.schema = std::move(schema);
    if (ej.Has("parent")) {
      entry.parent = SchemaId(static_cast<uint64_t>(ej.Get("parent").as_int()));
      ADEPT_ASSIGN_OR_RETURN(entry.delta_from_parent,
                             Delta::FromJson(ej.Get("delta")));
    }
    entries_.emplace(id, std::move(entry));
    next_id_ = std::max(next_id_, id.value() + 1);
  }
  next_id_ = std::max(next_id_,
                      static_cast<uint64_t>(json.Get("next_id").as_int()));
  return Status::OK();
}

}  // namespace adept
