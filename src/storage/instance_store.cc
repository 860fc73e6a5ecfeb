#include "storage/instance_store.h"

#include "common/string_util.h"

namespace adept {

const char* StorageStrategyToString(StorageStrategy s) {
  switch (s) {
    case StorageStrategy::kOverlay:
      return "overlay";
    case StorageStrategy::kFullCopy:
      return "full-copy";
    case StorageStrategy::kMaterializeOnDemand:
      return "materialize-on-demand";
  }
  return "?";
}

Status InstanceStore::Register(InstanceId id, SchemaId base_schema,
                               StorageStrategy strategy) {
  if (records_.count(id) > 0) {
    return Status::AlreadyExists("instance already registered");
  }
  ADEPT_RETURN_IF_ERROR(repository_->Get(base_schema).status());
  Record record;
  record.id = id;
  record.base_schema = base_schema;
  record.strategy = strategy;
  records_.emplace(id, std::move(record));
  return Status::OK();
}

Status InstanceStore::Unregister(InstanceId id) {
  if (records_.erase(id) == 0) return Status::NotFound("no such instance");
  return Status::OK();
}

Result<const InstanceStore::Record*> InstanceStore::Get(InstanceId id) const {
  auto it = records_.find(id);
  if (it == records_.end()) return Status::NotFound("no such instance");
  return &it->second;
}

bool InstanceStore::IsBiased(InstanceId id) const {
  auto it = records_.find(id);
  return it != records_.end() && it->second.biased();
}

std::vector<InstanceId> InstanceStore::Ids() const {
  std::vector<InstanceId> out;
  out.reserve(records_.size());
  for (const auto& [id, _] : records_) out.push_back(id);
  return out;
}

Status InstanceStore::Refresh(
    Record& record, std::shared_ptr<const ProcessSchema> materialized) {
  ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<const ProcessSchema> base,
                         repository_->Get(record.base_schema));
  switch (record.strategy) {
    case StorageStrategy::kOverlay:
      record.block = std::make_shared<const SubstitutionBlock>(
          ComputeSubstitutionBlock(*base, *materialized));
      record.full_copy = nullptr;
      break;
    case StorageStrategy::kFullCopy:
      record.block = nullptr;
      record.full_copy = std::move(materialized);
      break;
    case StorageStrategy::kMaterializeOnDemand:
      record.block = nullptr;
      record.full_copy = nullptr;
      break;
  }
  return Status::OK();
}

Result<std::shared_ptr<const SchemaView>> InstanceStore::ViewFor(
    const Record& record) const {
  ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<const ProcessSchema> base,
                         repository_->Get(record.base_schema));
  if (!record.biased()) return std::shared_ptr<const SchemaView>(base);
  switch (record.strategy) {
    case StorageStrategy::kOverlay:
      if (record.block == nullptr) {
        return Status::Internal("biased overlay record without block");
      }
      return std::shared_ptr<const SchemaView>(
          std::make_shared<OverlaySchema>(base, record.block));
    case StorageStrategy::kFullCopy:
      if (record.full_copy == nullptr) {
        return Status::Internal("biased full-copy record without schema");
      }
      return std::shared_ptr<const SchemaView>(record.full_copy);
    case StorageStrategy::kMaterializeOnDemand: {
      // Rebuild from the delta on every access.
      Delta bias = record.bias.Clone();
      BiasIdAllocator alloc;
      ADEPT_ASSIGN_OR_RETURN(
          std::shared_ptr<ProcessSchema> fresh,
          bias.ApplyRaw(*base, base->version(), &alloc));
      return std::shared_ptr<const SchemaView>(std::move(fresh));
    }
  }
  return Status::Internal("unknown storage strategy");
}

Status InstanceStore::Reapply(Record& record, SchemaId base_id, Delta bias) {
  ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<const ProcessSchema> base,
                         repository_->Get(base_id));
  // Seeded from the type schema's cached analysis with every op
  // contributing its region: only the blocks the bias touches are
  // re-verified, and no analysis is kept per instance.
  ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<const SchemaAnalysis> base_analysis,
                         repository_->AnalysisFor(base_id));
  BiasIdAllocator alloc;
  ADEPT_ASSIGN_OR_RETURN(Delta::VerifiedSchema verified,
                         bias.ApplyVerified(*base, base_analysis.get(),
                                            base->version(), &alloc));
  record.base_schema = base_id;
  record.bias = std::move(bias);
  record.report = std::move(verified.report);
  return Refresh(record, std::move(verified.schema));
}

Result<std::shared_ptr<const SchemaView>> InstanceStore::AddBias(
    InstanceId id, Delta delta) {
  auto it = records_.find(id);
  if (it == records_.end()) return Status::NotFound("no such instance");
  Record& record = it->second;
  // Combined bias = existing ops (pinned) + new ops (fresh bias-range ids).
  Delta combined = record.bias.Clone();
  for (const auto& op : delta.ops()) combined.Add(op->Clone());
  ADEPT_RETURN_IF_ERROR(
      Reapply(record, record.base_schema, std::move(combined)));
  return ViewFor(record);
}

Result<std::shared_ptr<const SchemaView>> InstanceStore::Rebase(
    InstanceId id, SchemaId new_base) {
  auto it = records_.find(id);
  if (it == records_.end()) return Status::NotFound("no such instance");
  Record& record = it->second;
  if (!record.biased()) {
    ADEPT_RETURN_IF_ERROR(repository_->Get(new_base).status());
    record.base_schema = new_base;
    return ViewFor(record);
  }
  ADEPT_RETURN_IF_ERROR(Reapply(record, new_base, record.bias.Clone()));
  return ViewFor(record);
}

Result<std::shared_ptr<const SchemaView>> InstanceStore::ClearBias(
    InstanceId id, SchemaId new_base) {
  auto it = records_.find(id);
  if (it == records_.end()) return Status::NotFound("no such instance");
  Record& record = it->second;
  ADEPT_RETURN_IF_ERROR(repository_->Get(new_base).status());
  record.bias = Delta();
  record.block = nullptr;
  record.full_copy = nullptr;
  record.report = VerificationReport();
  record.base_schema = new_base;
  return ViewFor(record);
}

Result<std::shared_ptr<const SchemaView>> InstanceStore::ExecutionSchema(
    InstanceId id) const {
  auto it = records_.find(id);
  if (it == records_.end()) return Status::NotFound("no such instance");
  return ViewFor(it->second);
}

InstanceStore::MemoryStats InstanceStore::Memory() const {
  MemoryStats stats;
  stats.shared_schemas = repository_->MemoryFootprint();
  for (const auto& [_, record] : records_) {
    stats.records += sizeof(Record);
    for (const auto& op : record.bias.ops()) {
      stats.records += op->ToJson().Dump().size();  // serialized op size
    }
    if (record.block != nullptr) {
      stats.blocks += record.block->MemoryFootprint();
    }
    if (record.full_copy != nullptr) {
      stats.full_copies += record.full_copy->MemoryFootprint();
    }
  }
  return stats;
}

}  // namespace adept
