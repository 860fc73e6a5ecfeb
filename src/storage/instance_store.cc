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
  Record& record = records_[id];
  record.id = id;
  record.strategy = strategy;
  SetBase(record, base_schema);
  return Status::OK();
}

Status InstanceStore::Unregister(InstanceId id) {
  auto it = records_.find(id);
  if (it == records_.end()) return Status::NotFound("no such instance");
  Unindex(it->second);
  records_.erase(it);
  return Status::OK();
}

void InstanceStore::Unindex(const Record& record) {
  auto on_base = by_base_.find(record.base_schema);
  if (on_base == by_base_.end()) return;
  on_base->second.erase(record.id);
  if (on_base->second.empty()) by_base_.erase(on_base);
}

void InstanceStore::SetBase(Record& record, SchemaId base) {
  Unindex(record);
  record.base_schema = base;
  by_base_[base].insert(record.id);
}

Result<const InstanceStore::Record*> InstanceStore::Get(InstanceId id) const {
  auto it = records_.find(id);
  if (it == records_.end()) return Status::NotFound("no such instance");
  return &it->second;
}

Result<const VerificationReport*> InstanceStore::ReportOf(InstanceId id) {
  ADEPT_ASSIGN_OR_RETURN(const Record* record, Get(id));
  if (record->biased()) return &record->report;
  return repository_->ReportFor(record->base_schema);
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

std::vector<InstanceId> InstanceStore::IdsOnBase(SchemaId base) const {
  auto on_base = by_base_.find(base);
  if (on_base == by_base_.end()) return {};
  return {on_base->second.begin(), on_base->second.end()};
}

Status InstanceStore::Install(Record& record, Delta bias,
                              Delta::VerifiedSchema verified) {
  ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<const ProcessSchema> base,
                         repository_->Get(record.base_schema));
  record.bias = std::move(bias);
  record.report = std::move(verified.report);
  switch (record.strategy) {
    case StorageStrategy::kOverlay:
      record.block = std::make_shared<const SubstitutionBlock>(
          ComputeSubstitutionBlock(*base, *verified.schema));
      record.full_copy = nullptr;
      break;
    case StorageStrategy::kFullCopy:
      record.block = nullptr;
      record.full_copy = std::move(verified.schema);
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

Result<std::shared_ptr<const SchemaView>> InstanceStore::AddBias(
    InstanceId id, const Delta& delta) {
  auto it = records_.find(id);
  if (it == records_.end()) return Status::NotFound("no such instance");
  Record& record = it->second;
  // Combined bias = existing ops (pinned) + new ops (fresh bias-range ids).
  Delta combined = record.bias.Clone();
  for (const auto& op : delta.ops()) combined.Add(op->Clone());
  ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<const ProcessSchema> base,
                         repository_->Get(record.base_schema));
  // Seeded from the type schema's cached analysis with every op
  // contributing its region: only the blocks the bias touches are
  // re-verified, and no analysis is kept per instance.
  ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<const SchemaAnalysis> base_analysis,
                         repository_->AnalysisFor(record.base_schema));
  BiasIdAllocator alloc;
  ADEPT_ASSIGN_OR_RETURN(Delta::VerifiedSchema verified,
                         combined.ApplyVerified(*base, base_analysis.get(),
                                                base->version(), &alloc));
  ADEPT_RETURN_IF_ERROR(
      Install(record, std::move(combined), std::move(verified)));
  return ViewFor(record);
}

Result<std::shared_ptr<const SchemaView>> InstanceStore::Rebase(
    InstanceId id, SchemaId new_base, Delta bias,
    Delta::VerifiedSchema verified) {
  auto it = records_.find(id);
  if (it == records_.end()) return Status::NotFound("no such instance");
  Record& record = it->second;
  ADEPT_RETURN_IF_ERROR(repository_->Get(new_base).status());
  if (!record.biased()) {
    SetBase(record, new_base);
    return ViewFor(record);
  }
  if (bias.empty() || verified.schema == nullptr) {
    return Status::FailedPrecondition(
        "rebasing a biased instance needs its bias verified over the new "
        "base");
  }
  SetBase(record, new_base);
  ADEPT_RETURN_IF_ERROR(Install(record, std::move(bias), std::move(verified)));
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
  SetBase(record, new_base);
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
