#include "compliance/migration.h"

#include <set>
#include <sstream>

#include "common/string_util.h"
#include "compliance/conditions.h"
#include "compliance/conflicts.h"
#include "compliance/replay.h"

namespace adept {

namespace {

// Rewrites instance runtime state from bias-pinned ids onto the type
// change's pinned ids (bias cancellation).
void RemapInstanceState(ProcessInstance& instance, const IdMapping& mapping) {
  auto map_node = [&](NodeId id) {
    auto it = mapping.nodes.find(id);
    return it == mapping.nodes.end() ? id : it->second;
  };
  auto map_edge = [&](EdgeId id) {
    auto it = mapping.edges.find(id);
    return it == mapping.edges.end() ? id : it->second;
  };
  auto map_data = [&](DataId id) {
    auto it = mapping.data.find(id);
    return it == mapping.data.end() ? id : it->second;
  };

  Marking marking;
  for (const auto& [node, state] : instance.marking().node_states()) {
    marking.set_node(map_node(node), state);
  }
  for (const auto& [edge, state] : instance.marking().edge_states()) {
    marking.set_edge(map_edge(edge), state);
  }

  ExecutionTrace trace =
      instance.trace().Remapped(mapping.nodes, mapping.data);

  DataContext data;
  instance.data().ForEachElement(
      [&](DataId id, const std::vector<DataContext::Version>& versions) {
        DataId mapped = map_data(id);
        for (const auto& v : versions) {
          data.Write(mapped, v.value, map_node(v.writer), v.sequence);
        }
      });

  PersistentMap<NodeId, int> loops;
  for (const auto& [node, count] : instance.loop_iterations()) {
    loops.Set(map_node(node), count);
  }

  PersistentMap<NodeId, int64_t> activated_since;
  for (const auto& [node, seq] : instance.activated_since()) {
    activated_since.Set(map_node(node), seq);
  }

  instance.RestoreState(std::move(marking), std::move(trace), std::move(data),
                        std::move(loops), instance.started(),
                        std::move(activated_since));
}

// Ops of `type_change` that have no signature-equal partner in `bias`
// (multiset semantics).
std::vector<const ChangeOp*> UnmatchedOps(const Delta& type_change,
                                          const Delta& bias) {
  std::multiset<std::string> bias_sigs;
  for (const auto& op : bias.ops()) bias_sigs.insert(op->Signature());
  std::vector<const ChangeOp*> out;
  for (const auto& op : type_change.ops()) {
    auto it = bias_sigs.find(op->Signature());
    if (it != bias_sigs.end()) {
      bias_sigs.erase(it);
    } else {
      out.push_back(op.get());
    }
  }
  return out;
}

bool MarkingsAgree(const Marking& a, const Marking& b) {
  return a.node_states() == b.node_states() &&
         a.edge_states() == b.edge_states();
}

}  // namespace

const char* MigrationOutcomeToString(MigrationOutcome outcome) {
  switch (outcome) {
    case MigrationOutcome::kMigrated:
      return "migrated";
    case MigrationOutcome::kMigratedBiased:
      return "migrated (bias kept)";
    case MigrationOutcome::kBiasCancelled:
      return "migrated (bias cancelled)";
    case MigrationOutcome::kStateConflict:
      return "state-related conflict";
    case MigrationOutcome::kStructuralConflict:
      return "structural conflict";
    case MigrationOutcome::kSemanticConflict:
      return "semantical conflict";
    case MigrationOutcome::kFinishedSkipped:
      return "finished (kept on old version)";
    case MigrationOutcome::kNotOnSourceVersion:
      return "not on source version";
    case MigrationOutcome::kError:
      return "internal error";
  }
  return "?";
}

bool ChangesInstance(MigrationOutcome outcome) {
  switch (outcome) {
    case MigrationOutcome::kMigrated:
    case MigrationOutcome::kMigratedBiased:
    case MigrationOutcome::kBiasCancelled:
    case MigrationOutcome::kError:
      return true;
    case MigrationOutcome::kStateConflict:
    case MigrationOutcome::kStructuralConflict:
    case MigrationOutcome::kSemanticConflict:
    case MigrationOutcome::kFinishedSkipped:
    case MigrationOutcome::kNotOnSourceVersion:
      return false;
  }
  return true;
}

size_t MigrationReport::Count(MigrationOutcome outcome) const {
  size_t n = 0;
  for (const auto& r : results) {
    if (r.outcome == outcome) ++n;
  }
  return n;
}

size_t MigrationReport::MigratedTotal() const {
  return Count(MigrationOutcome::kMigrated) +
         Count(MigrationOutcome::kMigratedBiased) +
         Count(MigrationOutcome::kBiasCancelled);
}

std::string MigrationReport::Summary() const {
  std::ostringstream os;
  os << "migration " << type_name << " V" << from_version << " -> V"
     << to_version << ": " << MigratedTotal() << "/" << results.size()
     << " migrated";
  size_t state = Count(MigrationOutcome::kStateConflict);
  size_t structural = Count(MigrationOutcome::kStructuralConflict);
  size_t semantic = Count(MigrationOutcome::kSemanticConflict);
  size_t finished = Count(MigrationOutcome::kFinishedSkipped);
  if (state > 0) os << ", " << state << " state conflicts";
  if (structural > 0) os << ", " << structural << " structural conflicts";
  if (semantic > 0) os << ", " << semantic << " semantical conflicts";
  if (finished > 0) os << ", " << finished << " finished";
  return os.str();
}

Result<MigrationReport> MigrationManager::MigrateAll(
    SchemaId from, SchemaId to, const MigrationOptions& options) {
  ADEPT_ASSIGN_OR_RETURN(SchemaId parent, repository_->ParentOf(to));
  if (parent != from) {
    return Status::FailedPrecondition(
        "target version is not derived from the source version");
  }
  ADEPT_ASSIGN_OR_RETURN(const Delta* type_change, repository_->DeltaFor(to));
  ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<const ProcessSchema> from_schema,
                         repository_->Get(from));
  ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<const ProcessSchema> to_schema,
                         repository_->Get(to));

  MigrationReport report;
  report.type_name = from_schema->type_name();
  report.from = from;
  report.to = to;
  report.from_version = from_schema->version();
  report.to_version = to_schema->version();

  // One note per outcome text, shared by every instance this call migrates.
  TraceNotePool notes;
  for (InstanceId id : store_->IdsOnBase(from)) {
    auto result = MigrateOne(id, from, to, *type_change, options, notes);
    if (result.ok()) {
      report.results.push_back(std::move(result).value());
    } else {
      report.results.push_back(InstanceMigrationResult{
          id, MigrationOutcome::kError, false, result.status().message()});
    }
  }
  return report;
}

Result<InstanceMigrationResult> MigrationManager::MigrateOne(
    InstanceId id, SchemaId from, SchemaId to, const Delta& type_change,
    const MigrationOptions& options, TraceNotePool& notes) {
  ProcessInstance* instance = engine_->Find(id);
  if (instance == nullptr) return Status::NotFound("instance not registered");
  ADEPT_ASSIGN_OR_RETURN(const InstanceStore::Record* record, store_->Get(id));
  if (record->base_schema != from) {
    return InstanceMigrationResult{id, MigrationOutcome::kNotOnSourceVersion,
                                   record->biased(), ""};
  }
  if (instance->Finished()) {
    return InstanceMigrationResult{id, MigrationOutcome::kFinishedSkipped,
                                   record->biased(), ""};
  }
  if (record->biased()) {
    return MigrateBiased(*instance, *record, to, type_change, options, notes);
  }
  return MigrateUnbiased(*instance, to, type_change, options, notes);
}

Result<InstanceMigrationResult> MigrationManager::MigrateUnbiased(
    ProcessInstance& instance, SchemaId to, const Delta& type_change,
    const MigrationOptions& options, TraceNotePool& notes) {
  InstanceMigrationResult result{instance.id(), MigrationOutcome::kError,
                                 false, ""};
  ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<const ProcessSchema> target,
                         repository_->Get(to));

  if (options.use_replay_checker) {
    ReplayResult rr = CheckComplianceByReplay(instance, target);
    if (!rr.compliant) {
      result.outcome = MigrationOutcome::kStateConflict;
      result.detail = rr.reason;
      return result;
    }
  } else {
    ConditionResult cond = CheckStateConditions(instance, type_change);
    if (!cond.compliant) {
      result.outcome = MigrationOutcome::kStateConflict;
      result.detail = cond.reason;
      return result;
    }
  }
  if (options.dry_run) {
    result.outcome = MigrationOutcome::kMigrated;
    result.detail = "dry run";
    return result;
  }

  ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<const SchemaView> view,
                         store_->Rebase(instance.id(), to));
  ADEPT_RETURN_IF_ERROR(instance.AdoptSchema(view, to));
  instance.mutable_trace().Append(
      {.kind = TraceEventKind::kMigrated,
       .payload =
           notes.Detail(StrFormat("to version %d", target->version()))});

  if (options.verify_adaptation_with_replay) {
    ReplayResult oracle = CheckComplianceByReplay(instance, view);
    if (!oracle.compliant ||
        !MarkingsAgree(oracle.adapted_marking, instance.marking())) {
      result.outcome = MigrationOutcome::kError;
      result.detail = "state adaptation diverges from replay oracle: " +
                      oracle.reason;
      return result;
    }
  }
  result.outcome = MigrationOutcome::kMigrated;
  return result;
}

Result<InstanceMigrationResult> MigrationManager::MigrateBiased(
    ProcessInstance& instance, const InstanceStore::Record& record,
    SchemaId to, const Delta& type_change, const MigrationOptions& options,
    TraceNotePool& notes) {
  InstanceMigrationResult result{instance.id(), MigrationOutcome::kError,
                                 true, ""};
  ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<const ProcessSchema> target,
                         repository_->Get(to));

  OverlapKind overlap = AnalyzeOverlap(type_change, record.bias);
  switch (overlap) {
    case OverlapKind::kPartial:
    case OverlapKind::kSubsumedByInstance: {
      result.outcome = MigrationOutcome::kSemanticConflict;
      result.detail = StrFormat(
          "type change and instance bias overlap (%s); manual resolution "
          "required",
          OverlapKindToString(overlap));
      return result;
    }
    case OverlapKind::kEquivalent:
    case OverlapKind::kSubsumesInstance: {
      // Everything the bias did is part of S'. Check the state conditions
      // of the genuinely new operations only, then cancel the bias. The
      // type change's pinned ids are resolved against the instance through
      // the cancellation mapping (type id -> the instance's bias twin).
      ADEPT_ASSIGN_OR_RETURN(
          IdMapping mapping,
          BuildBiasCancellationMapping(type_change, record.bias));
      ConditionContext ctx;
      for (const auto& [bias_id, type_id] : mapping.nodes) {
        ctx.aliases.emplace(type_id, bias_id);
      }
      for (const auto& op : type_change.ops()) {
        for (uint32_t id : op->pinned_node_ids()) {
          if (ctx.aliases.count(NodeId(id)) == 0) {
            ctx.created_nodes.insert(NodeId(id));
          }
        }
      }
      for (const ChangeOp* op : UnmatchedOps(type_change, record.bias)) {
        ConditionResult cond = CheckOpStateCondition(instance, *op, ctx);
        if (!cond.compliant) {
          result.outcome = MigrationOutcome::kStateConflict;
          result.detail = cond.reason;
          return result;
        }
      }
      if (options.dry_run) {
        result.outcome = MigrationOutcome::kBiasCancelled;
        result.detail = "dry run";
        return result;
      }
      RemapInstanceState(instance, mapping);
      ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<const SchemaView> view,
                             store_->ClearBias(instance.id(), to));
      ADEPT_RETURN_IF_ERROR(instance.AdoptSchema(view, to));
      instance.set_biased(false);
      instance.mutable_trace().Append(
          {.kind = TraceEventKind::kMigrated,
           .payload = notes.Detail(
               StrFormat("to version %d (bias cancelled: %s)",
                         target->version(), OverlapKindToString(overlap)))});
      result.outcome = MigrationOutcome::kBiasCancelled;
      return result;
    }
    case OverlapKind::kDisjoint:
      break;  // handled below
  }

  // Structural check: does the bias still apply on top of S', and is the
  // combined schema correct? (Fig. 1: instance I2 fails here with a
  // deadlock-causing cycle.) Probe with a cloned delta so nothing commits;
  // if the instance migrates, the store installs this probe as its rebased
  // bias, so the bias is verified over S' exactly once.
  Delta rebased_bias = record.bias.Clone();
  BiasIdAllocator alloc;
  // Incremental probe: seed from the target version's cached analysis so
  // only the blocks the bias touches are re-verified.
  std::shared_ptr<const SchemaAnalysis> target_analysis;
  if (auto a = repository_->AnalysisFor(to); a.ok()) {
    target_analysis = *a;
  }
  auto candidate = rebased_bias.ApplyVerified(*target, target_analysis.get(),
                                              target->version(), &alloc);
  if (!candidate.ok()) {
    result.outcome = MigrationOutcome::kStructuralConflict;
    result.detail = candidate.status().message();
    return result;
  }
  if (options.use_replay_checker) {
    std::shared_ptr<const SchemaView> candidate_view = candidate->schema;
    ReplayResult rr = CheckComplianceByReplay(instance, candidate_view);
    if (!rr.compliant) {
      result.outcome = MigrationOutcome::kStateConflict;
      result.detail = rr.reason;
      return result;
    }
  } else {
    ConditionResult cond = CheckStateConditions(instance, type_change);
    if (!cond.compliant) {
      result.outcome = MigrationOutcome::kStateConflict;
      result.detail = cond.reason;
      return result;
    }
  }
  if (options.dry_run) {
    result.outcome = MigrationOutcome::kMigratedBiased;
    result.detail = "dry run";
    return result;
  }

  ADEPT_ASSIGN_OR_RETURN(
      std::shared_ptr<const SchemaView> view,
      store_->Rebase(instance.id(), to, std::move(rebased_bias),
                     std::move(candidate).value()));
  ADEPT_RETURN_IF_ERROR(instance.AdoptSchema(view, to));
  instance.mutable_trace().Append(
      {.kind = TraceEventKind::kMigrated,
       .payload = notes.Detail(
           StrFormat("to version %d (bias kept)", target->version()))});

  if (options.verify_adaptation_with_replay) {
    ReplayResult oracle = CheckComplianceByReplay(instance, view);
    if (!oracle.compliant ||
        !MarkingsAgree(oracle.adapted_marking, instance.marking())) {
      result.outcome = MigrationOutcome::kError;
      result.detail =
          "state adaptation diverges from replay oracle: " + oracle.reason;
      return result;
    }
  }
  result.outcome = MigrationOutcome::kMigratedBiased;
  return result;
}

}  // namespace adept
