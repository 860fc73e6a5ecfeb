#include "compliance/adhoc.h"

#include <set>
#include <string>

#include "common/logging.h"
#include "compliance/conditions.h"
#include "verify/verifier.h"

namespace adept {

namespace {

// The warnings of the instance's current report as "[rule] message" lines.
std::multiset<std::string> Warnings(InstanceStore& store, InstanceId id) {
  std::multiset<std::string> warnings;
  if (auto report = store.ReportOf(id); report.ok()) {
    for (const auto& issue : (*report)->issues()) {
      if (issue.severity != VerifySeverity::kWarning) continue;
      warnings.insert("[" + std::string(VerifyRuleId(issue.rule)) + "] " +
                      issue.message);
    }
  }
  return warnings;
}

}  // namespace

Status ApplyAdHocChange(ProcessInstance& instance, InstanceStore& store,
                        const Delta& delta, bool log_warnings) {
  if (delta.empty()) {
    return Status::InvalidArgument("empty ad-hoc change");
  }
  ConditionResult condition = CheckStateConditions(instance, delta);
  if (!condition.compliant) {
    return Status::NotCompliant(condition.reason);
  }
  std::string description = delta.Describe();
  std::multiset<std::string> known;
  if (log_warnings) known = Warnings(store, instance.id());
  ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<const SchemaView> view,
                         store.AddBias(instance.id(), delta));
  // Verification succeeded, but the change may have introduced warnings
  // (races, naming); surface those instead of silently discarding. The
  // ones the schema had before were logged when they appeared, and the
  // full report stays retrievable via InstanceStore::ReportOf(id).
  if (log_warnings) {
    for (const std::string& warning : Warnings(store, instance.id())) {
      if (auto seen = known.find(warning); seen != known.end()) {
        known.erase(seen);
      } else {
        ADEPT_LOG(kWarning) << "ad-hoc change on instance "
                            << instance.id().value() << ": " << warning;
      }
    }
  }
  ADEPT_RETURN_IF_ERROR(instance.AdoptSchema(view, instance.schema_ref()));
  instance.set_biased(true);
  instance.mutable_trace().Append(
      {.kind = TraceEventKind::kAdHocChange, .payload = {{}, description}});
  return Status::OK();
}

}  // namespace adept
