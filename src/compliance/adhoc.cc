#include "compliance/adhoc.h"

#include "common/logging.h"
#include "compliance/conditions.h"
#include "verify/verifier.h"

namespace adept {

Status ApplyAdHocChange(ProcessInstance& instance, InstanceStore& store,
                        const Delta& delta) {
  if (delta.empty()) {
    return Status::InvalidArgument("empty ad-hoc change");
  }
  ConditionResult condition = CheckStateConditions(instance, delta);
  if (!condition.compliant) {
    return Status::NotCompliant(condition.reason);
  }
  std::string description = delta.Describe();
  ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<const SchemaView> view,
                         store.AddBias(instance.id(), delta));
  // Verification succeeded, but the combined schema may carry warnings
  // (races, naming); surface them instead of silently discarding. The full
  // report stays retrievable via InstanceStore::Get(id)->report.
  if (auto record = store.Get(instance.id()); record.ok()) {
    for (const auto& issue : (*record)->report.issues()) {
      if (issue.severity != VerifySeverity::kWarning) continue;
      ADEPT_LOG(kWarning) << "ad-hoc change on instance "
                          << instance.id().value() << ": ["
                          << VerifyRuleId(issue.rule) << "] " << issue.message;
    }
  }
  ADEPT_RETURN_IF_ERROR(instance.AdoptSchema(view, instance.schema_ref()));
  instance.set_biased(true);
  instance.mutable_trace().Append(
      {.kind = TraceEventKind::kAdHocChange, .payload = {{}, description}});
  return Status::OK();
}

}  // namespace adept
