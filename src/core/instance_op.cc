#include "core/instance_op.h"

#include <utility>

namespace adept {

namespace {

using Kind = InstanceOp::Kind;

// The "ev" of each activity-event ("act") record.
struct ActEvent {
  Kind kind;
  const char* name;
};
constexpr ActEvent kActEvents[] = {
    {Kind::kStart, "start"},     {Kind::kComplete, "complete"},
    {Kind::kFail, "fail"},       {Kind::kRetry, "retry"},
    {Kind::kSuspend, "suspend"}, {Kind::kResume, "resume"},
};

JsonValue WritesToJson(const std::vector<ProcessInstance::DataWrite>& writes) {
  JsonValue arr = JsonValue::MakeArray();
  for (const auto& w : writes) {
    JsonValue wj = JsonValue::MakeObject();
    wj.Set("d", JsonValue(w.data.value()));
    wj.Set("v", w.value.ToJson());
    arr.Append(std::move(wj));
  }
  return arr;
}

Result<std::vector<ProcessInstance::DataWrite>> WritesFromJson(
    const JsonValue& json) {
  std::vector<ProcessInstance::DataWrite> writes;
  for (const JsonValue& wj : json.as_array()) {
    ADEPT_ASSIGN_OR_RETURN(DataValue value, DataValue::FromJson(wj.Get("v")));
    writes.push_back(
        {DataId(static_cast<uint32_t>(wj.Get("d").as_int())), value});
  }
  return writes;
}

}  // namespace

JsonValue InstanceOp::ToRecord(JsonValue pinned_ops) const {
  JsonValue record = JsonValue::MakeObject();
  record.Set("id", JsonValue(id.value()));
  switch (kind) {
    case Kind::kCreate:
      record.Set("t", JsonValue("create"));
      record.Set("schema", JsonValue(schema.value()));
      return record;
    case Kind::kStart:
    case Kind::kComplete:
    case Kind::kFail:
    case Kind::kRetry:
    case Kind::kSuspend:
    case Kind::kResume:
      for (const ActEvent& event : kActEvents) {
        if (event.kind == kind) record.Set("ev", JsonValue(event.name));
      }
      record.Set("t", JsonValue("act"));
      record.Set("node", JsonValue(node.value()));
      if (kind == Kind::kComplete) record.Set("writes", WritesToJson(writes));
      if (kind == Kind::kFail) record.Set("detail", JsonValue(reason));
      return record;
    case Kind::kSelectBranch:
      record.Set("t", JsonValue("branch"));
      record.Set("node", JsonValue(node.value()));
      record.Set("code", JsonValue(branch_value));
      return record;
    case Kind::kLoopDecision:
      record.Set("t", JsonValue("loopdec"));
      record.Set("node", JsonValue(node.value()));
      record.Set("iterate", JsonValue(iterate));
      return record;
    case Kind::kAdHocChange: {
      JsonValue tail = JsonValue::MakeObject();
      tail.Set("ops", std::move(pinned_ops));
      record.Set("t", JsonValue("adhoc"));
      record.Set("delta", std::move(tail));
      return record;
    }
    case Kind::kDriveStep:
      break;
  }
  return JsonValue();
}

Result<InstanceOp> InstanceOp::FromRecord(const JsonValue& record) {
  const std::string& type = record.Get("t").as_string();
  const InstanceId id(static_cast<uint64_t>(record.Get("id").as_int()));
  const NodeId node(static_cast<uint32_t>(record.Get("node").as_int()));
  if (type == "create") {
    return CreateOn(
        SchemaId(static_cast<uint64_t>(record.Get("schema").as_int())), id);
  }
  if (type == "act") {
    const std::string& ev = record.Get("ev").as_string();
    for (const ActEvent& event : kActEvents) {
      if (ev != event.name) continue;
      InstanceOp op{.kind = event.kind, .id = id, .node = node};
      if (op.kind == Kind::kComplete) {
        ADEPT_ASSIGN_OR_RETURN(op.writes, WritesFromJson(record.Get("writes")));
      }
      if (op.kind == Kind::kFail) op.reason = record.Get("detail").as_string();
      return op;
    }
    return Status::Corruption("unknown activity event: " + ev);
  }
  if (type == "branch") {
    return SelectBranch(id, node,
                        static_cast<int>(record.Get("code").as_int()));
  }
  if (type == "loopdec") {
    return LoopDecision(id, node, record.Get("iterate").as_bool());
  }
  if (type == "adhoc") {
    // A WAL is input from outside the program: refuse a record that
    // carries no delta.
    if (!record.Has("delta")) {
      return Status::Corruption("ad-hoc record without a delta");
    }
    ADEPT_ASSIGN_OR_RETURN(Delta ops, Delta::FromJson(record.Get("delta")));
    return AdHocChange(id, std::move(ops));
  }
  return Status::Corruption("unknown WAL record type: " + type);
}

}  // namespace adept
