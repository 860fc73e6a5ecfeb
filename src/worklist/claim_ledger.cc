#include "worklist/claim_ledger.h"

#include "runtime/instance.h"

namespace adept {

namespace {

// Prune()'s rule: a claim lives while its node is in the instance's schema
// and in a live state.
bool ClaimLive(const ProcessInstance& instance, NodeId node) {
  return instance.schema().FindNode(node) != nullptr &&
         ClaimLedger::IsLive(instance.node_state(node));
}

}  // namespace

void ClaimLedger::Set(InstanceId instance, NodeId node, UserId user,
                      uint64_t epoch) {
  const Key key{instance.value(), node.value()};
  if (user.valid()) {
    entries_[key] = {user, epoch};
  } else {
    entries_.erase(key);
  }
}

const ClaimLedger::Entry* ClaimLedger::Find(InstanceId instance,
                                            NodeId node) const {
  auto it = entries_.find({instance.value(), node.value()});
  return it == entries_.end() ? nullptr : &it->second;
}

void ClaimLedger::ForEach(
    const std::function<void(InstanceId, NodeId, const Entry&)>& fn) const {
  for (const auto& [key, entry] : entries_) {
    fn(InstanceId(key.first), NodeId(key.second), entry);
  }
}

void ClaimLedger::EraseInstance(InstanceId instance) {
  entries_.erase(entries_.lower_bound({instance.value(), 0}),
                 entries_.lower_bound({instance.value() + 1, 0}));
}

void ClaimLedger::Prune(const Engine& engine) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    const ProcessInstance* instance = engine.Find(InstanceId(it->first.first));
    it = instance != nullptr && ClaimLive(*instance, NodeId(it->first.second))
             ? std::next(it)
             : entries_.erase(it);
  }
}

JsonValue ClaimLedger::EntryToJson(InstanceId instance, NodeId node,
                                   const Entry& entry) {
  JsonValue j = JsonValue::MakeObject();
  j.Set("id", JsonValue(instance.value()));
  j.Set("node", JsonValue(node.value()));
  j.Set("user", JsonValue(entry.user.value()));
  j.Set("epoch", JsonValue(entry.epoch));
  return j;
}

JsonValue ClaimLedger::ToJson(InstanceId instance) const {
  JsonValue array = JsonValue::MakeArray();
  for (const auto& [key, entry] : entries_) {
    if (instance.valid() && key.first != instance.value()) continue;
    array.Append(EntryToJson(InstanceId(key.first), NodeId(key.second), entry));
  }
  return array;
}

Status ClaimLedger::AddFromJson(const JsonValue& json) {
  if (json.is_null()) return Status::OK();
  if (json.is_object()) {
    if (!json.Get("user").is_int()) {
      return Status::Corruption("claim entry without a user");
    }
    Set(InstanceId(static_cast<uint64_t>(json.Get("id").as_int())),
        NodeId(static_cast<uint32_t>(json.Get("node").as_int())),
        UserId(static_cast<uint32_t>(json.Get("user").as_int())),
        static_cast<uint64_t>(json.Get("epoch").as_int()));
    return Status::OK();
  }
  if (!json.is_array()) return Status::Corruption("claims must be an array");
  for (const JsonValue& entry : json.as_array()) {
    ADEPT_RETURN_IF_ERROR(AddFromJson(entry));
  }
  return Status::OK();
}

void ClaimLedger::OnNodeStateChange(const ProcessInstance& instance,
                                    NodeId node, NodeState /*from*/,
                                    NodeState to) {
  if (!IsLive(to)) entries_.erase({instance.id().value(), node.value()});
}

void ClaimLedger::OnInstanceMigrated(const ProcessInstance& instance) {
  const uint64_t id = instance.id().value();
  for (auto it = entries_.lower_bound({id, 0});
       it != entries_.end() && it->first.first == id;) {
    it = ClaimLive(instance, NodeId(it->first.second)) ? std::next(it)
                                                       : entries_.erase(it);
  }
}

}  // namespace adept
