#include "org/org_model.h"

#include <algorithm>

namespace adept {

Result<RoleId> OrgModel::AddRole(const std::string& name) {
  for (const auto& [id, existing] : roles_) {
    if (existing == name) return Status::AlreadyExists("role exists: " + name);
  }
  RoleId id(next_role_++);
  roles_.emplace(id, name);
  return id;
}

Result<UserId> OrgModel::AddUser(const std::string& name) {
  for (const auto& [id, user] : users_) {
    if (user.name == name) return Status::AlreadyExists("user exists: " + name);
  }
  UserId id(next_user_++);
  users_.emplace(id, User{name, {}});
  return id;
}

Status OrgModel::AssignRole(UserId user, RoleId role) {
  auto it = users_.find(user);
  if (it == users_.end()) return Status::NotFound("no such user");
  if (roles_.count(role) == 0) return Status::NotFound("no such role");
  it->second.roles.insert(role);
  return Status::OK();
}

Status OrgModel::RevokeRole(UserId user, RoleId role) {
  auto it = users_.find(user);
  if (it == users_.end()) return Status::NotFound("no such user");
  if (it->second.roles.erase(role) == 0) {
    return Status::NotFound("user does not hold the role");
  }
  return Status::OK();
}

bool OrgModel::UserHasRole(UserId user, RoleId role) const {
  auto it = users_.find(user);
  return it != users_.end() && it->second.roles.count(role) > 0;
}

std::vector<UserId> OrgModel::UsersInRole(RoleId role) const {
  std::vector<UserId> out;
  for (const auto& [id, user] : users_) {
    if (user.roles.count(role) > 0) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<RoleId> OrgModel::RolesOf(UserId user) const {
  auto it = users_.find(user);
  if (it == users_.end()) return {};
  std::vector<RoleId> out(it->second.roles.begin(), it->second.roles.end());
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::string> OrgModel::UserName(UserId user) const {
  auto it = users_.find(user);
  if (it == users_.end()) return Status::NotFound("no such user");
  return it->second.name;
}

Result<std::string> OrgModel::RoleName(RoleId role) const {
  auto it = roles_.find(role);
  if (it == roles_.end()) return Status::NotFound("no such role");
  return it->second;
}

Result<RoleId> OrgModel::FindRole(const std::string& name) const {
  for (const auto& [id, existing] : roles_) {
    if (existing == name) return id;
  }
  return Status::NotFound("no such role: " + name);
}

Result<UserId> OrgModel::FindUser(const std::string& name) const {
  for (const auto& [id, user] : users_) {
    if (user.name == name) return id;
  }
  return Status::NotFound("no such user: " + name);
}

JsonValue OrgModel::ToJson() const {
  // Roles, users and assignments in id order: the hash tables' order
  // depends on their insertion history, which a reload does not repeat,
  // and a recovered org must write the bytes the live one did.
  std::vector<RoleId> role_ids;
  for (const auto& [id, name] : roles_) role_ids.push_back(id);
  std::sort(role_ids.begin(), role_ids.end());
  JsonValue roles = JsonValue::MakeArray();
  for (RoleId id : role_ids) {
    JsonValue rj = JsonValue::MakeObject();
    rj.Set("id", JsonValue(id.value()));
    rj.Set("name", JsonValue(roles_.at(id)));
    roles.Append(std::move(rj));
  }
  std::vector<UserId> user_ids;
  for (const auto& [id, user] : users_) user_ids.push_back(id);
  std::sort(user_ids.begin(), user_ids.end());
  JsonValue users = JsonValue::MakeArray();
  for (UserId id : user_ids) {
    const User& user = users_.at(id);
    JsonValue uj = JsonValue::MakeObject();
    uj.Set("id", JsonValue(id.value()));
    uj.Set("name", JsonValue(user.name));
    std::vector<RoleId> held(user.roles.begin(), user.roles.end());
    std::sort(held.begin(), held.end());
    JsonValue assigned = JsonValue::MakeArray();
    for (RoleId role : held) assigned.Append(JsonValue(role.value()));
    uj.Set("roles", std::move(assigned));
    users.Append(std::move(uj));
  }
  JsonValue j = JsonValue::MakeObject();
  j.Set("roles", std::move(roles));
  j.Set("users", std::move(users));
  j.Set("next_user", JsonValue(next_user_));
  j.Set("next_role", JsonValue(next_role_));
  return j;
}

Status OrgModel::LoadFromJson(const JsonValue& json) {
  if (!users_.empty() || !roles_.empty()) {
    return Status::FailedPrecondition("org model is not empty");
  }
  if (!json.is_object()) return Status::Corruption("org json malformed");
  for (const JsonValue& rj : json.Get("roles").as_array()) {
    RoleId id(static_cast<uint32_t>(rj.Get("id").as_int()));
    roles_.emplace(id, rj.Get("name").as_string());
    next_role_ = std::max(next_role_, id.value() + 1);
  }
  for (const JsonValue& uj : json.Get("users").as_array()) {
    UserId id(static_cast<uint32_t>(uj.Get("id").as_int()));
    User user;
    user.name = uj.Get("name").as_string();
    for (const JsonValue& rj : uj.Get("roles").as_array()) {
      RoleId role(static_cast<uint32_t>(rj.as_int()));
      if (roles_.count(role) == 0) {
        return Status::Corruption("org json assigns an unknown role");
      }
      user.roles.insert(role);
    }
    users_.emplace(id, std::move(user));
    next_user_ = std::max(next_user_, id.value() + 1);
  }
  next_user_ = std::max(
      next_user_, static_cast<uint32_t>(json.Get("next_user").as_int()));
  next_role_ = std::max(
      next_role_, static_cast<uint32_t>(json.Get("next_role").as_int()));
  return Status::OK();
}

}  // namespace adept
