// Strongly typed identifiers used across the library.
//
// ADEPT distinguishes many entity spaces (nodes, edges, data elements,
// schema versions, instances, users, ...). Using distinct wrapper types
// prevents accidentally passing e.g. a NodeId where an InstanceId is
// expected, at zero runtime cost.

#ifndef ADEPT_COMMON_IDS_H_
#define ADEPT_COMMON_IDS_H_

#include <cstdint>
#include <functional>
#include <ostream>

namespace adept {

// CRTP-free tagged id. Tag is an empty struct unique per id space.
template <typename Tag, typename Rep = uint32_t>
class TypedId {
 public:
  using rep_type = Rep;

  constexpr TypedId() : value_(kInvalidValue) {}
  constexpr explicit TypedId(Rep value) : value_(value) {}

  constexpr Rep value() const { return value_; }
  constexpr bool valid() const { return value_ != kInvalidValue; }

  static constexpr TypedId Invalid() { return TypedId(); }

  friend constexpr bool operator==(TypedId a, TypedId b) {
    return a.value_ == b.value_;
  }
  friend constexpr bool operator!=(TypedId a, TypedId b) {
    return a.value_ != b.value_;
  }
  friend constexpr bool operator<(TypedId a, TypedId b) {
    return a.value_ < b.value_;
  }

  friend std::ostream& operator<<(std::ostream& os, TypedId id) {
    if (!id.valid()) return os << Tag::prefix() << "<invalid>";
    return os << Tag::prefix() << id.value_;
  }

 private:
  static constexpr Rep kInvalidValue = static_cast<Rep>(-1);
  Rep value_;
};

struct NodeIdTag {
  static constexpr const char* prefix() { return "n"; }
};
struct EdgeIdTag {
  static constexpr const char* prefix() { return "e"; }
};
struct DataIdTag {
  static constexpr const char* prefix() { return "d"; }
};
struct SchemaIdTag {
  static constexpr const char* prefix() { return "S"; }
};
struct InstanceIdTag {
  static constexpr const char* prefix() { return "I"; }
};
struct UserIdTag {
  static constexpr const char* prefix() { return "u"; }
};
struct RoleIdTag {
  static constexpr const char* prefix() { return "r"; }
};
struct ServerIdTag {
  static constexpr const char* prefix() { return "srv"; }
};
struct WorkItemIdTag {
  static constexpr const char* prefix() { return "w"; }
};

// Node within a process schema.
using NodeId = TypedId<NodeIdTag>;
// Control / sync / loop edge within a process schema.
using EdgeId = TypedId<EdgeIdTag>;
// Process data element (global per schema).
using DataId = TypedId<DataIdTag>;
// A concrete schema version object in the repository.
using SchemaId = TypedId<SchemaIdTag, uint64_t>;
// A process instance.
using InstanceId = TypedId<InstanceIdTag, uint64_t>;
// Organizational entities.
using UserId = TypedId<UserIdTag>;
using RoleId = TypedId<RoleIdTag>;
// Simulated process server (distributed control).
using ServerId = TypedId<ServerIdTag>;
// Worklist item.
using WorkItemId = TypedId<WorkItemIdTag, uint64_t>;

}  // namespace adept

namespace std {
template <typename Tag, typename Rep>
struct hash<adept::TypedId<Tag, Rep>> {
  size_t operator()(adept::TypedId<Tag, Rep> id) const {
    return std::hash<Rep>()(id.value());
  }
};
}  // namespace std

#endif  // ADEPT_COMMON_IDS_H_
