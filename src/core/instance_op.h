// InstanceOp: the one spelling of an operation on a running instance.
//
// Creating an instance, starting, completing, failing, retrying, suspending
// or resuming an activity, deciding an XOR split or a loop, a synthetic
// step and an ad-hoc change (paper Sec. 2) are each one InstanceOp value,
// from the client to the WAL:
//
//   AdeptApi        the named calls build an op and pass it to Apply
//   AdeptCluster    routes it, alone or in a SubmitBatch, through one
//                   per-shard write routine to the owning shard
//   AdeptSystem     Apply executes, publishes and logs it
//   WAL replay      decodes each record back into an op and calls the
//                   same Apply
//
// This is the replicated-state-machine shape: one command type, applied by
// one function live and on replay. This file is also the only codec of the
// instance-op WAL records:
//
//   create   {"t":"create","id":I,"schema":S}
//   act      {"t":"act","ev":E,"id":I,"node":N}, E one of start, complete
//            (plus "writes"), fail (plus "detail"), retry, suspend, resume
//   branch   {"t":"branch","id":I,"node":N,"code":C}
//   loopdec  {"t":"loopdec","id":I,"node":N,"iterate":B}
//   adhoc    {"t":"adhoc","id":I,"delta":{"ops":[...]}}
//
// A drive step has no record of its own: it logs a start and a complete.

#ifndef ADEPT_CORE_INSTANCE_OP_H_
#define ADEPT_CORE_INSTANCE_OP_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "change/delta.h"
#include "common/ids.h"
#include "common/json.h"
#include "common/status.h"
#include "runtime/driver.h"
#include "runtime/instance.h"

namespace adept {

struct InstanceOp {
  enum class Kind {
    kCreate,        // type_name (or schema when valid); id when preassigned
    kStart,         // id, node
    kComplete,      // id, node, writes
    kFail,          // id, node, reason
    kRetry,         // id, node
    kSuspend,       // id, node
    kResume,        // id, node
    kSelectBranch,  // id, node, branch_value
    kLoopDecision,  // id, node, iterate
    kDriveStep,     // id, driver; one synthetic step: a start and a complete
    kAdHocChange,   // id, delta
  };

  Kind kind = Kind::kDriveStep;
  std::string type_name{};
  SchemaId schema{};
  // The instance. For kCreate, the id to create it under: the cluster's
  // shard-affine id, or the logged one on replay; invalid lets the
  // executing system allocate one.
  InstanceId id{};
  NodeId node{};
  std::vector<ProcessInstance::DataWrite> writes{};
  std::string reason{};
  int branch_value = 0;
  bool iterate = false;
  // Shared, never cloned: ops stay copyable, and applying one reads the
  // delta in place.
  std::shared_ptr<const Delta> delta{};
  // kDriveStep: plans the step. Null on a cluster means the owning shard's
  // own driver (ClusterOptions::driver).
  SimulationDriver* driver = nullptr;

  static InstanceOp Create(std::string type_name) {
    return {.kind = Kind::kCreate, .type_name = std::move(type_name)};
  }
  static InstanceOp CreateOn(SchemaId schema, InstanceId id = {}) {
    return {.kind = Kind::kCreate, .schema = schema, .id = id};
  }
  static InstanceOp Start(InstanceId id, NodeId node) {
    return {.kind = Kind::kStart, .id = id, .node = node};
  }
  static InstanceOp Complete(
      InstanceId id, NodeId node,
      std::vector<ProcessInstance::DataWrite> writes = {}) {
    return {.kind = Kind::kComplete,
            .id = id,
            .node = node,
            .writes = std::move(writes)};
  }
  static InstanceOp Fail(InstanceId id, NodeId node, std::string reason) {
    return {.kind = Kind::kFail,
            .id = id,
            .node = node,
            .reason = std::move(reason)};
  }
  static InstanceOp Retry(InstanceId id, NodeId node) {
    return {.kind = Kind::kRetry, .id = id, .node = node};
  }
  static InstanceOp Suspend(InstanceId id, NodeId node) {
    return {.kind = Kind::kSuspend, .id = id, .node = node};
  }
  static InstanceOp Resume(InstanceId id, NodeId node) {
    return {.kind = Kind::kResume, .id = id, .node = node};
  }
  static InstanceOp SelectBranch(InstanceId id, NodeId node,
                                 int branch_value) {
    return {.kind = Kind::kSelectBranch,
            .id = id,
            .node = node,
            .branch_value = branch_value};
  }
  static InstanceOp LoopDecision(InstanceId id, NodeId node, bool iterate) {
    return {.kind = Kind::kLoopDecision,
            .id = id,
            .node = node,
            .iterate = iterate};
  }
  static InstanceOp DriveStep(InstanceId id,
                              SimulationDriver* driver = nullptr) {
    return {.kind = Kind::kDriveStep, .id = id, .driver = driver};
  }
  static InstanceOp AdHocChange(InstanceId id, Delta delta) {
    return {.kind = Kind::kAdHocChange,
            .id = id,
            .delta = std::make_shared<const Delta>(std::move(delta))};
  }

  // The op's WAL record, which Apply logs once the op applied. A create is
  // logged as CreateOn(the resolved schema, the created id); an ad-hoc
  // change logs `pinned_ops`, the JSON of the ops the change appended to
  // the instance's bias, whose ids the store pinned (the op's own delta
  // stays unpinned).
  JsonValue ToRecord(JsonValue pinned_ops = JsonValue()) const;

  // Decodes a create, act, branch, loopdec or adhoc record. kCorruption for
  // any other record type, an unknown activity event, or an ad-hoc record
  // without a delta.
  static Result<InstanceOp> FromRecord(const JsonValue& record);
};

// What applying one op produced.
struct OpResult {
  Status status;
  // kCreate: the new instance id. Others: the routed id.
  InstanceId id;
  // kDriveStep: whether the instance progressed.
  bool progressed = false;
  // The op's WAL position on its shard: the executing system's last
  // enqueued LSN right after the op (0 when nothing was logged yet). The
  // failover-reconciliation key: per shard, acked ops form an LSN prefix,
  // so after a promotion "did this maybe-applied op survive?" is exactly
  // `lsn <= the promoted shard's recovered durable LSN`.
  uint64_t lsn = 0;
  // The op's owning shard under the routing that executed it (0 on a
  // standalone system).
  size_t shard = 0;
};

}  // namespace adept

#endif  // ADEPT_CORE_INSTANCE_OP_H_
