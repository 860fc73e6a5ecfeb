// ClaimLedger: the durable worklist claims of one AdeptSystem's instances.
//
// A claim is state of the instance it is on, so it lives where the
// instance lives: every AdeptSystem (each cluster shard) keeps a ledger
// mapping (instance, node) to the claimer and the activation epoch, and
// logs each change to its own WAL ("claim" / "release" records, see
// AdeptSystem::RecordClaim). WAL replay rebuilds the ledger, SaveSnapshot
// writes it into the snapshot, an instance a resize moves carries its
// claims in its import record, and eviction drops them. Claims therefore
// replicate, checkpoint and fail over with the shard's own stream.
//
// A claim ends without a record of its own: the ledger observes its
// system's instance events and drops an entry when the node leaves the
// live states (Activated, Running, Suspended, Failed) — the same events,
// in the same WAL order, live and on replay. A migration rewrites an
// instance without one node event per node (a bias cancellation remaps
// node ids); it announces the instance instead (OnInstanceMigrated), live
// and on replay, and the ledger drops that instance's claims whose node
// is gone or not live.
//
// WorklistService::Recover reads the ledgers back and re-attaches every
// claim whose epoch still matches its node's.

#ifndef ADEPT_WORKLIST_CLAIM_LEDGER_H_
#define ADEPT_WORKLIST_CLAIM_LEDGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "common/ids.h"
#include "common/json.h"
#include "common/status.h"
#include "runtime/engine.h"
#include "runtime/events.h"

namespace adept {

class ClaimLedger : public InstanceObserver {
 public:
  struct Entry {
    UserId user;
    // Completed runs of the node when its item was offered: tells a claim
    // from an earlier loop iteration apart from the current one.
    uint64_t epoch = 0;
  };

  // The live states: a claim on a node in any other state is over.
  static bool IsLive(NodeState state) {
    return state == NodeState::kActivated || state == NodeState::kRunning ||
           state == NodeState::kSuspended || state == NodeState::kFailed;
  }

  // Records `user`'s claim on (instance, node); an invalid `user` erases
  // the entry (a release).
  void Set(InstanceId instance, NodeId node, UserId user, uint64_t epoch);
  const Entry* Find(InstanceId instance, NodeId node) const;
  size_t size() const { return entries_.size(); }
  // Ascending (instance, node) order.
  void ForEach(
      const std::function<void(InstanceId, NodeId, const Entry&)>& fn) const;

  void EraseInstance(InstanceId instance);
  // Drops every entry whose activity is no longer live in `engine`: the
  // instance is gone, its schema lost the node, or the node's state is
  // not live. Events keep the ledger pruned; SaveSnapshot runs this as a
  // guard against a damaged or hand-edited log.
  void Prune(const Engine& engine);

  // One entry as JSON: {"id", "node", "user", "epoch"} — also the body of
  // a "claim" WAL record.
  static JsonValue EntryToJson(InstanceId instance, NodeId node,
                               const Entry& entry);
  // The entries (only `instance`'s, when valid) as an array of EntryToJson.
  JsonValue ToJson(InstanceId instance = InstanceId::Invalid()) const;
  // Adds the entries of such an array, or the one entry of an object;
  // null adds nothing.
  Status AddFromJson(const JsonValue& json);

  void OnNodeStateChange(const ProcessInstance& instance, NodeId node,
                         NodeState from, NodeState to) override;
  // Prune()'s rule over the migrated instance's entries.
  void OnInstanceMigrated(const ProcessInstance& instance) override;

 private:
  using Key = std::pair<uint64_t, uint32_t>;  // (instance, node)
  std::map<Key, Entry> entries_;
};

}  // namespace adept

#endif  // ADEPT_WORKLIST_CLAIM_LEDGER_H_
