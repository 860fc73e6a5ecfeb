// WorklistService: the system's worklist — concurrent task distribution.
//
// Every worklist of the system is one of these. An AdeptCluster owns one,
// subscribed to the instance events of every shard (shards keep none of
// their own); a standalone AdeptSystem builds one on the first call of
// worklists() (one segment). The paper's promise — all adaptation
// complexity "is hidden from users", who only ever see a consistent
// worklist — survives ad-hoc deletion, migration demotion, and
// bias-cancellation remaps because every retraction path funnels through
// the same item table.
//
// Lifecycle (see README.md for the full state machine):
//
//   Offer   node enters Activated with a staff-assignment role
//   Claim   one user reserves the offer (exactly-once: compare-and-swap
//           under the item's segment lock; losers get kFailedPrecondition)
//   Start   the claimer starts the activity through the cluster facade —
//           the engine event (under the owner shard's lock) flips the item
//   Complete / Release (back to offered) / Delegate (new owner)
//   Revoke  skip, deletion, demotion, or a migration that removed the
//           node (OnInstanceMigrated) retracts offered *and* claimed items
//
// Concurrency: the item table is internally sharded — items are hashed by
// (instance, node) into segments with one mutex each, and the segment
// index is encoded in the WorkItemId, so claims on unrelated items (and
// thus on different users) never contend. Per-role offer indexes and
// per-user assignment indexes are sharded the same way; OffersFor reads
// the role index instead of scanning the item table. Lock order:
// shard.mu (cluster) -> item segment mu -> index mu; index mutexes are
// leaves and never held while acquiring a segment. Claim, Release and
// Delegate therefore take the owning shard's lock (AdeptApi::RecordClaim)
// before the item's segment lock.
//
// Durability: a claim is state of its instance's owner. Claim, Release and
// Delegate record it in the owning shard's claim ledger and WAL
// (worklist/claim_ledger.h) and wait, as a write does, until the record is
// durable; the ledger drops a claim when its node's run ends. Offers carry
// no records: Recover() re-derives them from the recovered instance state
// and re-attaches the ledgers' claims on top. A claim carries the item's
// activation epoch (completed runs of the node at offer time), so it can
// never be re-attached to a later loop iteration's offer.
//
// The OrgModel is read under the service's locks but is not itself
// synchronized: populate users/roles before serving concurrent traffic.

#ifndef ADEPT_WORKLIST_WORKLIST_SERVICE_H_
#define ADEPT_WORKLIST_WORKLIST_SERVICE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "core/adept_api.h"
#include "org/org_model.h"
#include "runtime/events.h"
#include "runtime/instance.h"
#include "worklist/claim_ledger.h"

namespace adept {

enum class WorkItemState {
  kOffered = 0,  // visible in role members' worklists
  kClaimed,      // reserved by one user, not yet started
  kStarted,      // activity execution began
};

const char* WorkItemStateToString(WorkItemState s);

struct WorkItem {
  WorkItemId id;
  InstanceId instance;
  NodeId node;
  RoleId role;
  WorkItemState state = WorkItemState::kOffered;
  UserId claimed_by;
  // Activation epoch: completed runs of the node when the item was
  // offered. Distinguishes loop iterations of the same (instance, node)
  // in the claim ledger.
  uint64_t epoch = 0;
};

struct WorklistServiceOptions {
  // Internal segment count (rounded up to a power of two). More segments
  // = less contention between claims on unrelated items.
  int segments = 16;
};

struct WorklistStats {
  size_t offered = 0;
  size_t claimed = 0;
  size_t started = 0;
  size_t revoked_total = 0;    // lifetime retractions
  size_t completed_total = 0;  // lifetime completions
};

class WorklistService : public InstanceObserver {
 public:
  // Visits every live instance: Recover derives offers from them (the
  // cluster locks one shard at a time).
  using InstanceVisitor = std::function<void(const ProcessInstance&)>;
  using InstanceEnumerator = std::function<void(const InstanceVisitor&)>;

  // Fresh service. `api` routes Start/Complete and the claim records to
  // wherever the instance lives; `org` answers role-membership checks.
  // Both must outlive the service.
  static std::unique_ptr<WorklistService> Create(
      const OrgModel* org, AdeptApi* api,
      const WorklistServiceOptions& options = {});

  // Rebuilds open work items after a crash: offers are derived from the
  // recovered instance state (`instances`), and each claim of `ledgers`
  // (every instance owner's) re-attaches when its epoch matches its node's
  // and the node is live — claimed while the node is Activated, started
  // while it is Running, Suspended or Failed. The caller attaches the
  // returned service as an observer afterwards.
  static std::unique_ptr<WorklistService> Recover(
      const OrgModel* org, AdeptApi* api,
      const WorklistServiceOptions& options,
      const InstanceEnumerator& instances,
      const std::vector<const ClaimLedger*>& ledgers);

  ~WorklistService() override;
  WorklistService(const WorklistService&) = delete;
  WorklistService& operator=(const WorklistService&) = delete;

  // --- Claim lifecycle ------------------------------------------------------

  // Reserves an offered item for `user`. Exactly-once under concurrent
  // claimers: the state transition is a compare-and-swap under the item's
  // segment lock — exactly one caller wins, the rest get
  // kFailedPrecondition. kNotFound for unknown (or revoked-and-dropped)
  // items. The claim is durable in the owning shard's WAL, replica quorum
  // included, when this returns OK; when that wait fails the claim is
  // rolled back. A claim that failed with IsQuorumTimeout may still be in
  // the WAL: like a maybe-applied write, it may survive a failover.
  Status Claim(WorkItemId item, UserId user);

  // Returns a claimed (not yet started) item to the offered pool.
  Status Release(WorkItemId item, UserId user);

  // Hands a claimed item from `from` to `to` (who must hold the role).
  Status Delegate(WorkItemId item, UserId from, UserId to);

  // Starts the claimed item's activity through the cluster facade; the
  // engine event (under the owner shard's lock) marks the item started.
  Status Start(WorkItemId item, UserId user);

  // Completes the started item's activity through the cluster facade.
  Status Complete(WorkItemId item, UserId user,
                  const std::vector<ProcessInstance::DataWrite>& writes = {});

  // --- Views ----------------------------------------------------------------

  // Items currently offered to `user` (union of the offer indexes of the
  // user's roles — no full-table scan).
  std::vector<WorkItem> OffersFor(UserId user) const;

  // Same, filtered by a query predicate (grammar: src/query/README.md)
  // evaluated against each offer's published instance snapshot during the
  // existing revalidation pass — no extra locks, no extra snapshot
  // fetches. E.g. OffersFor(nurse, "data.priority >= 3"). An offer whose
  // instance has no published snapshot this poll (mid-move during a
  // resize) is dropped from the filtered view — there is nothing to
  // evaluate the predicate against; it resurfaces next poll. Returns
  // kInvalidArgument (offset + caret span) on a malformed predicate.
  Result<std::vector<WorkItem>> OffersFor(UserId user,
                                          const std::string& predicate) const;

  // Items currently claimed or started by `user`.
  std::vector<WorkItem> AssignedTo(UserId user) const;

  Result<WorkItem> Get(WorkItemId item) const;

  WorklistStats Stats() const;

  // --- InstanceObserver (called under the owning shard's lock) -------------

  void OnNodeStateChange(const ProcessInstance& instance, NodeId node,
                         NodeState from, NodeState to) override;
  // Reconciles the migrated instance's items with engine truth: revokes
  // offers whose node vanished from the (possibly remapped) schema or is
  // no longer Activated, and claims whose node is no longer live (the rule
  // the owner's ClaimLedger applies to the same call), then offers the
  // Activated role-carrying activities without a live item. Runs under
  // the instance's shard lock, so it is exact under concurrent traffic.
  // The cluster's post-Resize self-check runs it over every instance.
  void OnInstanceMigrated(const ProcessInstance& instance) override;

 private:
  using LiveKey = std::pair<uint64_t, uint32_t>;  // (instance, node)

  struct ItemSegment {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, WorkItem> items;  // by WorkItemId value
    std::map<LiveKey, WorkItemId> live;            // live item per (i, n)
    uint64_t next_seq = 0;
  };
  struct RoleSegment {
    mutable std::mutex mu;
    std::unordered_map<RoleId, std::set<WorkItemId>> offers;
  };
  struct UserSegment {
    mutable std::mutex mu;
    std::unordered_map<UserId, std::set<WorkItemId>> assigned;
  };
  struct InstanceSegment {
    mutable std::mutex mu;
    std::unordered_map<InstanceId, std::set<WorkItemId>> items;
  };

  WorklistService(const OrgModel* org, AdeptApi* api,
                  const WorklistServiceOptions& options);

  size_t SegmentOfKey(InstanceId instance, NodeId node) const;
  size_t SegmentOfItem(WorkItemId item) const {
    return static_cast<size_t>(item.value()) & segment_mask_;
  }

  // Creates an item in `state` (segment lock must NOT be held). Updates
  // the role (offered only), user (claimed/started only), and instance
  // indexes. `epoch` is the node's activation epoch (completed runs at
  // offer time); recorded with claims so recovery never attaches a stale
  // claim to a later loop iteration's offer. Returns the new id, or the
  // existing live item's id.
  WorkItemId CreateItem(InstanceId instance, NodeId node, RoleId role,
                        WorkItemState state, UserId user, uint64_t epoch);

  // Creates the items `instance`'s marking calls for: a node's claim in
  // `ledgers`, when live and current, else an offer if it is Activated.
  // A node with a live item keeps it.
  void DeriveItems(const ProcessInstance& instance,
                   const std::vector<const ClaimLedger*>& ledgers);

  // Erases `item` from its segment and all indexes; `seg.mu` must be
  // held.
  void EraseItemLocked(ItemSegment& seg, const WorkItem& item);

  void IndexOfferAdd(RoleId role, WorkItemId item);
  void IndexOfferRemove(RoleId role, WorkItemId item);
  void IndexUserAdd(UserId user, WorkItemId item);
  void IndexUserRemove(UserId user, WorkItemId item);
  void IndexInstanceAdd(InstanceId instance, WorkItemId item);
  void IndexInstanceRemove(InstanceId instance, WorkItemId item);

  // Applies `transition` to the live item under its owner's lock and then
  // its segment lock; when that returns OK, records `owner` (none when
  // invalid) in the owner's claim ledger and, if `wait`, waits until the
  // record is durable. The owner's lock orders the record in its WAL
  // after every earlier transition of the instance.
  Status ChangeClaim(WorkItemId item, UserId owner, bool wait,
                     const std::function<Status(WorkItem&)>& transition);
  // Release() and the rollback of a claim whose wait failed.
  Status ReleaseClaim(WorkItemId item, UserId user, bool wait);

  // Copies the items named by `ids`, keeping those that satisfy `keep`.
  std::vector<WorkItem> SnapshotItems(
      const std::set<WorkItemId>& ids,
      const std::function<bool(const WorkItem&)>& keep) const;

  // Shared body of both OffersFor overloads: role-index union, item-table
  // recheck, snapshot revalidation, and (when `predicate` is non-null)
  // predicate evaluation against the same snapshot.
  std::vector<WorkItem> OffersForImpl(UserId user,
                                      const CompiledQuery* predicate) const;

  const OrgModel* org_;
  AdeptApi* api_;
  size_t segment_mask_ = 0;   // segment count - 1 (power of two)
  size_t segment_bits_ = 0;   // id = (seq << bits) | segment
  std::vector<std::unique_ptr<ItemSegment>> item_segments_;
  std::vector<std::unique_ptr<RoleSegment>> role_segments_;
  std::vector<std::unique_ptr<UserSegment>> user_segments_;
  std::vector<std::unique_ptr<InstanceSegment>> instance_segments_;
  std::atomic<size_t> revoked_total_{0};
  std::atomic<size_t> completed_total_{0};
};

}  // namespace adept

#endif  // ADEPT_WORKLIST_WORKLIST_SERVICE_H_
