#include "worklist/worklist_service.h"

#include "model/node.h"

namespace adept {

namespace {

size_t RoundUpPow2(int n) {
  size_t p = 1;
  while (p < static_cast<size_t>(n < 1 ? 1 : n)) p <<= 1;
  return p;
}

size_t Log2(size_t pow2) {
  size_t bits = 0;
  while ((size_t{1} << bits) < pow2) ++bits;
  return bits;
}

// The staff-assignment activity behind `node`, or nullptr when the node
// does not exist, is not an activity, or carries no role: the
// offer-eligibility rule.
const Node* OfferableActivity(const SchemaView& schema, NodeId node) {
  const Node* n = schema.FindNode(node);
  if (n == nullptr || n->type != NodeType::kActivity || !n->role.valid()) {
    return nullptr;
  }
  return n;
}

// Completed runs of `node` per the instance trace — the activation epoch
// recorded in offered items.
uint64_t ActivationEpoch(const ProcessInstance& instance, NodeId node) {
  return instance.completed_runs(node);
}

}  // namespace

const char* WorkItemStateToString(WorkItemState s) {
  switch (s) {
    case WorkItemState::kOffered:
      return "offered";
    case WorkItemState::kClaimed:
      return "claimed";
    case WorkItemState::kStarted:
      return "started";
  }
  return "?";
}

WorklistService::WorklistService(const OrgModel* org, AdeptApi* api,
                                 const WorklistServiceOptions& options)
    : org_(org), api_(api) {
  size_t segments = RoundUpPow2(options.segments);
  segment_mask_ = segments - 1;
  segment_bits_ = Log2(segments);
  for (size_t i = 0; i < segments; ++i) {
    item_segments_.push_back(std::make_unique<ItemSegment>());
    role_segments_.push_back(std::make_unique<RoleSegment>());
    user_segments_.push_back(std::make_unique<UserSegment>());
    instance_segments_.push_back(std::make_unique<InstanceSegment>());
  }
}

WorklistService::~WorklistService() = default;

std::unique_ptr<WorklistService> WorklistService::Create(
    const OrgModel* org, AdeptApi* api,
    const WorklistServiceOptions& options) {
  return std::unique_ptr<WorklistService>(
      new WorklistService(org, api, options));
}

std::unique_ptr<WorklistService> WorklistService::Recover(
    const OrgModel* org, AdeptApi* api, const WorklistServiceOptions& options,
    const InstanceEnumerator& instances,
    const std::vector<const ClaimLedger*>& ledgers) {
  std::unique_ptr<WorklistService> service = Create(org, api, options);
  instances([&](const ProcessInstance& instance) {
    service->DeriveItems(instance, ledgers);
  });
  return service;
}

void WorklistService::DeriveItems(
    const ProcessInstance& instance,
    const std::vector<const ClaimLedger*>& ledgers) {
  for (const auto& [node, state] : instance.marking().node_states()) {
    const Node* n = OfferableActivity(instance.schema(), node);
    if (n == nullptr) continue;
    const uint64_t epoch = ActivationEpoch(instance, node);
    const ClaimLedger::Entry* claim = nullptr;
    for (const ClaimLedger* ledger : ledgers) {
      if (claim == nullptr) claim = ledger->Find(instance.id(), node);
    }
    // The attach filter. A claim whose run already completed carries a
    // smaller epoch than its node's: it must not steal the offer of a
    // later loop iteration. On an Activated node the claim survives and
    // its owner (re)starts the run; a node in flight keeps its owner's
    // started item; Completed/Skipped/NotActivated work is over.
    if (claim != nullptr && claim->epoch == epoch &&
        ClaimLedger::IsLive(state)) {
      CreateItem(instance.id(), node, n->role,
                 state == NodeState::kActivated ? WorkItemState::kClaimed
                                                : WorkItemState::kStarted,
                 claim->user, epoch);
    } else if (state == NodeState::kActivated) {
      CreateItem(instance.id(), node, n->role, WorkItemState::kOffered,
                 UserId::Invalid(), epoch);
    }
  }
}

// --- Segmentation / item table -----------------------------------------------

size_t WorklistService::SegmentOfKey(InstanceId instance, NodeId node) const {
  uint64_t h = instance.value() * uint64_t{0x9E3779B97F4A7C15} ^
               (uint64_t{node.value()} * uint64_t{0xC2B2AE3D27D4EB4F});
  h ^= h >> 29;
  return static_cast<size_t>(h) & segment_mask_;
}

WorkItemId WorklistService::CreateItem(InstanceId instance, NodeId node,
                                       RoleId role, WorkItemState state,
                                       UserId user, uint64_t epoch) {
  size_t seg_index = SegmentOfKey(instance, node);
  ItemSegment& seg = *item_segments_[seg_index];
  std::lock_guard<std::mutex> lock(seg.mu);
  LiveKey key{instance.value(), node.value()};
  auto live = seg.live.find(key);
  if (live != seg.live.end()) return live->second;
  WorkItem item;
  item.id = WorkItemId((++seg.next_seq << segment_bits_) |
                       static_cast<uint64_t>(seg_index));
  item.instance = instance;
  item.node = node;
  item.role = role;
  item.state = state;
  item.claimed_by = user;
  item.epoch = epoch;
  seg.live.emplace(key, item.id);
  seg.items.emplace(item.id.value(), item);
  if (state == WorkItemState::kOffered) {
    IndexOfferAdd(role, item.id);
  } else if (user.valid()) {
    IndexUserAdd(user, item.id);
  }
  IndexInstanceAdd(instance, item.id);
  return item.id;
}

void WorklistService::EraseItemLocked(ItemSegment& seg, const WorkItem& item) {
  if (item.state == WorkItemState::kOffered) {
    IndexOfferRemove(item.role, item.id);
  }
  if (item.claimed_by.valid()) IndexUserRemove(item.claimed_by, item.id);
  IndexInstanceRemove(item.instance, item.id);
  seg.live.erase({item.instance.value(), item.node.value()});
  seg.items.erase(item.id.value());
}

// --- Index maintenance (leaf locks; called under the item's segment mu) ------

void WorklistService::IndexOfferAdd(RoleId role, WorkItemId item) {
  RoleSegment& seg =
      *role_segments_[std::hash<RoleId>()(role) & segment_mask_];
  std::lock_guard<std::mutex> lock(seg.mu);
  seg.offers[role].insert(item);
}

void WorklistService::IndexOfferRemove(RoleId role, WorkItemId item) {
  RoleSegment& seg =
      *role_segments_[std::hash<RoleId>()(role) & segment_mask_];
  std::lock_guard<std::mutex> lock(seg.mu);
  auto it = seg.offers.find(role);
  if (it == seg.offers.end()) return;
  it->second.erase(item);
  if (it->second.empty()) seg.offers.erase(it);
}

void WorklistService::IndexUserAdd(UserId user, WorkItemId item) {
  UserSegment& seg =
      *user_segments_[std::hash<UserId>()(user) & segment_mask_];
  std::lock_guard<std::mutex> lock(seg.mu);
  seg.assigned[user].insert(item);
}

void WorklistService::IndexUserRemove(UserId user, WorkItemId item) {
  UserSegment& seg =
      *user_segments_[std::hash<UserId>()(user) & segment_mask_];
  std::lock_guard<std::mutex> lock(seg.mu);
  auto it = seg.assigned.find(user);
  if (it == seg.assigned.end()) return;
  it->second.erase(item);
  if (it->second.empty()) seg.assigned.erase(it);
}

void WorklistService::IndexInstanceAdd(InstanceId instance, WorkItemId item) {
  InstanceSegment& seg =
      *instance_segments_[std::hash<InstanceId>()(instance) & segment_mask_];
  std::lock_guard<std::mutex> lock(seg.mu);
  seg.items[instance].insert(item);
}

void WorklistService::IndexInstanceRemove(InstanceId instance,
                                          WorkItemId item) {
  InstanceSegment& seg =
      *instance_segments_[std::hash<InstanceId>()(instance) & segment_mask_];
  std::lock_guard<std::mutex> lock(seg.mu);
  auto it = seg.items.find(instance);
  if (it == seg.items.end()) return;
  it->second.erase(item);
  if (it->second.empty()) seg.items.erase(it);
}

// --- Claim lifecycle ---------------------------------------------------------

Status WorklistService::ChangeClaim(
    WorkItemId item_id, UserId owner, bool wait,
    const std::function<Status(WorkItem&)>& transition) {
  // An item's instance, node and epoch never change, so they can be read
  // ahead of the owner's lock, which the lock order takes first.
  ADEPT_ASSIGN_OR_RETURN(const WorkItem item, Get(item_id));
  ItemSegment& seg = *item_segments_[SegmentOfItem(item_id)];
  ADEPT_ASSIGN_OR_RETURN(
      const uint64_t lsn,
      api_->RecordClaim(item.instance, item.node, owner, item.epoch,
                        [&]() -> Status {
                          std::lock_guard<std::mutex> lock(seg.mu);
                          auto it = seg.items.find(item_id.value());
                          if (it == seg.items.end()) {
                            return Status::NotFound("no such work item");
                          }
                          return transition(it->second);
                        }));
  // Outside every lock: claims on other items (and the shard's other
  // writes) group-commit with this record.
  return wait ? api_->WaitClaimDurable(item.instance, lsn) : Status::OK();
}

Status WorklistService::Claim(WorkItemId item_id, UserId user) {
  bool granted = false;
  Status durable =
      ChangeClaim(item_id, user, /*wait=*/true, [&](WorkItem& item) -> Status {
        // The compare-and-swap: exactly one concurrent claimer sees
        // kOffered.
        if (item.state != WorkItemState::kOffered) {
          return Status::FailedPrecondition("work item is not offered");
        }
        if (!org_->UserHasRole(user, item.role)) {
          return Status::FailedPrecondition(
              "user does not hold the required role");
        }
        item.state = WorkItemState::kClaimed;
        item.claimed_by = user;
        IndexOfferRemove(item.role, item.id);
        IndexUserAdd(user, item.id);
        granted = true;
        return Status::OK();
      });
  if (durable.ok() || !granted) return durable;
  // The claim was never granted: roll it back unless an engine event
  // already moved the item on. The release record keeps the ledger equal
  // to its WAL; nobody waits for it.
  (void)ReleaseClaim(item_id, user, /*wait=*/false);
  return durable;
}

Status WorklistService::Release(WorkItemId item_id, UserId user) {
  // No rollback when the wait fails: the release stands in memory; after
  // a crash the claim may come back, which only errs toward keeping work
  // assigned.
  return ReleaseClaim(item_id, user, /*wait=*/true);
}

Status WorklistService::ReleaseClaim(WorkItemId item_id, UserId user,
                                     bool wait) {
  return ChangeClaim(
      item_id, UserId::Invalid(), wait, [&](WorkItem& item) {
        if (item.state != WorkItemState::kClaimed || item.claimed_by != user) {
          return Status::FailedPrecondition("work item is not claimed by user");
        }
        item.state = WorkItemState::kOffered;
        item.claimed_by = UserId::Invalid();
        IndexUserRemove(user, item.id);
        IndexOfferAdd(item.role, item.id);
        return Status::OK();
      });
}

Status WorklistService::Delegate(WorkItemId item_id, UserId from, UserId to) {
  return ChangeClaim(item_id, to, /*wait=*/true, [&](WorkItem& item) {
    if (item.state != WorkItemState::kClaimed || item.claimed_by != from) {
      return Status::FailedPrecondition("work item is not claimed by user");
    }
    if (!org_->UserHasRole(to, item.role)) {
      return Status::FailedPrecondition(
          "delegate does not hold the required role");
    }
    item.claimed_by = to;
    IndexUserRemove(from, item.id);
    IndexUserAdd(to, item.id);
    return Status::OK();
  });
}

Status WorklistService::Start(WorkItemId item_id, UserId user) {
  ItemSegment& seg = *item_segments_[SegmentOfItem(item_id)];
  InstanceId instance;
  NodeId node;
  {
    std::lock_guard<std::mutex> lock(seg.mu);
    auto it = seg.items.find(item_id.value());
    if (it == seg.items.end()) return Status::NotFound("no such work item");
    const WorkItem& item = it->second;
    if (item.state != WorkItemState::kClaimed || item.claimed_by != user) {
      return Status::FailedPrecondition("claim the work item first");
    }
    instance = item.instance;
    node = item.node;
  }
  // The engine turn runs under the owner shard's lock; its Activated ->
  // Running event (same lock) marks the item started.
  return api_->StartActivity(instance, node);
}

Status WorklistService::Complete(
    WorkItemId item_id, UserId user,
    const std::vector<ProcessInstance::DataWrite>& writes) {
  ItemSegment& seg = *item_segments_[SegmentOfItem(item_id)];
  InstanceId instance;
  NodeId node;
  {
    std::lock_guard<std::mutex> lock(seg.mu);
    auto it = seg.items.find(item_id.value());
    if (it == seg.items.end()) return Status::NotFound("no such work item");
    const WorkItem& item = it->second;
    if (item.state != WorkItemState::kStarted || item.claimed_by != user) {
      return Status::FailedPrecondition("work item is not started by user");
    }
    instance = item.instance;
    node = item.node;
  }
  return api_->CompleteActivity(instance, node, writes);
}

// --- Views -------------------------------------------------------------------

std::vector<WorkItem> WorklistService::SnapshotItems(
    const std::set<WorkItemId>& ids,
    const std::function<bool(const WorkItem&)>& keep) const {
  std::vector<WorkItem> out;
  for (WorkItemId id : ids) {
    const ItemSegment& seg = *item_segments_[SegmentOfItem(id)];
    std::lock_guard<std::mutex> lock(seg.mu);
    auto it = seg.items.find(id.value());
    if (it != seg.items.end() && keep(it->second)) out.push_back(it->second);
  }
  return out;
}

std::vector<WorkItem> WorklistService::OffersFor(UserId user) const {
  return OffersForImpl(user, nullptr);
}

Result<std::vector<WorkItem>> WorklistService::OffersFor(
    UserId user, const std::string& predicate) const {
  ADEPT_ASSIGN_OR_RETURN(CompiledQuery compiled,
                         CompiledQuery::Compile(predicate));
  return OffersForImpl(user, &compiled);
}

std::vector<WorkItem> WorklistService::OffersForImpl(
    UserId user, const CompiledQuery* predicate) const {
  std::set<WorkItemId> candidates;
  for (RoleId role : org_->RolesOf(user)) {
    const RoleSegment& seg =
        *role_segments_[std::hash<RoleId>()(role) & segment_mask_];
    std::lock_guard<std::mutex> lock(seg.mu);
    auto it = seg.offers.find(role);
    if (it == seg.offers.end()) continue;
    candidates.insert(it->second.begin(), it->second.end());
  }
  // The index is advisory (it may trail a concurrent claim by a moment);
  // the item table is the truth, so re-check the state per item.
  std::vector<WorkItem> items =
      SnapshotItems(candidates, [](const WorkItem& item) {
        return item.state == WorkItemState::kOffered;
      });
  // Revalidate hits against the engine's published snapshots — the
  // lock-free read path, so the hottest worklist query never takes a
  // shard mutex. An offer whose node is no longer Activated, or whose
  // activation epoch belongs to an earlier loop iteration, is stale
  // (the retraction event will erase it momentarily); conversely a
  // snapshot that trails an in-flight mutation can only *hide* an offer
  // for one poll, never surface a wrong one. No snapshot (instance
  // mid-move during a resize) keeps the item — except under a predicate,
  // which has nothing to evaluate against and drops it for this poll.
  // The predicate reuses the snapshot this pass already fetched, so the
  // filtered view costs zero extra locks or lookups.
  std::vector<WorkItem> offers;
  offers.reserve(items.size());
  for (WorkItem& item : items) {
    std::shared_ptr<const InstanceSnapshot> snapshot =
        api_->SnapshotOf(item.instance);
    if (snapshot != nullptr) {
      if (snapshot->marking.node(item.node) != NodeState::kActivated) {
        continue;
      }
      const uint64_t* runs = snapshot->completed_runs.Find(item.node);
      uint64_t epoch = runs == nullptr ? 0 : *runs;
      if (epoch != item.epoch) continue;
      if (predicate != nullptr && !predicate->Matches(*snapshot)) continue;
    } else if (predicate != nullptr) {
      continue;
    }
    offers.push_back(std::move(item));
  }
  return offers;
}

std::vector<WorkItem> WorklistService::AssignedTo(UserId user) const {
  std::set<WorkItemId> candidates;
  {
    const UserSegment& seg =
        *user_segments_[std::hash<UserId>()(user) & segment_mask_];
    std::lock_guard<std::mutex> lock(seg.mu);
    auto it = seg.assigned.find(user);
    if (it != seg.assigned.end()) candidates = it->second;
  }
  return SnapshotItems(candidates, [user](const WorkItem& item) {
    return item.claimed_by == user &&
           (item.state == WorkItemState::kClaimed ||
            item.state == WorkItemState::kStarted);
  });
}

Result<WorkItem> WorklistService::Get(WorkItemId item_id) const {
  const ItemSegment& seg = *item_segments_[SegmentOfItem(item_id)];
  std::lock_guard<std::mutex> lock(seg.mu);
  auto it = seg.items.find(item_id.value());
  if (it == seg.items.end()) return Status::NotFound("no such work item");
  return it->second;
}

WorklistStats WorklistService::Stats() const {
  WorklistStats stats;
  for (const auto& seg_ptr : item_segments_) {
    const ItemSegment& seg = *seg_ptr;
    std::lock_guard<std::mutex> lock(seg.mu);
    for (const auto& [_, item] : seg.items) {
      switch (item.state) {
        case WorkItemState::kOffered:
          ++stats.offered;
          break;
        case WorkItemState::kClaimed:
          ++stats.claimed;
          break;
        case WorkItemState::kStarted:
          ++stats.started;
          break;
      }
    }
  }
  stats.revoked_total = revoked_total_.load(std::memory_order_relaxed);
  stats.completed_total = completed_total_.load(std::memory_order_relaxed);
  return stats;
}

// --- Event subscription ------------------------------------------------------

void WorklistService::OnNodeStateChange(const ProcessInstance& instance,
                                        NodeId node, NodeState from,
                                        NodeState to) {
  if (to == NodeState::kActivated && from != NodeState::kActivated) {
    const Node* n = OfferableActivity(instance.schema(), node);
    if (n == nullptr) return;
    CreateItem(instance.id(), node, n->role, WorkItemState::kOffered,
               UserId::Invalid(), ActivationEpoch(instance, node));
    return;
  }

  ItemSegment& seg = *item_segments_[SegmentOfKey(instance.id(), node)];
  std::lock_guard<std::mutex> lock(seg.mu);
  auto live = seg.live.find({instance.id().value(), node.value()});
  if (live == seg.live.end()) return;
  auto it = seg.items.find(live->second.value());
  if (it == seg.items.end()) return;
  WorkItem& item = it->second;

  if (to == NodeState::kRunning && from == NodeState::kActivated) {
    if (item.state == WorkItemState::kClaimed) {
      // The claimer (or a delegate) started the activity: their item
      // moves to started and stays on their assignment list.
      item.state = WorkItemState::kStarted;
    } else if (item.state == WorkItemState::kOffered) {
      // Started directly through the engine without a claim: the offer
      // simply closes (no claim ledger entry to cancel).
      EraseItemLocked(seg, item);
    }
    return;
  }
  if (to == NodeState::kRunning || to == NodeState::kSuspended ||
      to == NodeState::kFailed) {
    return;  // retry/suspend/resume keep the owner's in-progress item
  }
  if (to == NodeState::kCompleted) {
    if (item.state == WorkItemState::kStarted ||
        item.state == WorkItemState::kClaimed) {
      completed_total_.fetch_add(1, std::memory_order_relaxed);
    }
    EraseItemLocked(seg, item);
    return;
  }
  // NotActivated / Skipped (ad-hoc deletion, demotion, dead path, loop
  // reset): retract the item — offered or claimed, exactly once.
  revoked_total_.fetch_add(1, std::memory_order_relaxed);
  EraseItemLocked(seg, item);
}

void WorklistService::OnInstanceMigrated(const ProcessInstance& instance) {
  // Snapshot this instance's items (instance-index lock is a leaf; do not
  // hold it while touching segments).
  std::set<WorkItemId> ids;
  {
    InstanceSegment& iseg = *instance_segments_[
        std::hash<InstanceId>()(instance.id()) & segment_mask_];
    std::lock_guard<std::mutex> lock(iseg.mu);
    auto found = iseg.items.find(instance.id());
    if (found != iseg.items.end()) ids = found->second;
  }
  for (WorkItemId id : ids) {
    ItemSegment& seg = *item_segments_[SegmentOfItem(id)];
    std::lock_guard<std::mutex> lock(seg.mu);
    auto it = seg.items.find(id.value());
    if (it == seg.items.end()) continue;
    WorkItem& item = it->second;
    if (item.instance != instance.id()) continue;
    const Node* n = instance.schema().FindNode(item.node);
    const NodeState state = n == nullptr ? NodeState::kNotActivated
                                         : instance.node_state(item.node);
    bool ok = state == NodeState::kActivated;
    if (item.state != WorkItemState::kOffered) {
      // A claim lives while its node is live: the rule the owner's ledger
      // applies to the same announcement. A claimed item whose node is
      // already Running was started by its owner concurrently; promote it.
      ok = ClaimLedger::IsLive(state);
      if (state == NodeState::kRunning) item.state = WorkItemState::kStarted;
    }
    if (!ok) {
      revoked_total_.fetch_add(1, std::memory_order_relaxed);
      EraseItemLocked(seg, item);
    }
  }
  // Offer Activated role activities the remap left without an item
  // (CreateItem keeps a live item as it is).
  DeriveItems(instance, {});
}

}  // namespace adept
