#include "verify/state_lint.h"

#include <algorithm>
#include <vector>

#include "common/fs_util.h"
#include "common/json.h"
#include "common/string_util.h"
#include "runtime/instance.h"
#include "runtime/trace.h"

namespace adept {

namespace {

// Trace events appended after the activity's most recent start. The
// instance is making progress elsewhere while this node stays Running —
// the longer that tail, the more the node looks abandoned.
size_t TailSinceStart(const ExecutionTrace& trace, NodeId node) {
  const int64_t last_start = trace.LastStartSeq(node);
  if (last_start < 0) return 0;  // Running without a start: not our rule
  return static_cast<size_t>(trace.next_sequence() - 1 - last_start);
}

void LintStuckActivities(const Engine& engine,
                         const StateLintOptions& options,
                         VerificationReport* report) {
  std::vector<InstanceId> ids = engine.InstanceIds();
  std::sort(ids.begin(), ids.end());
  for (InstanceId id : ids) {
    const ProcessInstance* instance = engine.Find(id);
    if (instance == nullptr) continue;
    instance->schema().VisitNodes([&](const Node& node) {
      if (instance->node_state(node.id) != NodeState::kRunning) return;
      const size_t tail = TailSinceStart(instance->trace(), node.id);
      if (tail < options.stuck_after_events) return;
      VerificationIssue issue;
      issue.rule = VerifyRule::kStuckActivity;
      issue.severity = VerifySeverity::kWarning;
      issue.node = node.id;
      issue.span.push_back(EntitySpan::Node(node.id));
      issue.message = StrFormat(
          "activity '%s' (n%u) of instance I%llu is running with no "
          "progress: %zu trace events since its last start",
          node.name.c_str(), node.id.value(),
          static_cast<unsigned long long>(id.value()), tail);
      issue.fix_hint =
          "complete, fail, or retry the activity; if its worker died, "
          "release the work item so it can be re-offered";
      report->Add(std::move(issue));
    });
  }
}

// Every claim of the ledger whose activity is not live (see
// ClaimLedger::Prune), with the reason.
void LintOrphanedClaims(const Engine& engine, const ClaimLedger& claims,
                        VerificationReport* report) {
  claims.ForEach([&](InstanceId instance_id, NodeId node_id,
                     const ClaimLedger::Entry& claim) {
    const ProcessInstance* instance = engine.Find(instance_id);
    const Node* node =
        instance == nullptr ? nullptr : instance->schema().FindNode(node_id);
    std::string reason;
    if (instance == nullptr) {
      reason = "the instance no longer exists";
    } else if (node == nullptr) {
      reason = "the node no longer exists in the instance's schema";
    } else {
      const NodeState state = instance->node_state(node_id);
      if (ClaimLedger::IsLive(state)) return;  // claim still actionable
      reason = StrFormat("the node's state is %s", NodeStateToString(state));
    }
    VerificationIssue issue;
    issue.rule = VerifyRule::kOrphanedClaim;
    issue.severity = VerifySeverity::kWarning;
    issue.node = node_id;
    issue.span.push_back(EntitySpan::Node(node_id));
    const std::string subject =
        node == nullptr ? "a node" : "activity '" + node->name + "'";
    issue.message = StrFormat(
        "worklist claim by u%llu on %s (n%u) of instance I%llu is "
        "orphaned: %s",
        static_cast<unsigned long long>(claim.user.value()), subject.c_str(),
        node_id.value(), static_cast<unsigned long long>(instance_id.value()),
        reason.c_str());
    issue.fix_hint =
        "checkpoint: SaveSnapshot keeps only the claims of live activities";
    report->Add(std::move(issue));
  });
}

}  // namespace

void LintReplicationStatus(const JsonValue& status,
                           VerificationReport* report) {
  if (!status.is_object() || !status.Get("attached").as_bool()) return;
  const JsonValue& shards = status.Get("shards");
  if (!shards.is_array()) return;
  for (const JsonValue& shard : shards.as_array()) {
    const auto shard_id = static_cast<unsigned long long>(
        shard.Get("shard").as_int());
    if (shard.Get("fenced").as_bool()) {
      VerificationIssue issue;
      issue.rule = VerifyRule::kReplicationDegraded;
      issue.severity = VerifySeverity::kError;
      issue.message = StrFormat(
          "shard %llu's primary is fenced by a newer epoch (own epoch "
          "%llu): this lineage was deposed and rejects every write",
          shard_id,
          static_cast<unsigned long long>(shard.Get("epoch").as_int()));
      issue.fix_hint =
          "stop routing writes to this node; rejoin its file set as a "
          "replica of the promoted primary (the stale suffix is "
          "snapshot-reset away)";
      report->Add(std::move(issue));
      continue;
    }
    if (shard.Get("quorum_live").as_bool()) continue;
    // Below quorum: name every peer that is not alive, with its silence.
    std::string detail;
    int live_copies = 1;  // the primary's own disk
    const JsonValue& peers = shard.Get("peers");
    if (peers.is_array()) {
      for (const JsonValue& peer : peers.as_array()) {
        const std::string& health = peer.Get("health").as_string();
        if (health != "dead") ++live_copies;
        if (health == "alive") continue;
        if (!detail.empty()) detail += ", ";
        detail += StrFormat(
            "%s %s for %llums", peer.Get("endpoint").as_string().c_str(),
            health.c_str(),
            static_cast<unsigned long long>(peer.Get("silence_ms").as_int()));
      }
    }
    VerificationIssue issue;
    issue.rule = VerifyRule::kReplicationDegraded;
    issue.severity = VerifySeverity::kWarning;
    issue.message = StrFormat(
        "shard %llu is below its live quorum (%d of %lld required copies "
        "live): writes fail fast, reads serve degraded%s%s%s",
        shard_id, live_copies,
        static_cast<long long>(shard.Get("quorum").as_int()),
        detail.empty() ? "" : " (", detail.c_str(),
        detail.empty() ? "" : ")");
    issue.fix_hint =
        "restore connectivity to (or restart) the dead replicas, or let "
        "the failover coordinator promote a standby quorum";
    report->Add(std::move(issue));
  }
}

Result<VerificationReport> LintRuntimeState(const Engine& engine,
                                            const ClaimLedger& claims,
                                            const StateLintOptions& options) {
  VerificationReport report;
  LintStuckActivities(engine, options, &report);
  LintOrphanedClaims(engine, claims, &report);
  if (!options.repl_status_path.empty()) {
    ADEPT_ASSIGN_OR_RETURN(std::string blob,
                           ReadFileToString(options.repl_status_path));
    ADEPT_ASSIGN_OR_RETURN(JsonValue status, JsonValue::Parse(blob));
    LintReplicationStatus(status, &report);
  }
  return report;
}

}  // namespace adept
