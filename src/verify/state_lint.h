// Runtime-health linting over *recovered instance state*.
//
// The schema verifier (verifier.h) proves a process model sound before it
// runs; these rules look at the other half — what execution left behind.
// They extend the same AV-id catalog (report format, suppression
// baselines, adept_lint plumbing all shared):
//
//   AV011 stuck-activity   An activity is in the Running state but the
//                          instance's trace kept growing without any
//                          progress on it: at least
//                          StateLintOptions::stuck_after_events events
//                          were appended after the activity's last start.
//                          Long-running steps are legal, so this is a
//                          warning — but a worker that died mid-activity
//                          looks exactly like this.
//   AV012 orphaned-claim   The system's claim ledger (the claims of its
//                          own instances, ClaimLedger) holds a claim
//                          whose activity is no longer live — the node
//                          completed, was skipped, left the schema, or its
//                          instance is gone. The owner can never finish
//                          it and recovery does not re-attach it; a live
//                          system drops such claims itself, so only a
//                          damaged or hand-edited WAL leaves one behind.
//   AV013 replication-     A shard of a ClusterReplicationStatus dump
//         degraded         cannot commit: fenced by a newer epoch (error —
//                          this lineage was deposed, stop routing writes
//                          to it) or below its live quorum (warning —
//                          writes fail fast, reads serve degraded; lists
//                          each non-alive peer with its silence). Fed by
//                          adept_lint --repl-status FILE, where FILE holds
//                          AdeptCluster::ReplicationStatus().ToJson().
//
// Both rules read a quiesced system (a recovered one, or one the caller
// is not concurrently mutating); they take the engine lock through the
// caller, not themselves. adept_lint --state runs them after recovery and
// appends the findings to its JSON report under "runtime".

#ifndef ADEPT_VERIFY_STATE_LINT_H_
#define ADEPT_VERIFY_STATE_LINT_H_

#include <cstdint>
#include <string>

#include "runtime/engine.h"
#include "verify/verifier.h"
#include "worklist/claim_ledger.h"

namespace adept {

struct StateLintOptions {
  // AV011 fires when a Running activity saw this many trace events appended
  // after its last start without completing/failing/retrying.
  size_t stuck_after_events = 8;
  // JSON file holding a ClusterReplicationStatus dump for AV013. Empty:
  // skip the replication rule.
  std::string repl_status_path;
};

// Lints every instance of `engine`, the claims of `claims` — the ledger of
// the system `engine` belongs to (AdeptSystem::claims()) — and the
// replication status, if configured. Findings are deterministic: ordered
// by instance id, then node id; AV013 findings by shard.
Result<VerificationReport> LintRuntimeState(const Engine& engine,
                                            const ClaimLedger& claims,
                                            const StateLintOptions& options);

// AV013 over one parsed ClusterReplicationStatus document (what
// AdeptCluster::ReplicationStatus().ToJson() produces). Exposed directly
// so a live cluster can be linted without a round-trip through a file.
void LintReplicationStatus(const JsonValue& status,
                           VerificationReport* report);

}  // namespace adept

#endif  // ADEPT_VERIFY_STATE_LINT_H_
