// MigrationManager: propagation of process type changes to running
// instances (paper Sec. 2, "Process type changes and change propagation",
// Figs. 1 and 3).
//
// For a type change S -> S' (the repository-stored Delta-T), every running
// instance of S is classified and, where correct, migrated on-the-fly:
//
//   unbiased instance:
//     compliance check (optimized per-op conditions, or the general replay
//     criterion) -> adopt S' + automatic state adaptation, or stay on S
//     with a state-related conflict report
//
//   biased instance (prior ad-hoc change Delta-I):
//     semantic overlap analysis Delta-T vs Delta-I
//       disjoint     -> re-verify S' + Delta-I (structural conflicts such
//                       as deadlock-causing cycles are caught here), check
//                       state conditions, then rebase the bias onto S'
//       equivalent / type-change-subsumes-bias
//                    -> the ad-hoc change anticipated the type change: the
//                       bias is cancelled, entity ids are remapped onto
//                       S''s, and the instance continues unbiased on S'
//       otherwise    -> semantic conflict, stays on S
//
// Every instance that stays behind is listed in the MigrationReport with
// its conflict class and reason — the report of Fig. 3.

#ifndef ADEPT_COMPLIANCE_MIGRATION_H_
#define ADEPT_COMPLIANCE_MIGRATION_H_

#include <string>
#include <vector>

#include "change/delta.h"
#include "runtime/engine.h"
#include "storage/instance_store.h"
#include "storage/schema_repository.h"

namespace adept {

enum class MigrationOutcome {
  kMigrated = 0,        // unbiased, now on the new version
  kMigratedBiased,      // biased, bias rebased onto the new version
  kBiasCancelled,       // biased, bias was equivalent/subsumed -> unbiased
  kStateConflict,       // not compliant in its current marking
  kStructuralConflict,  // bias + type change break a buildtime guarantee
  kSemanticConflict,    // overlapping changes need manual resolution
  kFinishedSkipped,     // completed instances stay on their version
  kNotOnSourceVersion,  // not an instance of the source schema
  kError,               // internal inconsistency (should not happen)
};

const char* MigrationOutcomeToString(MigrationOutcome outcome);

// Whether an outcome may have changed the instance or its store record:
// the three migrated outcomes, and kError, because MigrateOne can fail
// after AdoptSchema, ClearBias or the replay oracle check has already
// changed the instance. Every other outcome leaves both untouched, so
// whoever republishes or reconciles after a migration visits only these.
bool ChangesInstance(MigrationOutcome outcome);

struct InstanceMigrationResult {
  InstanceId id;
  MigrationOutcome outcome = MigrationOutcome::kError;
  bool was_biased = false;
  std::string detail;
};

struct MigrationReport {
  std::string type_name;
  SchemaId from;
  SchemaId to;
  int from_version = 0;
  int to_version = 0;
  std::vector<InstanceMigrationResult> results;

  size_t Count(MigrationOutcome outcome) const;
  // kMigrated + kMigratedBiased + kBiasCancelled.
  size_t MigratedTotal() const;
  std::string Summary() const;
};

struct MigrationOptions {
  // Use the general replay criterion instead of the optimized conditions.
  bool use_replay_checker = false;
  // After migrating, cross-check the adapted marking against the replay
  // oracle; mismatches yield kError (testing/diagnostics).
  bool verify_adaptation_with_replay = false;
  // Classify only; do not modify instances ("lazy" migration planning).
  bool dry_run = false;
};

class MigrationManager {
 public:
  MigrationManager(Engine* engine, SchemaRepository* repository,
                   InstanceStore* store)
      : engine_(engine), repository_(repository), store_(store) {}

  // Migrates every registered instance currently based on `from` to `to`
  // (which must be the version derived from `from`), in ascending id
  // order. Only the instances on `from` are visited (InstanceStore::
  // IdsOnBase), so a round costs what it examines however many versions
  // the type has; the report lists exactly those instances.
  Result<MigrationReport> MigrateAll(SchemaId from, SchemaId to,
                                     const MigrationOptions& options = {});

  // Migrates a single instance (on-demand / lazy migration). Its
  // kMigrated event takes the note `notes` holds for its text; MigrateAll
  // passes one pool to every instance of a call.
  Result<InstanceMigrationResult> MigrateOne(InstanceId id, SchemaId from,
                                             SchemaId to,
                                             const Delta& type_change,
                                             const MigrationOptions& options,
                                             TraceNotePool& notes);

 private:
  Result<InstanceMigrationResult> MigrateUnbiased(
      ProcessInstance& instance, SchemaId to, const Delta& type_change,
      const MigrationOptions& options, TraceNotePool& notes);
  Result<InstanceMigrationResult> MigrateBiased(
      ProcessInstance& instance, const InstanceStore::Record& record,
      SchemaId to, const Delta& type_change, const MigrationOptions& options,
      TraceNotePool& notes);

  Engine* engine_;
  SchemaRepository* repository_;
  InstanceStore* store_;
};

}  // namespace adept

#endif  // ADEPT_COMPLIANCE_MIGRATION_H_
