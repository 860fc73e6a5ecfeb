// InstanceStore: per-instance storage representation (paper Fig. 2).
//
// Unbiased instances are stored redundant-free: a reference to the type
// schema plus their runtime state (which lives in the ProcessInstance).
// Biased instances additionally carry their bias Delta; how their execution
// schema is represented is the storage strategy under evaluation:
//
//   kOverlay (paper's hybrid): keep a minimal substitution block, resolve
//       accesses by overlaying it on the shared base schema
//   kFullCopy: materialize and cache a complete private schema
//   kMaterializeOnDemand: store only the delta; build a materialized schema
//       on every access and throw it away afterwards
//
// The store never talks to the runtime; the compliance layer wires the
// returned execution views into ProcessInstance::AdoptSchema.

#ifndef ADEPT_STORAGE_INSTANCE_STORE_H_
#define ADEPT_STORAGE_INSTANCE_STORE_H_

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "change/delta.h"
#include "common/ids.h"
#include "common/status.h"
#include "model/schema_view.h"
#include "storage/overlay_schema.h"
#include "storage/schema_repository.h"
#include "storage/substitution_block.h"

namespace adept {

enum class StorageStrategy {
  kOverlay = 0,
  kFullCopy,
  kMaterializeOnDemand,
};

const char* StorageStrategyToString(StorageStrategy s);

class InstanceStore {
 public:
  struct Record {
    InstanceId id;
    SchemaId base_schema;
    StorageStrategy strategy = StorageStrategy::kOverlay;
    Delta bias;  // empty for unbiased instances
    // Strategy-dependent cached representation (unbiased: both empty).
    std::shared_ptr<const SubstitutionBlock> block;
    std::shared_ptr<const ProcessSchema> full_copy;
    // Full report (warnings included) of the last verified bias
    // application. Empty while unbiased (the type schema's report lives in
    // the repository). No analysis is kept per instance: the next bias is
    // re-verified incrementally from the type schema's cached analysis.
    VerificationReport report;

    bool biased() const { return !bias.empty(); }
  };

  explicit InstanceStore(SchemaRepository* repository)
      : repository_(repository) {}
  InstanceStore(const InstanceStore&) = delete;
  InstanceStore& operator=(const InstanceStore&) = delete;

  Status Register(InstanceId id, SchemaId base_schema,
                  StorageStrategy strategy = StorageStrategy::kOverlay);
  Status Unregister(InstanceId id);

  Result<const Record*> Get(InstanceId id) const;
  // Verification report of the instance's execution schema: the last bias
  // application's when biased, its base version's otherwise.
  Result<const VerificationReport*> ReportOf(InstanceId id);
  bool IsBiased(InstanceId id) const;
  size_t size() const { return records_.size(); }
  std::vector<InstanceId> Ids() const;
  // Ids of the instances based on `base`, in ascending order: the same
  // list as filtering Ids() by Record::base_schema, read from an index
  // kept by every base change, so a migration visits only its source
  // version's instances.
  std::vector<InstanceId> IdsOnBase(SchemaId base) const;

  // Extends the instance's bias by clones of `delta`'s ops (the clones get
  // pinned bias-range ids; `delta` is only read), verifies the combined
  // schema, updates the representation, and returns the new execution
  // view.
  //   kFailedPrecondition - an op does not apply structurally
  //   kVerificationFailed - combined schema breaks a buildtime rule
  Result<std::shared_ptr<const SchemaView>> AddBias(InstanceId id,
                                                    const Delta& delta);

  // Re-bases the instance onto `new_base` (migration). An unbiased
  // instance just moves. A biased one installs `bias` and `verified`,
  // which the caller produced by applying a clone of the record's bias
  // (pinned ids, bias-range allocator, `new_base`'s version) over
  // `new_base` with Delta::ApplyVerified: the migration's structural probe
  // is the bias's only verification. kFailedPrecondition when a biased
  // record gets no verified bias; the record is untouched on any error.
  Result<std::shared_ptr<const SchemaView>> Rebase(
      InstanceId id, SchemaId new_base, Delta bias = {},
      Delta::VerifiedSchema verified = {});

  // Drops the instance's bias entirely and points it at `new_base`
  // (bias cancellation during migration of equivalent changes).
  Result<std::shared_ptr<const SchemaView>> ClearBias(InstanceId id,
                                                      SchemaId new_base);

  // Current execution schema view under the record's strategy. For
  // kMaterializeOnDemand this materializes a fresh copy every call.
  Result<std::shared_ptr<const SchemaView>> ExecutionSchema(
      InstanceId id) const;

  struct MemoryStats {
    size_t shared_schemas = 0;    // repository (shared by all instances)
    size_t blocks = 0;            // substitution blocks (kOverlay)
    size_t full_copies = 0;       // private schemas (kFullCopy)
    size_t records = 0;           // bookkeeping incl. bias deltas
    size_t total() const {
      return shared_schemas + blocks + full_copies + records;
    }
  };
  MemoryStats Memory() const;

 private:
  // The only writer of Record::base_schema: moves the record's id between
  // the by_base_ sets.
  void SetBase(Record& record, SchemaId base);
  void Unindex(const Record& record);
  // Installs `bias`, verified over the record's base as `verified`: the
  // ops, the report and the cached representation of a biased record.
  Status Install(Record& record, Delta bias, Delta::VerifiedSchema verified);
  Result<std::shared_ptr<const SchemaView>> ViewFor(const Record& record) const;

  SchemaRepository* repository_;
  std::map<InstanceId, Record> records_;
  // Ids per base schema; a base without instances has no entry.
  std::map<SchemaId, std::set<InstanceId>> by_base_;
};

}  // namespace adept

#endif  // ADEPT_STORAGE_INSTANCE_STORE_H_
