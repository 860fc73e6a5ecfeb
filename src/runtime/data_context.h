// DataContext: versioned values of a process instance's data elements.
//
// Every write appends a new version tagged with the writing node and the
// trace sequence number. Reads return the latest version. Keeping the full
// history is what allows activity deletions and migrations to reason about
// "missing data" (e.g., a deleted activity's writes stay available to
// readers that already consumed them, while compliance checks can detect
// readers that would lose their only supplier).
//
// Storage is persistent: element histories are immutable cons lists
// (newest first — a write shares the entire previous history), and the
// latest value of every element is additionally maintained in a
// structurally shared `tips` map. Snapshot publication takes the tips map
// by O(1) root copy instead of walking every element; history stays
// behind the mutating path, materialized on demand by the cold
// compliance/serialization consumers.

#ifndef ADEPT_RUNTIME_DATA_CONTEXT_H_
#define ADEPT_RUNTIME_DATA_CONTEXT_H_

#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/persistent_map.h"
#include "common/status.h"
#include "runtime/data_value.h"

namespace adept {

class DataContext {
 public:
  struct Version {
    DataValue value;
    NodeId writer;    // invalid for external/system-supplied values
    int64_t sequence; // trace sequence number of the write
  };

  // One link of an element's immutable history. Appending a version
  // allocates one node and shares `prev` — old snapshots holding the
  // previous head keep seeing their history unchanged.
  struct VersionNode {
    Version version;
    std::shared_ptr<const VersionNode> prev;
    size_t length = 0;  // versions in this list including this one
  };
  using HistoryPtr = std::shared_ptr<const VersionNode>;

  // Appends a new version.
  void Write(DataId data, DataValue value, NodeId writer, int64_t sequence);

  // Latest value; kNotFound when the element was never written.
  Result<DataValue> Read(DataId data) const;

  bool HasValue(DataId data) const;

  // Full history, oldest first (empty when never written). Materialized
  // from the cons list — callers are cold paths (compliance checks,
  // serialization), never the mutation or publication path.
  std::vector<Version> History(DataId data) const;

  // Raw history heads, keyed by element. Iteration order is by id bits;
  // deterministic consumers sort.
  const PersistentMap<DataId, HistoryPtr>& elements() const {
    return elements_;
  }

  // Latest value of every written element — the map InstanceSnapshot
  // shares by root copy.
  const PersistentMap<DataId, DataValue>& tips() const { return tips_; }

  // Visits every element as (id, oldest-first history vector).
  template <typename Fn>
  void ForEachElement(Fn&& fn) const {
    elements_.ForEach([&](DataId id, const HistoryPtr& head) {
      fn(id, Materialize(head));
    });
  }

  size_t MemoryFootprint() const;

 private:
  static std::vector<Version> Materialize(const HistoryPtr& head);

  PersistentMap<DataId, HistoryPtr> elements_;
  PersistentMap<DataId, DataValue> tips_;
};

}  // namespace adept

#endif  // ADEPT_RUNTIME_DATA_CONTEXT_H_
