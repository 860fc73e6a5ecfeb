// JSON (de)serialization of instance runtime state (marking, trace, data
// context, loop counters) for snapshots and recovery.

#ifndef ADEPT_STORAGE_STATE_SERIALIZATION_H_
#define ADEPT_STORAGE_STATE_SERIALIZATION_H_

#include "common/json.h"
#include "common/status.h"
#include "runtime/instance.h"

namespace adept {

JsonValue MarkingToJson(const Marking& marking);
Result<Marking> MarkingFromJson(const JsonValue& json);

JsonValue TraceToJson(const ExecutionTrace& trace);
// Refuses with kCorruption an event whose "q" is not its index, whose "k"
// names no kind, or that carries a data id, branch or iteration its kind
// does not record. An event whose only payload is a detail text takes the
// note `notes` holds for that text, so equal texts share one note.
Result<ExecutionTrace> TraceFromJson(const JsonValue& json,
                                     TraceNotePool& notes);
// The same with a pool of its own, shared within the one trace.
Result<ExecutionTrace> TraceFromJson(const JsonValue& json);

JsonValue DataContextToJson(const DataContext& data);
Result<DataContext> DataContextFromJson(const JsonValue& json);

// Full runtime state of an instance (schema reference excluded — the caller
// persists base schema id + bias delta separately).
JsonValue InstanceStateToJson(const ProcessInstance& instance);
// The trace's detail texts take their notes from `notes` (TraceFromJson).
Status RestoreInstanceState(ProcessInstance& instance, const JsonValue& json,
                            TraceNotePool& notes);

}  // namespace adept

#endif  // ADEPT_STORAGE_STATE_SERIALIZATION_H_
