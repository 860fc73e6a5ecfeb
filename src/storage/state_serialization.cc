#include "storage/state_serialization.h"

#include <algorithm>

#include "common/string_util.h"

namespace adept {

JsonValue MarkingToJson(const Marking& marking) {
  JsonValue nodes = JsonValue::MakeArray();
  std::vector<std::pair<NodeId, NodeState>> node_entries(
      marking.node_states().begin(), marking.node_states().end());
  std::sort(node_entries.begin(), node_entries.end());
  for (const auto& [id, state] : node_entries) {
    JsonValue e = JsonValue::MakeObject();
    e.Set("n", JsonValue(id.value()));
    e.Set("s", JsonValue(static_cast<int>(state)));
    nodes.Append(std::move(e));
  }
  JsonValue edges = JsonValue::MakeArray();
  std::vector<std::pair<EdgeId, EdgeState>> edge_entries(
      marking.edge_states().begin(), marking.edge_states().end());
  std::sort(edge_entries.begin(), edge_entries.end());
  for (const auto& [id, state] : edge_entries) {
    JsonValue e = JsonValue::MakeObject();
    e.Set("e", JsonValue(id.value()));
    e.Set("s", JsonValue(static_cast<int>(state)));
    edges.Append(std::move(e));
  }
  JsonValue j = JsonValue::MakeObject();
  j.Set("nodes", std::move(nodes));
  j.Set("edges", std::move(edges));
  return j;
}

Result<Marking> MarkingFromJson(const JsonValue& json) {
  if (!json.is_object()) return Status::Corruption("marking json malformed");
  Marking m;
  for (const JsonValue& e : json.Get("nodes").as_array()) {
    m.set_node(NodeId(static_cast<uint32_t>(e.Get("n").as_int())),
               static_cast<NodeState>(e.Get("s").as_int()));
  }
  for (const JsonValue& e : json.Get("edges").as_array()) {
    m.set_edge(EdgeId(static_cast<uint32_t>(e.Get("e").as_int())),
               static_cast<EdgeState>(e.Get("s").as_int()));
  }
  return m;
}

JsonValue TraceToJson(const ExecutionTrace& trace) {
  JsonValue events = JsonValue::MakeArray();
  for (const TraceEvent& ev : trace.events()) {
    JsonValue e = JsonValue::MakeObject();
    e.Set("q", JsonValue(ev.sequence));
    e.Set("k", JsonValue(static_cast<int>(ev.kind)));
    if (ev.node.valid()) e.Set("n", JsonValue(ev.node.value()));
    if (ev.data.valid()) e.Set("d", JsonValue(ev.data.value()));
    if (ev.branch_value != 0) e.Set("b", JsonValue(ev.branch_value));
    if (ev.iteration != 0) e.Set("i", JsonValue(ev.iteration));
    if (!ev.reset_nodes().empty()) {
      JsonValue rn = JsonValue::MakeArray();
      for (NodeId n : ev.reset_nodes()) rn.Append(JsonValue(n.value()));
      e.Set("r", std::move(rn));
    }
    if (!ev.detail().empty()) e.Set("t", JsonValue(ev.detail()));
    events.Append(std::move(e));
  }
  JsonValue j = JsonValue::MakeObject();
  j.Set("events", std::move(events));
  return j;
}

Result<ExecutionTrace> TraceFromJson(const JsonValue& json,
                                     TraceNotePool& notes) {
  if (!json.is_object()) return Status::Corruption("trace json malformed");
  ExecutionTrace trace;
  for (const JsonValue& e : json.Get("events").as_array()) {
    // A record stores no sequence and one value: what the engine writes
    // fits, and anything else would be lost on load.
    const int64_t index = trace.next_sequence();
    const JsonValue& sequence = e.Get("q");
    if (!sequence.is_int() || sequence.as_int() != index) {
      return Status::Corruption(StrFormat(
          "trace event %lld: sequence is not its index",
          static_cast<long long>(index)));
    }
    const JsonValue& kind = e.Get("k");
    if (!kind.is_int() || kind.as_int() < 0 ||
        kind.as_int() > static_cast<int64_t>(TraceEventKind::kMigrated)) {
      return Status::Corruption(StrFormat("trace event %lld: unknown kind",
                                          static_cast<long long>(index)));
    }
    TraceEvent ev;
    ev.kind = static_cast<TraceEventKind>(kind.as_int());
    if ((e.Has("d") && ev.kind != TraceEventKind::kDataWrite) ||
        (e.Has("b") && ev.kind != TraceEventKind::kBranchChosen) ||
        (e.Has("i") && ev.kind != TraceEventKind::kLoopReset)) {
      return Status::Corruption(StrFormat(
          "trace event %lld: a data id, branch or iteration its kind (%s) "
          "does not record",
          static_cast<long long>(index), TraceEventKindToString(ev.kind)));
    }
    if (e.Has("n")) {
      ev.node = NodeId(static_cast<uint32_t>(e.Get("n").as_int()));
    }
    if (e.Has("d")) {
      ev.data = DataId(static_cast<uint32_t>(e.Get("d").as_int()));
    }
    ev.branch_value = static_cast<int>(e.Get("b").as_int());
    ev.iteration = static_cast<int>(e.Get("i").as_int());
    std::vector<NodeId> reset_nodes;
    for (const JsonValue& r : e.Get("r").as_array()) {
      reset_nodes.push_back(NodeId(static_cast<uint32_t>(r.as_int())));
    }
    const std::string& detail = e.Get("t").as_string();
    ev.payload = reset_nodes.empty()
                     ? notes.Detail(detail)
                     : TracePayload(std::move(reset_nodes), detail);
    trace.Append(std::move(ev));
  }
  return trace;
}

Result<ExecutionTrace> TraceFromJson(const JsonValue& json) {
  TraceNotePool notes;
  return TraceFromJson(json, notes);
}

JsonValue DataContextToJson(const DataContext& data) {
  JsonValue elements = JsonValue::MakeArray();
  std::vector<DataId> ids;
  for (const auto& [id, _] : data.elements()) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (DataId id : ids) {
    JsonValue versions = JsonValue::MakeArray();
    for (const auto& v : data.History(id)) {
      JsonValue vj = JsonValue::MakeObject();
      vj.Set("v", v.value.ToJson());
      if (v.writer.valid()) vj.Set("w", JsonValue(v.writer.value()));
      vj.Set("q", JsonValue(v.sequence));
      versions.Append(std::move(vj));
    }
    JsonValue ej = JsonValue::MakeObject();
    ej.Set("d", JsonValue(id.value()));
    ej.Set("versions", std::move(versions));
    elements.Append(std::move(ej));
  }
  JsonValue j = JsonValue::MakeObject();
  j.Set("elements", std::move(elements));
  return j;
}

Result<DataContext> DataContextFromJson(const JsonValue& json) {
  if (!json.is_object()) return Status::Corruption("data context malformed");
  DataContext data;
  for (const JsonValue& ej : json.Get("elements").as_array()) {
    DataId id(static_cast<uint32_t>(ej.Get("d").as_int()));
    for (const JsonValue& vj : ej.Get("versions").as_array()) {
      ADEPT_ASSIGN_OR_RETURN(DataValue value, DataValue::FromJson(vj.Get("v")));
      NodeId writer;
      if (vj.Has("w")) {
        writer = NodeId(static_cast<uint32_t>(vj.Get("w").as_int()));
      }
      data.Write(id, std::move(value), writer, vj.Get("q").as_int());
    }
  }
  return data;
}

JsonValue InstanceStateToJson(const ProcessInstance& instance) {
  JsonValue j = JsonValue::MakeObject();
  j.Set("marking", MarkingToJson(instance.marking()));
  j.Set("trace", TraceToJson(instance.trace()));
  j.Set("data", DataContextToJson(instance.data()));
  j.Set("started", JsonValue(instance.started()));
  JsonValue loops = JsonValue::MakeArray();
  std::vector<std::pair<NodeId, int>> loop_entries(
      instance.loop_iterations().begin(), instance.loop_iterations().end());
  std::sort(loop_entries.begin(), loop_entries.end());
  for (const auto& [node, count] : loop_entries) {
    JsonValue lj = JsonValue::MakeObject();
    lj.Set("n", JsonValue(node.value()));
    lj.Set("c", JsonValue(count));
    loops.Append(std::move(lj));
  }
  j.Set("loops", std::move(loops));
  // Logical activation stamps (absent in pre-refactor records; restore
  // defaults them deterministically).
  JsonValue asince = JsonValue::MakeArray();
  std::vector<std::pair<NodeId, int64_t>> stamp_entries(
      instance.activated_since().begin(), instance.activated_since().end());
  std::sort(stamp_entries.begin(), stamp_entries.end());
  for (const auto& [node, seq] : stamp_entries) {
    JsonValue sj = JsonValue::MakeObject();
    sj.Set("n", JsonValue(node.value()));
    sj.Set("q", JsonValue(seq));
    asince.Append(std::move(sj));
  }
  j.Set("asince", std::move(asince));
  return j;
}

Status RestoreInstanceState(ProcessInstance& instance, const JsonValue& json,
                            TraceNotePool& notes) {
  if (!json.is_object()) return Status::Corruption("instance state malformed");
  ADEPT_ASSIGN_OR_RETURN(Marking marking, MarkingFromJson(json.Get("marking")));
  ADEPT_ASSIGN_OR_RETURN(ExecutionTrace trace,
                         TraceFromJson(json.Get("trace"), notes));
  ADEPT_ASSIGN_OR_RETURN(DataContext data,
                         DataContextFromJson(json.Get("data")));
  PersistentMap<NodeId, int> loops;
  for (const JsonValue& lj : json.Get("loops").as_array()) {
    loops.Set(NodeId(static_cast<uint32_t>(lj.Get("n").as_int())),
              static_cast<int>(lj.Get("c").as_int()));
  }
  PersistentMap<NodeId, int64_t> activated_since;
  if (json.Has("asince")) {
    for (const JsonValue& sj : json.Get("asince").as_array()) {
      activated_since.Set(NodeId(static_cast<uint32_t>(sj.Get("n").as_int())),
                          sj.Get("q").as_int());
    }
  }
  instance.RestoreState(std::move(marking), std::move(trace), std::move(data),
                        std::move(loops), json.Get("started").as_bool(),
                        std::move(activated_since));
  return Status::OK();
}

}  // namespace adept
