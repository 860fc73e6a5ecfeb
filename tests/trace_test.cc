// ExecutionTrace stores packed records with shared notes. These tests hold
// it to a reference model that stores every event as one struct with all
// fields inline and deep-copied payloads, the way traces were stored before
// packing: random traces of every event kind must read, reduce, print,
// serialize and remap alike. They also check that TraceFromJson refuses
// what a record cannot hold, and that a migration call, a WAL replay and a
// snapshot load each hand one note per outcome text to every instance.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "change/change_op.h"
#include "common/rng.h"
#include "core/adept.h"
#include "runtime/trace.h"
#include "storage/state_serialization.h"
#include "tests/test_fixtures.h"

namespace adept {
namespace {

static_assert(sizeof(TraceRecord) == 16, "a trace record is 16 bytes");

// The reference: one struct per event, every field inline.
struct OldEvent {
  int64_t sequence = 0;
  TraceEventKind kind = TraceEventKind::kInstanceStarted;
  NodeId node{};
  DataId data{};
  int branch_value = 0;
  int iteration = 0;
  std::vector<NodeId> reset_nodes;
  std::string detail;
};

struct OldTrace {
  std::vector<OldEvent> events;

  void Append(OldEvent event) {
    event.sequence = static_cast<int64_t>(events.size());
    events.push_back(std::move(event));
  }

  std::vector<OldEvent> Reduced() const {
    std::unordered_map<NodeId, int64_t> erased_until;
    for (auto it = events.rbegin(); it != events.rend(); ++it) {
      if (it->kind != TraceEventKind::kLoopReset) continue;
      for (NodeId n : it->reset_nodes) {
        auto ins = erased_until.emplace(n, it->sequence);
        if (!ins.second && ins.first->second < it->sequence) {
          ins.first->second = it->sequence;
        }
      }
    }
    std::vector<OldEvent> out;
    for (const OldEvent& e : events) {
      if (e.node.valid()) {
        auto it = erased_until.find(e.node);
        if (it != erased_until.end() && e.sequence < it->second) continue;
      }
      out.push_back(e);
    }
    return out;
  }

  // The last event of `node` with one of `kinds`, stopping at a reset that
  // names the node.
  const OldEvent* Last(NodeId node, std::set<TraceEventKind> kinds) const {
    for (auto it = events.rbegin(); it != events.rend(); ++it) {
      if (it->kind == TraceEventKind::kLoopReset) {
        for (NodeId n : it->reset_nodes) {
          if (n == node) return nullptr;
        }
      }
      if (it->node == node && kinds.count(it->kind) > 0) return &*it;
    }
    return nullptr;
  }
  int64_t LastSeq(NodeId node, std::set<TraceEventKind> kinds) const {
    const OldEvent* e = Last(node, std::move(kinds));
    return e == nullptr ? -1 : e->sequence;
  }
  std::optional<int> LastBranchChosen(NodeId split) const {
    const OldEvent* e = Last(split, {TraceEventKind::kBranchChosen});
    if (e == nullptr) return std::nullopt;
    return e->branch_value;
  }

  std::string DebugString() const {
    std::ostringstream os;
    for (const OldEvent& e : events) {
      os << e.sequence << " " << TraceEventKindToString(e.kind);
      if (e.node.valid()) os << " node=" << e.node;
      if (e.data.valid()) os << " data=" << e.data;
      if (e.kind == TraceEventKind::kBranchChosen) {
        os << " branch=" << e.branch_value;
      }
      if (e.kind == TraceEventKind::kLoopReset) {
        os << " iteration=" << e.iteration;
      }
      if (!e.detail.empty()) os << " (" << e.detail << ")";
      os << "\n";
    }
    return os.str();
  }

  std::string ToJson() const {
    JsonValue array = JsonValue::MakeArray();
    for (const OldEvent& ev : events) {
      JsonValue e = JsonValue::MakeObject();
      e.Set("q", JsonValue(ev.sequence));
      e.Set("k", JsonValue(static_cast<int>(ev.kind)));
      if (ev.node.valid()) e.Set("n", JsonValue(ev.node.value()));
      if (ev.data.valid()) e.Set("d", JsonValue(ev.data.value()));
      if (ev.branch_value != 0) e.Set("b", JsonValue(ev.branch_value));
      if (ev.iteration != 0) e.Set("i", JsonValue(ev.iteration));
      if (!ev.reset_nodes.empty()) {
        JsonValue rn = JsonValue::MakeArray();
        for (NodeId n : ev.reset_nodes) rn.Append(JsonValue(n.value()));
        e.Set("r", std::move(rn));
      }
      if (!ev.detail.empty()) e.Set("t", JsonValue(ev.detail));
      array.Append(std::move(e));
    }
    JsonValue j = JsonValue::MakeObject();
    j.Set("events", std::move(array));
    return j.Dump();
  }

  OldTrace Remapped(const std::unordered_map<NodeId, NodeId>& nodes,
                    const std::unordered_map<DataId, DataId>& data) const {
    auto map_node = [&](NodeId id) {
      auto it = nodes.find(id);
      return it == nodes.end() ? id : it->second;
    };
    OldTrace out = *this;
    for (OldEvent& e : out.events) {
      if (e.node.valid()) e.node = map_node(e.node);
      if (e.data.valid() && data.count(e.data) > 0) e.data = data.at(e.data);
      for (NodeId& n : e.reset_nodes) n = map_node(n);
    }
    return out;
  }
};

void ExpectSameEvent(const TraceEvent& got, const OldEvent& want) {
  EXPECT_EQ(got.sequence, want.sequence);
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.node, want.node);
  EXPECT_EQ(got.data, want.data);
  EXPECT_EQ(got.branch_value, want.branch_value);
  EXPECT_EQ(got.iteration, want.iteration);
  EXPECT_EQ(got.reset_nodes(), want.reset_nodes);
  EXPECT_EQ(got.detail(), want.detail);
}

constexpr uint32_t kNodes = 8;

NodeId RandomNode(Rng& rng) {
  if (rng.NextBool(0.15)) return NodeId();
  return NodeId(static_cast<uint32_t>(rng.NextBelow(kNodes)));
}

// Appends `count` random events of every kind to both traces. The value
// fields sit on the kinds that record them, as the engine writes them;
// details and reset regions sit on any kind, some from a shared pool.
void AppendRandom(Rng& rng, int count, TraceNotePool& pool,
                  ExecutionTrace& trace, OldTrace& old) {
  static const char* kTexts[] = {"disk full", "to version 2",
                                 "to version 3 (bias kept)",
                                 "serialInsert('x', n1 -> n2)", "both"};
  for (int i = 0; i < count; ++i) {
    OldEvent e;
    e.kind = static_cast<TraceEventKind>(
        rng.NextBelow(static_cast<uint64_t>(TraceEventKind::kMigrated) + 1));
    e.node = RandomNode(rng);
    switch (e.kind) {
      case TraceEventKind::kDataWrite:
        e.data = DataId(static_cast<uint32_t>(rng.NextBelow(5)));
        break;
      case TraceEventKind::kBranchChosen:
        e.branch_value = static_cast<int>(rng.NextInRange(-2, 3));
        break;
      case TraceEventKind::kLoopReset:
        e.iteration = static_cast<int>(rng.NextInRange(0, 4));
        for (uint64_t n = rng.NextBelow(5); n > 0; --n) {
          e.reset_nodes.push_back(
              NodeId(static_cast<uint32_t>(rng.NextBelow(kNodes))));
        }
        break;
      default:
        if (rng.NextBool(0.05)) e.reset_nodes.push_back(RandomNode(rng));
        break;
    }
    const bool pooled = rng.NextBool(0.5);
    if (rng.NextBool(0.3)) e.detail = kTexts[rng.NextIndex(5)];
    TraceEvent event{.kind = e.kind,
                     .node = e.node,
                     .data = e.data,
                     .branch_value = e.branch_value,
                     .iteration = e.iteration};
    event.payload = pooled && e.reset_nodes.empty()
                        ? pool.Detail(e.detail)
                        : TracePayload(e.reset_nodes, e.detail);
    EXPECT_EQ(trace.Append(std::move(event)),
              static_cast<int64_t>(old.events.size()));
    old.Append(std::move(e));
  }
}

void ExpectSameTrace(const ExecutionTrace& trace, const OldTrace& old) {
  ASSERT_EQ(trace.events().size(), old.events.size());
  ASSERT_EQ(trace.next_sequence(), static_cast<int64_t>(old.events.size()));
  size_t i = 0;
  for (const TraceEvent& e : trace.events()) {
    ExpectSameEvent(e, old.events[i++]);
  }
  for (size_t k = old.events.size(); k-- > 0;) {
    ExpectSameEvent(trace.events()[k], old.events[k]);
  }

  std::vector<TraceEvent> reduced = trace.Reduced();
  std::vector<OldEvent> old_reduced = old.Reduced();
  ASSERT_EQ(reduced.size(), old_reduced.size());
  for (size_t k = 0; k < reduced.size(); ++k) {
    ExpectSameEvent(reduced[k], old_reduced[k]);
  }

  for (uint32_t n = 0; n <= kNodes; ++n) {
    const NodeId node(n);
    EXPECT_EQ(trace.LastStartSeq(node),
              old.LastSeq(node, {TraceEventKind::kActivityStarted}));
    EXPECT_EQ(trace.LastCompletionSeq(node),
              old.LastSeq(node, {TraceEventKind::kActivityCompleted}));
    EXPECT_EQ(trace.LastResolutionSeq(node),
              old.LastSeq(node, {TraceEventKind::kActivityCompleted,
                                 TraceEventKind::kActivitySkipped}));
    EXPECT_EQ(trace.LastBranchChosen(node), old.LastBranchChosen(node));
  }
  EXPECT_EQ(trace.DebugString(), old.DebugString());
  EXPECT_EQ(TraceToJson(trace).Dump(), old.ToJson());
}

TEST(TraceDifferentialTest, PackedTraceMatchesInlineEvents) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    TraceNotePool pool;
    ExecutionTrace trace;
    OldTrace old;
    AppendRandom(rng, static_cast<int>(rng.NextBelow(200)), pool, trace, old);
    ExpectSameTrace(trace, old);

    // A copy shares the notes and appends on its own.
    ExecutionTrace copy = trace;
    OldTrace old_copy = old;
    AppendRandom(rng, 20, pool, copy, old_copy);
    ExpectSameTrace(copy, old_copy);
    ExpectSameTrace(trace, old);

    // Through the JSON text, with a pool of its own and the shared one.
    const std::string text = TraceToJson(trace).Dump();
    auto parsed = JsonValue::Parse(text);
    ASSERT_TRUE(parsed.ok());
    auto own_pool = TraceFromJson(*parsed);
    auto shared_pool = TraceFromJson(*parsed, pool);
    for (const auto* restored : {&own_pool, &shared_pool}) {
      ASSERT_TRUE(restored->ok()) << restored->status();
      ExpectSameTrace(**restored, old);
    }

    // A bias-cancelling remap: some nodes and data elements move.
    std::unordered_map<NodeId, NodeId> nodes;
    std::unordered_map<DataId, DataId> data;
    for (uint32_t n = 0; n < kNodes; ++n) {
      if (rng.NextBool(0.4)) nodes.emplace(NodeId(n), NodeId(100 + n));
    }
    for (uint32_t d = 0; d < 5; ++d) {
      if (rng.NextBool(0.4)) data.emplace(DataId(d), DataId(50 + d));
    }
    ExecutionTrace remapped = trace.Remapped(nodes, data);
    OldTrace old_remapped = old.Remapped(nodes, data);
    EXPECT_EQ(TraceToJson(remapped).Dump(), old_remapped.ToJson());
    EXPECT_EQ(remapped.DebugString(), old_remapped.DebugString());
    EXPECT_EQ(TraceToJson(trace).Dump(), text);  // the source is untouched
  }
}

// Copies share notes: an event read twice, a reduced trace and a copied
// trace all point at the note the trace holds.
TEST(TraceDifferentialTest, CopiesShareNotes) {
  ExecutionTrace trace;
  trace.Append({.kind = TraceEventKind::kInstanceStarted});
  trace.Append({.kind = TraceEventKind::kLoopReset,
                .node = NodeId(1),
                .iteration = 1,
                .payload = {{NodeId(1), NodeId(2)}, {}}});
  trace.Append(
      {.kind = TraceEventKind::kMigrated, .payload = {{}, "to version 2"}});
  const std::string* detail = &trace.events()[2].detail();
  const std::vector<NodeId>* reset = &trace.events()[1].reset_nodes();
  EXPECT_EQ(&trace.events()[2].detail(), detail);
  EXPECT_EQ(&trace.Reduced().back().detail(), detail);
  ExecutionTrace copy = trace;
  EXPECT_EQ(&copy.events()[2].detail(), detail);
  EXPECT_EQ(&copy.events()[1].reset_nodes(), reset);
  // A remap that leaves the region alone shares it as well.
  EXPECT_EQ(&trace.Remapped({}, {}).events()[1].reset_nodes(), reset);
  EXPECT_EQ(trace.events()[0].payload.MemoryFootprint(), 0u);
}

Status LoadTrace(const std::string& text) {
  auto parsed = JsonValue::Parse(text);
  if (!parsed.ok()) return parsed.status();
  return TraceFromJson(*parsed).status();
}

// What a record cannot hold is refused, not dropped.
TEST(TraceDifferentialTest, LoadRefusesWhatRecordsCannotHold) {
  ASSERT_TRUE(LoadTrace(R"({"events":[{"k":0,"q":0},{"d":2,"k":7,"q":1},)"
                        R"({"b":-1,"k":8,"q":2},{"i":3,"k":6,"q":3}]})")
                  .ok());
  for (const char* text : {
           // "q" is not the event's index
           R"({"events":[{"k":0,"q":0},{"k":1,"q":2}]})",
           R"({"events":[{"k":0,"q":1}]})",
           R"({"events":[{"k":0}]})",
           // unknown "k"
           R"({"events":[{"k":11,"q":0}]})",
           R"({"events":[{"k":-1,"q":0}]})",
           R"({"events":[{"k":1e300,"q":0}]})",
           // a value on a kind that does not record it
           R"({"events":[{"d":1,"k":1,"n":3,"q":0}]})",
           R"({"events":[{"b":2,"k":7,"q":0}]})",
           R"({"events":[{"i":1,"k":8,"q":0}]})",
       }) {
    SCOPED_TRACE(text);
    EXPECT_EQ(LoadTrace(text).code(), StatusCode::kCorruption);
  }
}

class TempDir {
 public:
  TempDir()
      : path_(std::filesystem::temp_directory_path() /
              ("adept_trace_test_" + std::to_string(::getpid()))) {
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string File(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

Delta InsertAfter(const ProcessSchema& schema, const std::string& name,
                  const std::string& pred, const std::string& succ) {
  Delta delta;
  NewActivitySpec spec;
  spec.name = name;
  delta.Add(std::make_unique<SerialInsertOp>(
      spec, schema.FindNodeByName(pred), schema.FindNodeByName(succ)));
  return delta;
}

// For each kMigrated detail text, the addresses of the notes that hold it
// across `ids`.
std::map<std::string, std::set<const std::string*>> MigratedNotes(
    const AdeptSystem& adept, const std::vector<InstanceId>& ids) {
  std::map<std::string, std::set<const std::string*>> notes;
  for (InstanceId id : ids) {
    const ProcessInstance* instance = adept.engine().Find(id);
    EXPECT_NE(instance, nullptr);
    if (instance == nullptr) continue;
    for (const TraceEvent& e : instance->trace().events()) {
      if (e.kind == TraceEventKind::kMigrated) {
        notes[e.detail()].insert(&e.detail());
      }
    }
  }
  return notes;
}

// One migration call hands one note per outcome text to every instance it
// migrates; WAL replay runs that call again, and one snapshot load shares
// equal texts across the instances it loads.
TEST(TraceNoteSharingTest, OneNotePerOutcomeAcrossInstances) {
  TempDir dir;
  AdeptOptions options;
  options.wal_path = dir.File("adept.wal");
  options.snapshot_path = dir.File("adept.snapshot");
  std::vector<InstanceId> ids;
  std::map<std::string, std::set<const std::string*>> live;
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    AdeptSystem& adept = **system;
    auto v1 = testing_fixtures::OnlineOrderV1();
    auto v1_id = adept.DeployProcessType(v1);
    ASSERT_TRUE(v1_id.ok());
    for (int i = 0; i < 200; ++i) {
      auto id = adept.CreateInstance("online_order");
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
      if (i % 3 == 1) {  // disjoint from the type change: bias kept
        ASSERT_TRUE(adept
                        .ApplyAdHocChange(*id, InsertAfter(*v1, "gift wrap",
                                                           "pack goods",
                                                           "deliver goods"))
                        .ok());
      } else if (i % 3 == 2) {  // equal to the type change: bias cancelled
        ASSERT_TRUE(adept
                        .ApplyAdHocChange(*id, InsertAfter(*v1, "audit",
                                                           "get order",
                                                           "collect data"))
                        .ok());
      }
    }
    ASSERT_TRUE(adept
                    .EvolveProcessType(*v1_id, InsertAfter(*v1, "audit",
                                                           "get order",
                                                           "collect data"))
                    .ok());
    auto report = adept.MigrateToLatest("online_order");
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_GT(report->Count(MigrationOutcome::kMigrated), 0u);
    EXPECT_GT(report->Count(MigrationOutcome::kMigratedBiased), 0u);
    EXPECT_GT(report->Count(MigrationOutcome::kBiasCancelled), 0u);
    EXPECT_EQ(report->MigratedTotal(), ids.size());
    live = MigratedNotes(adept, ids);
  }
  ASSERT_EQ(live.size(), 3u);
  for (const auto& [text, notes] : live) EXPECT_EQ(notes.size(), 1u) << text;

  {
    // WAL replay runs the one migration call again.
    auto replayed = AdeptSystem::Recover(options);
    ASSERT_TRUE(replayed.ok()) << replayed.status();
    auto notes = MigratedNotes(**replayed, ids);
    ASSERT_EQ(notes.size(), 3u);
    for (const auto& [text, held] : notes) EXPECT_EQ(held.size(), 1u) << text;
    ASSERT_TRUE((*replayed)->SaveSnapshot().ok());
  }
  // The snapshot load shares each text across the instances it loads.
  auto loaded = AdeptSystem::Recover(options);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto notes = MigratedNotes(**loaded, ids);
  ASSERT_EQ(notes.size(), 3u);
  for (const auto& [text, held] : notes) EXPECT_EQ(held.size(), 1u) << text;
}

}  // namespace
}  // namespace adept
