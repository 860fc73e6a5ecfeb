// bench_e2e: the end-to-end benchmark. One workload per process drives a
// replicated cluster through ClusterClient and reports what its users see.
//
// Fixed topology (README.md): a FailoverCoordinator over 2 shards and 2
// standby ReplicationReplica nodes, commit quorum 2, SyncMode::kFlush on
// primary and standbys, heartbeat 50 ms, dead after 500 ms, auto-promote
// on. The load comes from at most 4 client threads; the main thread only
// samples status surfaces (and, in `worklist`, checkpoints).
//
// Workloads (README.md records why each exists):
//   worklist  open loop of worklist tasks on 2,000 live treatment cases
//   adhoc     closed loop of ad-hoc changes on 400-activity instances
//   evolve    schema evolution + migration of 20,000 online orders
//   monitor   dashboard reads over 4,000 treatment cases, paced writer
//
// Run shape: the topology is set up 3 times (setup_s is the median; a
// traced run sets up once), and the last set-up serves a 2 s unmeasured
// warmup and then the measured window (--seconds; `evolve` instead runs 4
// rounds per second of --seconds, so both commits of a comparison do
// identical work). After the window the standbys drain, the topology
// stops, and one standby's file set is recovered and checked against the
// client's ledger of acked creates and completions.
//
// --trace 1 records a span around every call the benchmark makes into a
// layer and prints the per-layer metrics instead of the end-to-end ones.
// Every run also prints the p99 tails, which are not gated. The last
// stdout line is always the JSON result object.
//
//   bench_e2e --workload adhoc --data-dir DIR [--seed 1] [--seconds 10]
//             [--trace 0|1] [--trace-out spans.csv]

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/adept_cluster.h"
#include "cluster/cluster_client.h"
#include "cluster/failover_coordinator.h"
#include "common/string_util.h"
#include "e2e_util.h"
#include "verify/analysis.h"
#include "worklist/worklist_service.h"

namespace adept {
namespace e2e {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using BatchOp = AdeptCluster::BatchOp;

constexpr int kShards = 2;
constexpr int kStandbys = 2;
constexpr int kQuorum = 2;
// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
constexpr double kWarmupSeconds = 2.0;
constexpr int kSampleIntervalMs = 100;
constexpr size_t kSetupBatch = 512;
// A run that has not ended its window by then is reported incorrect.
constexpr double kRunDeadlineSeconds = 150.0;

double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// --- Samples -----------------------------------------------------------------

class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t count() const { return values_.size(); }
  double Sum() const {
    double sum = 0;
    for (double v : values_) sum += v;
    return sum;
  }
  double Mean() const {
    return values_.empty() ? 0 : Sum() / static_cast<double>(values_.size());
  }
  // Nearest-rank percentile, `q` in (0, 1]; 0 without samples.
  double Percentile(double q) {
    if (values_.empty()) return 0;
    const auto rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values_.size())));
    const size_t index =
        std::min(values_.size(), std::max<size_t>(rank, 1)) - 1;
    std::nth_element(values_.begin(),
                     values_.begin() + static_cast<std::ptrdiff_t>(index),
                     values_.end());
    return values_[index];
  }

 private:
  std::vector<double> values_;
};

// --- Spans and per-thread recording ------------------------------------------

// Every public call the benchmark makes into a layer, named by src/ module.
enum class Layer : uint8_t {
  kOp,             // one unit of client work; parent of the spans below
  kSubmit,         // ClusterClient::Submit
  kSnapshotOf,     // AdeptCluster::SnapshotOf
  kOffersFor,      // WorklistService::OffersFor
  kClaim,          // WorklistService::Claim
  kQuery,          // ClusterClient::Query
  kEvolve,         // AdeptCluster::EvolveProcessType
  kMigrate,        // AdeptCluster::MigrateToLatest
  kCheckpoint,     // AdeptCluster::SaveSnapshot
  kApplyRaw,       // shadow Delta::ApplyRaw (no system state touched)
  kApplyVerified,  // shadow Delta::ApplyVerified
  kCount,
};
constexpr size_t kLayers = static_cast<size_t>(Layer::kCount);
constexpr std::array<const char*, kLayers> kLayerNames = {
    "op",           "cluster.submit",   "runtime.snapshot_of",
    "worklist.offers_for", "worklist.claim", "query.query",
    "cluster.evolve",      "cluster.migrate", "storage.checkpoint",
    "change.apply_raw",    "change.apply_verified"};

struct Span {
  uint64_t op = 0;
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
  Layer layer = Layer::kOp;
};

enum Phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };

// One client thread's measurements. Latency samples count only for ops
// that start inside the measured window; attempted/failed and the ledger
// count every op after set-up.
struct Recorder {
  Recorder(const std::atomic<int>* phase, bool tracing, bool keep_spans,
           Clock::time_point epoch)
      : phase(phase), tracing(tracing), keep_spans(keep_spans), epoch(epoch) {}

  // Starts one unit of work.
  void BeginOp() {
    measuring = phase->load(std::memory_order_acquire) == kMeasure;
    ++op;
    op_start = Clock::now();
  }
  // Ends it: the op span, and one unit toward ops_per_s.
  void EndOp(Clock::time_point end) {
    if (!measuring) return;
    ++units;
    AddSpan(Layer::kOp, op_start, end);
  }

  void AddSpan(Layer layer, Clock::time_point start, Clock::time_point end) {
    if (!tracing || !measuring) return;
    layer_us[static_cast<size_t>(layer)].Add(MicrosBetween(start, end));
    if (keep_spans) {
      spans.push_back({op,
                       std::chrono::duration_cast<std::chrono::nanoseconds>(
                           start - epoch)
                           .count(),
                       std::chrono::duration_cast<std::chrono::nanoseconds>(
                           end - start)
                           .count(),
                       layer});
    }
  }

  void Outcome(const Status& status, const char* what) {
    ++attempted;
    if (status.ok()) return;
    ++failed;
    if (failed <= 5) {
      std::fprintf(stderr, "bench_e2e: %s failed: %s\n", what,
                   status.ToString().c_str());
    }
  }

  void Merge(const Recorder& o) {
    op_ms.Merge(o.op_ms);
    write_ms.Merge(o.write_ms);
    read_us.Merge(o.read_us);
    for (size_t i = 0; i < kLayers; ++i) layer_us[i].Merge(o.layer_us[i]);
    units += o.units;
    measured_calls += o.measured_calls;
    writes += o.writes;
    attempted += o.attempted;
    failed += o.failed;
    claims += o.claims;
    claim_conflicts += o.claim_conflicts;
    offers_polls += o.offers_polls;
    offers_returned += o.offers_returned;
    queries += o.queries;
    query_hits += o.query_hits;
    query_evaluated += o.query_evaluated;
    query_probes += o.query_probes;
    query_scans += o.query_scans;
    shadow_calls += o.shadow_calls;
    blocks_reused += o.blocks_reused;
    blocks_total += o.blocks_total;
    rounds += o.rounds;
    examined += o.examined;
    migrated += o.migrated;
    migrate_rate.Merge(o.migrate_rate);
    paced += o.paced;
    paced_late += o.paced_late;
    created.insert(created.end(), o.created.begin(), o.created.end());
    create_attempts += o.create_attempts;
    for (const auto& [id, n] : o.completed) completed[id] += n;
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
  }

  const std::atomic<int>* phase;
  const bool tracing;
  const bool keep_spans;
  const Clock::time_point epoch;
  bool measuring = false;
  uint64_t op = 0;
  Clock::time_point op_start;

  // End to end (measured ops only).
  Samples op_ms, write_ms, read_us;
  uint64_t units = 0;
  uint64_t measured_calls = 0;  // every call into the system in the window
  uint64_t writes = 0;          // submitted writes in the window
  uint64_t attempted = 0, failed = 0;

  // Per layer (measured ops only).
  std::array<Samples, kLayers> layer_us;
  uint64_t claims = 0, claim_conflicts = 0;
  uint64_t offers_polls = 0, offers_returned = 0;
  uint64_t queries = 0, query_hits = 0, query_evaluated = 0;
  uint64_t query_probes = 0, query_scans = 0;
  uint64_t shadow_calls = 0, blocks_reused = 0, blocks_total = 0;
  uint64_t rounds = 0, examined = 0, migrated = 0;
  Samples migrate_rate;  // instances examined per second, one per round
  uint64_t paced = 0, paced_late = 0;
  std::vector<Span> spans;

  // Ledger of acked writes, checked against the recovered standby.
  std::vector<uint64_t> created;
  uint64_t create_attempts = 0;
  std::unordered_map<uint64_t, uint32_t> completed;
};

// --- Topology ----------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string data_dir;
  std::string trace_out;
};

struct Context {
  Options options;
  std::string dir;
  std::unique_ptr<FailoverCoordinator> coordinator;
  std::unique_ptr<ClusterClient> client;
  // The founding primary; the benchmark injects no fault, so it serves the
  // whole run (a promotion fails the run's check).
  std::shared_ptr<AdeptCluster> cluster;
  std::atomic<int> phase{kWarmup};
  Clock::time_point window_start, window_end;

  std::string PrimaryWal() const {
    return (fs::path(dir) / "primary.wal").string();
  }
  std::string NodeWal(int node) const {
    return (fs::path(dir) / "nodes" / ("node" + std::to_string(node) + ".wal"))
        .string();
  }
  std::string NodeSnapshot(int node) const {
    return (fs::path(dir) / "nodes" /
            ("node" + std::to_string(node) + ".snapshot"))
        .string();
  }
};

ClusterOptions ClusterOptionsFor(const std::string& wal,
                                 const std::string& snapshot, uint64_t seed) {
  ClusterOptions options;
  options.shards = kShards;
  options.sync = SyncMode::kFlush;
  options.wal_path = wal;
  options.snapshot_path = snapshot;
  options.driver.seed = seed;
  return options;
}

Status StartTopology(Context& ctx) {
  std::error_code ec;
  fs::remove_all(ctx.dir, ec);
  fs::create_directories(ctx.dir, ec);
  if (ec) return Status::Internal("cannot create " + ctx.dir);
  FailoverOptions options;
  options.cluster =
      ClusterOptionsFor(ctx.PrimaryWal(),
                        (fs::path(ctx.dir) / "primary.snapshot").string(),
                        ctx.options.seed);
  options.replicas = kStandbys;
  options.quorum = kQuorum;
  options.data_dir = (fs::path(ctx.dir) / "nodes").string();
  options.replica_sync = SyncMode::kFlush;
  options.repl.heartbeat_interval_ms = 50;
  options.repl.suspect_after_ms = 200;
  options.repl.dead_after_ms = 500;
  options.repl.retry_ms = 20;
  options.poll_interval_ms = 50;
  options.auto_promote = true;
  ADEPT_ASSIGN_OR_RETURN(ctx.coordinator, FailoverCoordinator::Start(options));
  RetryPolicy policy;
  policy.jitter_seed = ctx.options.seed;
  ctx.client = std::make_unique<ClusterClient>(ctx.coordinator.get(), policy);
  ctx.cluster = ctx.coordinator->View().cluster;
  if (ctx.cluster == nullptr) return Status::Internal("no primary view");
  return Status::OK();
}

void StopTopology(Context& ctx) {
  if (ctx.coordinator != nullptr) ctx.coordinator->Stop();
  ctx.client.reset();
  ctx.cluster.reset();
  ctx.coordinator.reset();
}

// Records an acked write in the ledger.
void Ledger(Recorder& rec, const BatchOp& op,
            const ClusterClient::OpOutcome& outcome) {
  if (op.kind == BatchOp::Kind::kCreate) ++rec.create_attempts;
  if (!outcome.status.ok()) return;
  if (op.kind == BatchOp::Kind::kCreate) {
    rec.created.push_back(outcome.id.value());
  } else if (op.kind == BatchOp::Kind::kComplete ||
             (op.kind == BatchOp::Kind::kDriveStep && outcome.progressed)) {
    ++rec.completed[op.id.value()];
  }
}

// One timed write through the client (a cluster.submit span); `as_write`
// adds it to the workload's write latency.
ClusterClient::OpOutcome Submit(Context& ctx, Recorder& rec,
                                const BatchOp& op, const char* what,
                                bool as_write = true) {
  const Clock::time_point start = Clock::now();
  std::vector<ClusterClient::OpOutcome> outcomes = ctx.client->Submit({op});
  const Clock::time_point end = Clock::now();
  rec.AddSpan(Layer::kSubmit, start, end);
  rec.Outcome(outcomes[0].status, what);
  Ledger(rec, op, outcomes[0]);
  if (rec.measuring) {
    ++rec.measured_calls;
    ++rec.writes;
    if (as_write) rec.write_ms.Add(MicrosBetween(start, end) / 1000.0);
  }
  return outcomes[0];
}

// One timed SnapshotOf (a runtime.snapshot_of span); `as_read` adds it to
// the workload's read latency.
std::shared_ptr<const InstanceSnapshot> ReadSnapshot(Context& ctx,
                                                     Recorder& rec,
                                                     InstanceId id,
                                                     bool as_read) {
  const Clock::time_point start = Clock::now();
  std::shared_ptr<const InstanceSnapshot> snapshot =
      ctx.cluster->SnapshotOf(id);
  const Clock::time_point end = Clock::now();
  rec.AddSpan(Layer::kSnapshotOf, start, end);
  rec.Outcome(snapshot != nullptr && snapshot->id == id
                  ? Status::OK()
                  : Status::NotFound("no snapshot of a live instance"),
              "SnapshotOf");
  if (rec.measuring) {
    ++rec.measured_calls;
    if (as_read) rec.read_us.Add(MicrosBetween(start, end));
  }
  return snapshot;
}

// One timed OffersFor poll (a worklist.offers_for span), a read.
std::vector<WorkItem> PollOffers(Context& ctx, Recorder& rec, UserId user) {
  const Clock::time_point start = Clock::now();
  std::vector<WorkItem> offers = ctx.cluster->Worklist().OffersFor(user);
  const Clock::time_point end = Clock::now();
  rec.AddSpan(Layer::kOffersFor, start, end);
  rec.Outcome(Status::OK(), "OffersFor");
  if (rec.measuring) {
    ++rec.measured_calls;
    ++rec.offers_polls;
    rec.offers_returned += offers.size();
    rec.read_us.Add(MicrosBetween(start, end));
  }
  return offers;
}

// Set-up writes in batches; any non-ok outcome aborts the set-up.
Result<std::vector<ClusterClient::OpOutcome>> SubmitAll(
    Context& ctx, Recorder& ledger, const std::vector<BatchOp>& ops) {
  std::vector<ClusterClient::OpOutcome> all;
  all.reserve(ops.size());
  for (size_t begin = 0; begin < ops.size(); begin += kSetupBatch) {
    const size_t end = std::min(ops.size(), begin + kSetupBatch);
    std::vector<BatchOp> batch(ops.begin() + static_cast<std::ptrdiff_t>(begin),
                               ops.begin() + static_cast<std::ptrdiff_t>(end));
    std::vector<ClusterClient::OpOutcome> outcomes = ctx.client->Submit(batch);
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!outcomes[i].status.ok()) return outcomes[i].status;
      Ledger(ledger, batch[i], outcomes[i]);
      all.push_back(std::move(outcomes[i]));
    }
  }
  return all;
}

Result<std::vector<InstanceId>> CreateAll(Context& ctx, Recorder& ledger,
                                          const std::string& type, int n) {
  std::vector<BatchOp> ops(static_cast<size_t>(n), BatchOp::Create(type));
  ADEPT_ASSIGN_OR_RETURN(std::vector<ClusterClient::OpOutcome> outcomes,
                         SubmitAll(ctx, ledger, ops));
  std::vector<InstanceId> ids;
  ids.reserve(outcomes.size());
  for (const auto& outcome : outcomes) ids.push_back(outcome.id);
  return ids;
}

// Drives instance i forward by steps[i] DriveSteps, in batched rounds.
Status DriveAll(Context& ctx, Recorder& ledger,
                const std::vector<InstanceId>& ids,
                const std::vector<int>& steps) {
  const int rounds = steps.empty() ? 0 : *std::max_element(steps.begin(),
                                                           steps.end());
  for (int round = 0; round < rounds; ++round) {
    std::vector<BatchOp> ops;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (steps[i] > round) ops.push_back(BatchOp::DriveStep(ids[i]));
    }
    ADEPT_RETURN_IF_ERROR(SubmitAll(ctx, ledger, ops).status());
  }
  return Status::OK();
}

// Users of the treatment workloads: 8 clinicians, each holding both the
// nurse and the physician role. With users split by role, a fixed task mix
// drains one role's worklist while the other's grows (a case needs more
// physician than nurse steps), so the offer lists would never settle. The
// org model must be complete before concurrent traffic starts.
Result<std::vector<UserId>> AddStaff(AdeptCluster& cluster,
                                     TreatmentRoles* roles) {
  OrgModel& org = cluster.org();
  ADEPT_ASSIGN_OR_RETURN(roles->nurse, org.AddRole("nurse"));
  ADEPT_ASSIGN_OR_RETURN(roles->physician, org.AddRole("physician"));
  std::vector<UserId> users;
  for (int i = 0; i < 8; ++i) {
    ADEPT_ASSIGN_OR_RETURN(UserId user,
                           org.AddUser(StrFormat("clinician %d", i)));
    ADEPT_RETURN_IF_ERROR(org.AssignRole(user, roles->nurse));
    ADEPT_RETURN_IF_ERROR(org.AssignRole(user, roles->physician));
    users.push_back(user);
  }
  return users;
}

// Sleeps until `due` unless the run is stopping; returns false when it is.
bool SleepUntil(const Context& ctx, Clock::time_point due) {
  while (ctx.phase.load(std::memory_order_acquire) != kStop) {
    const Clock::time_point now = Clock::now();
    if (now >= due) return true;
    std::this_thread::sleep_for(
        std::min<Clock::duration>(due - now, std::chrono::milliseconds(20)));
  }
  return false;
}

// --- Workloads ---------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  // Loads the population through the client; `ledger` keeps acked writes.
  virtual Status Populate(Context& ctx, Recorder& ledger) = 0;
  virtual int clients() const = 0;
  virtual void RunClient(Context& ctx, int index, Recorder& rec) = 0;
  // Main thread, every sampling tick of the run (warmup included).
  virtual void Tick(Context& /*ctx*/, Recorder& /*rec*/) {}
  // True when the workload ends the measured window itself.
  virtual bool OwnsWindow() const { return false; }
  virtual double OpsPerSecond(Recorder& merged, double window_s) const {
    return static_cast<double>(merged.units) / window_s;
  }
};

// worklist: an open loop of worklist tasks. Each task is due at a seeded
// Poisson arrival time; a user polls OffersFor, claims one offer (a lost
// race is a conflict, not a failure), starts it and completes it with the
// activity's outputs. A discharged case is replaced by a Create, so 2,000
// cases stay live. op = one task, timed from its due time.
class WorklistWorkload : public Workload {
 public:
  // About half the closed-loop task capacity of 3 senders on the 4-core
  // reference box; fixed, never recalibrated per run.
  static constexpr double kTasksPerSecond = 360.0;
  static constexpr int kCases = 2000;
  static constexpr int kSenders = 3;
  static constexpr double kCheckpointSeconds = 5.0;

  Status Populate(Context& ctx, Recorder& ledger) override {
    TreatmentRoles roles;
    ADEPT_ASSIGN_OR_RETURN(users_, AddStaff(*ctx.cluster, &roles));
    ADEPT_RETURN_IF_ERROR(
        ctx.cluster->DeployProcessType(TreatmentSchema(roles)).status());
    ADEPT_ASSIGN_OR_RETURN(std::vector<InstanceId> ids,
                           CreateAll(ctx, ledger, "treatment", kCases));
    // Cases start spread over admit .. treatment.
    Rng rng(ctx.options.seed * 7919 + 1);
    std::vector<int> steps(ids.size());
    for (int& s : steps) s = static_cast<int>(rng.NextBelow(6));
    return DriveAll(ctx, ledger, ids, steps);
  }

  int clients() const override { return kSenders; }

  void RunClient(Context& ctx, int index, Recorder& rec) override {
    Rng rng(ctx.options.seed * 1000003 + static_cast<uint64_t>(index));
    const double rate = kTasksPerSecond / kSenders;
    Clock::time_point due = Clock::now();
    while (true) {
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(-std::log(1.0 - rng.NextDouble()) /
                                        rate));
      if (!SleepUntil(ctx, due)) return;
      rec.BeginOp();
      if (rec.measuring) {
        ++rec.paced;
        if (MicrosBetween(due, rec.op_start) > 1000) ++rec.paced_late;
      }
      if (!RunTask(ctx, rec, rng)) continue;
      const Clock::time_point done = Clock::now();
      rec.EndOp(done);
      if (rec.measuring) rec.op_ms.Add(MicrosBetween(due, done) / 1000.0);
    }
  }

  void Tick(Context& ctx, Recorder& rec) override {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kCheckpointSeconds));
    if (ticks_++ == 0) next_checkpoint_ = Clock::now() + period;
    if (Clock::now() < next_checkpoint_) return;
    next_checkpoint_ += period;
    rec.BeginOp();
    const Clock::time_point start = Clock::now();
    rec.Outcome(ctx.cluster->SaveSnapshot(), "SaveSnapshot");
    rec.AddSpan(Layer::kCheckpoint, start, Clock::now());
  }

 private:
  // One task; false when no offer could be claimed (nothing completed).
  bool RunTask(Context& ctx, Recorder& rec, Rng& rng) {
    WorklistService& worklist = ctx.cluster->Worklist();
    const UserId user = users_[rng.NextIndex(users_.size())];
    for (int poll = 0; poll < 3; ++poll) {
      std::vector<WorkItem> offers = PollOffers(ctx, rec, user);
      for (int attempt = 0; attempt < 4 && !offers.empty(); ++attempt) {
        const size_t pick = rng.NextIndex(offers.size());
        const WorkItem item = offers[pick];
        offers.erase(offers.begin() + static_cast<std::ptrdiff_t>(pick));
        const Clock::time_point start = Clock::now();
        const Status claimed = worklist.Claim(item.id, user);
        const Clock::time_point end = Clock::now();
        rec.AddSpan(Layer::kClaim, start, end);
        if (rec.measuring) {
          ++rec.measured_calls;
          ++rec.claims;
        }
        // Another sender won the item first: a conflict, not a failure.
        if (claimed.code() == StatusCode::kFailedPrecondition ||
            claimed.code() == StatusCode::kNotFound) {
          ++rec.attempted;
          if (rec.measuring) ++rec.claim_conflicts;
          continue;
        }
        rec.Outcome(claimed, "Claim");
        if (!claimed.ok()) return false;
        return Work(ctx, rec, rng, item);
      }
    }
    return false;
  }

  bool Work(Context& ctx, Recorder& rec, Rng& rng, const WorkItem& item) {
    std::shared_ptr<const InstanceSnapshot> snapshot =
        ReadSnapshot(ctx, rec, item.instance, /*as_read=*/false);
    if (snapshot == nullptr) return false;
    std::vector<ProcessInstance::DataWrite> writes =
        TreatmentWrites(*snapshot, item.node, rng);
    if (!Submit(ctx, rec, BatchOp::Start(item.instance, item.node), "Start")
             .status.ok() ||
        !Submit(ctx, rec,
                BatchOp::Complete(item.instance, item.node, std::move(writes)),
                "Complete")
             .status.ok()) {
      return false;
    }
    const Node* node = snapshot->schema->FindNode(item.node);
    if (node != nullptr && node->name == "discharge") {
      Submit(ctx, rec, BatchOp::Create("treatment"), "Create");
    }
    return true;
  }

  std::vector<UserId> users_;
  uint64_t ticks_ = 0;
  Clock::time_point next_checkpoint_;
};

// adhoc: two closed-loop clients, each owning 64 instances of a
// 400-activity schema. Each cycle is one ad-hoc change and two DriveSteps
// on randomly chosen owned instances; a change is generated from the
// instance's published snapshot. An instance is recycled after 8 changes
// or when it finishes. op = one change (snapshot read, generation and
// submit); ops_per_s counts changes and steps.
class AdHocWorkload : public Workload {
 public:
  static constexpr int kActivities = 400;
  static constexpr uint64_t kSchemaSeed = 11;
  static constexpr int kClients = 2;
  static constexpr int kOwned = 64;
  static constexpr int kChangesPerInstance = 8;

  Status Populate(Context& ctx, Recorder& ledger) override {
    schema_ = ScaledSchema(kActivities, kSchemaSeed, "adhoc");
    if (schema_ == nullptr) return Status::Internal("scaled schema failed");
    ADEPT_RETURN_IF_ERROR(ctx.cluster->DeployProcessType(schema_).status());
    ADEPT_ASSIGN_OR_RETURN(std::vector<InstanceId> ids,
                           CreateAll(ctx, ledger, "adhoc", kClients * kOwned));
    if (ctx.options.trace) schema_analysis_ = AnalyzeSchema(*schema_).analysis;
    slots_.resize(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) slots_[i].id = ids[i];
    return Age(ctx, ledger);
  }

  int clients() const override { return kClients; }

  void RunClient(Context& ctx, int index, Recorder& rec) override {
    Rng rng(ctx.options.seed * 2000003 + static_cast<uint64_t>(index));
    Slot* slots = &slots_[static_cast<size_t>(index) * kOwned];
    uint64_t serial = 0;
    while (ctx.phase.load(std::memory_order_acquire) != kStop) {
      Change(ctx, rec, rng, slots[rng.NextIndex(kOwned)],
             StrFormat("adhoc%d_%llu", index,
                       static_cast<unsigned long long>(++serial)));
      for (int step = 0; step < 2; ++step) {
        Slot& slot = slots[rng.NextIndex(kOwned)];
        rec.BeginOp();
        const ClusterClient::OpOutcome outcome =
            Submit(ctx, rec, BatchOp::DriveStep(slot.id), "DriveStep");
        rec.EndOp(Clock::now());
        if (outcome.status.ok() && !outcome.progressed) {
          Recycle(ctx, rec, slot);
        }
      }
    }
  }

 private:
  struct Slot {
    InstanceId id;
    int changes = 0;
    // Tracing only: the bias as the instance store holds it, for the
    // shadow calls that price the change layer.
    Delta bias;
    std::shared_ptr<const SchemaAnalysis> analysis;
  };

  // Starts the run in the steady state of recycling after 8 changes: each
  // instance has already taken a uniform 0..7 changes, each followed by
  // its two steps. Without it, biases (and so change costs) grow for the
  // first ~20 s of a run.
  Status Age(Context& ctx, Recorder& ledger) {
    Rng rng(ctx.options.seed * 6700417 + 9);
    std::vector<int> ages(slots_.size());
    for (int& age : ages) {
      age = static_cast<int>(rng.NextBelow(kChangesPerInstance));
    }
    for (int round = 0; round + 1 < kChangesPerInstance; ++round) {
      std::vector<BatchOp> changes;
      std::vector<std::pair<Slot*, Delta>> applied;
      for (size_t i = 0; i < slots_.size(); ++i) {
        if (ages[i] <= round) continue;
        std::shared_ptr<const InstanceSnapshot> snapshot =
            ctx.cluster->SnapshotOf(slots_[i].id);
        if (snapshot == nullptr) return Status::Internal("no snapshot");
        Delta delta = AdHocDeltaFor(*snapshot, DrawAdHocKind(rng), rng,
                                    StrFormat("aged%zu_%d", i, round));
        if (delta.empty()) continue;
        changes.push_back(BatchOp::AdHocChange(slots_[i].id, delta.Clone()));
        applied.emplace_back(&slots_[i], std::move(delta));
      }
      ADEPT_RETURN_IF_ERROR(SubmitAll(ctx, ledger, changes).status());
      std::vector<InstanceId> ids;
      for (auto& [slot, delta] : applied) {
        if (ctx.options.trace) {
          ADEPT_RETURN_IF_ERROR(Shadow(*slot, delta, /*rec=*/nullptr));
        }
        ++slot->changes;
        ids.push_back(slot->id);
      }
      ADEPT_RETURN_IF_ERROR(
          DriveAll(ctx, ledger, ids, std::vector<int>(ids.size(), 2)));
    }
    return Status::OK();
  }

  void Recycle(Context& ctx, Recorder& rec, Slot& slot) {
    const ClusterClient::OpOutcome created =
        Submit(ctx, rec, BatchOp::Create("adhoc"), "Create");
    if (!created.status.ok()) return;
    slot.id = created.id;
    slot.changes = 0;
    slot.bias = Delta();
    slot.analysis.reset();
  }

  void Change(Context& ctx, Recorder& rec, Rng& rng, Slot& slot,
              const std::string& name) {
    rec.BeginOp();
    std::shared_ptr<const InstanceSnapshot> snapshot =
        ReadSnapshot(ctx, rec, slot.id, /*as_read=*/true);
    if (snapshot == nullptr) return;
    Delta delta = AdHocDeltaFor(*snapshot, DrawAdHocKind(rng), rng, name);
    if (snapshot->finished || delta.empty()) {
      Recycle(ctx, rec, slot);
      return;
    }
    const ClusterClient::OpOutcome outcome =
        Submit(ctx, rec, BatchOp::AdHocChange(slot.id, delta.Clone()),
               "AdHocChange", /*as_write=*/false);
    const Clock::time_point end = Clock::now();
    rec.EndOp(end);
    if (rec.measuring) {
      rec.op_ms.Add(MicrosBetween(rec.op_start, end) / 1000.0);
    }
    if (!outcome.status.ok()) return;
    if (rec.tracing) rec.Outcome(Shadow(slot, delta, &rec), "shadow change");
    ++slot.changes;
    if (slot.changes >= kChangesPerInstance) Recycle(ctx, rec, slot);
  }

  // Replays the instance store's AddBias work on a private copy: the
  // combined bias applied to the type schema with incremental verification
  // seeded by the cached analysis and, when `rec` is given, also without
  // verification, both timed. Touches no system state; runs on every
  // change of a traced run (set-up and warmup included) so the copy keeps
  // tracking the instance.
  Status Shadow(Slot& slot, const Delta& delta, Recorder* rec) {
    Delta combined = slot.bias.Clone();
    for (const auto& op : delta.ops()) combined.Add(op->Clone());
    const size_t replay_ops = slot.bias.size();
    const SchemaAnalysis* seed =
        slot.analysis != nullptr ? slot.analysis.get() : schema_analysis_.get();
    BiasIdAllocator alloc;
    Delta raw = combined.Clone();
    Status raw_status = Status::OK();
    Result<Delta::VerifiedSchema> verified =
        Status::Internal("shadow change not run");
    // The first call pays the cold cache for the base schema; alternate
    // which one goes first so neither median carries it alone.
    for (int i = 0; i < 2; ++i) {
      const Clock::time_point start = Clock::now();
      if ((i + slot.changes) % 2 == 1) {
        verified = combined.ApplyVerified(*schema_, seed, schema_->version(),
                                          &alloc, replay_ops);
        if (rec != nullptr) {
          rec->AddSpan(Layer::kApplyVerified, start, Clock::now());
        }
      } else if (rec != nullptr) {
        raw_status =
            raw.ApplyRaw(*schema_, schema_->version(), &alloc).status();
        rec->AddSpan(Layer::kApplyRaw, start, Clock::now());
      }
    }
    ADEPT_RETURN_IF_ERROR(raw_status);
    ADEPT_RETURN_IF_ERROR(verified.status());
    if (rec != nullptr && rec->measuring) {
      rec->shadow_calls += 2;
      rec->blocks_reused += verified->analysis->stats().blocks_reused;
      rec->blocks_total += verified->analysis->stats().blocks_total;
    }
    slot.bias = std::move(combined);
    slot.analysis = verified->analysis;
    return Status::OK();
  }

  std::shared_ptr<const ProcessSchema> schema_;
  std::shared_ptr<const SchemaAnalysis> schema_analysis_;
  // All instances; client i owns slots [i * kOwned, (i + 1) * kOwned).
  std::vector<Slot> slots_;
};

// evolve: one admin thread evolves online_order and migrates every
// instance to the latest version, round after round (even rounds insert
// "audit", odd rounds delete it); one stepper drives random instances
// meanwhile. The window is exactly 4 rounds per second of --seconds after
// 2 warmup rounds. op = one stepper step (read + DriveStep), the latency
// that migration stalls; ops_per_s = instances examined per second of
// MigrateToLatest in the median round.
class EvolveWorkload : public Workload {
 public:
  static constexpr int kInstances = 20000;
  static constexpr double kDisjointBias = 0.10;
  static constexpr double kConflictingBias = 0.02;
  static constexpr int kWarmupRounds = 2;
  static constexpr int kRoundsPerSecond = 4;

  Status Populate(Context& ctx, Recorder& ledger) override {
    std::shared_ptr<const ProcessSchema> v1 = OnlineOrderV1();
    ADEPT_RETURN_IF_ERROR(ctx.cluster->DeployProcessType(v1).status());
    ADEPT_ASSIGN_OR_RETURN(ids_,
                           CreateAll(ctx, ledger, "online_order", kInstances));
    Rng rng(ctx.options.seed * 104729 + 3);
    std::vector<BatchOp> biases;
    std::vector<int> steps(ids_.size());
    for (size_t i = 0; i < ids_.size(); ++i) {
      const double roll = rng.NextDouble();
      if (roll < kConflictingBias) {
        biases.push_back(BatchOp::AdHocChange(ids_[i], ConflictingBias(*v1)));
      } else if (roll < kConflictingBias + kDisjointBias) {
        biases.push_back(BatchOp::AdHocChange(ids_[i], DisjointBias(*v1)));
      }
      // Progress uniform in [0, 0.6] of the six activities.
      steps[i] = static_cast<int>(rng.NextBelow(4));
    }
    ADEPT_RETURN_IF_ERROR(SubmitAll(ctx, ledger, biases).status());
    return DriveAll(ctx, ledger, ids_, steps);
  }

  int clients() const override { return 2; }
  bool OwnsWindow() const override { return true; }

  // The median round: a host slow-down over part of the window moves it
  // less than the total over the window.
  double OpsPerSecond(Recorder& merged, double) const override {
    return merged.migrate_rate.Percentile(0.5);
  }

  void RunClient(Context& ctx, int index, Recorder& rec) override {
    if (index == 0) {
      Admin(ctx, rec);
    } else {
      Stepper(ctx, rec);
    }
  }

 private:
  void Admin(Context& ctx, Recorder& rec) {
    const int measured = kRoundsPerSecond * ctx.options.seconds;
    for (int round = 0; round < kWarmupRounds + measured; ++round) {
      if (ctx.phase.load(std::memory_order_acquire) == kStop) break;
      if (round == kWarmupRounds) {
        ctx.window_start = Clock::now();
        ctx.phase.store(kMeasure, std::memory_order_release);
      }
      if (!Round(ctx, rec, round)) break;
    }
    ctx.window_end = Clock::now();
    ctx.phase.store(kStop, std::memory_order_release);
  }

  bool Round(Context& ctx, Recorder& rec, int round) {
    rec.BeginOp();
    AdeptCluster& cluster = *ctx.cluster;
    auto latest = cluster.LatestVersion("online_order");
    rec.Outcome(latest.status(), "LatestVersion");
    if (!latest.ok()) return false;
    auto schema = cluster.Schema(*latest);
    rec.Outcome(schema.status(), "Schema");
    if (!schema.ok()) return false;
    Delta delta =
        round % 2 == 0 ? InsertAudit(**schema) : DeleteAudit(**schema);
    Clock::time_point start = Clock::now();
    auto evolved = cluster.EvolveProcessType(*latest, std::move(delta));
    Clock::time_point end = Clock::now();
    rec.AddSpan(Layer::kEvolve, start, end);
    rec.Outcome(evolved.status(), "EvolveProcessType");
    if (!evolved.ok()) return false;
    start = Clock::now();
    auto report = cluster.MigrateToLatest("online_order");
    end = Clock::now();
    rec.AddSpan(Layer::kMigrate, start, end);
    rec.Outcome(report.status(), "MigrateToLatest");
    if (!report.ok()) return false;
    if (report->Count(MigrationOutcome::kError) > 0) {
      rec.Outcome(Status::Internal("migration reported kError"),
                  "MigrateToLatest");
    }
    if (rec.measuring) {
      rec.measured_calls += 2;
      ++rec.rounds;
      rec.examined += report->results.size();
      rec.migrated += report->MigratedTotal();
      rec.migrate_rate.Add(static_cast<double>(report->results.size()) /
                           SecondsBetween(start, end));
    }
    return true;
  }

  void Stepper(Context& ctx, Recorder& rec) {
    Rng rng(ctx.options.seed * 3000017 + 1);
    while (ctx.phase.load(std::memory_order_acquire) != kStop) {
      InstanceId& id = ids_[rng.NextIndex(ids_.size())];
      rec.BeginOp();
      std::shared_ptr<const InstanceSnapshot> snapshot =
          ReadSnapshot(ctx, rec, id, /*as_read=*/true);
      if (snapshot == nullptr) continue;
      if (snapshot->finished) {
        const ClusterClient::OpOutcome created =
            Submit(ctx, rec, BatchOp::Create("online_order"), "Create");
        if (created.status.ok()) id = created.id;
      } else {
        Submit(ctx, rec, BatchOp::DriveStep(id), "DriveStep");
      }
      const Clock::time_point end = Clock::now();
      rec.EndOp(end);
      if (rec.measuring) {
        rec.op_ms.Add(MicrosBetween(rec.op_start, end) / 1000.0);
      }
    }
  }

  std::vector<InstanceId> ids_;
};

// monitor: three closed-loop readers and one writer paced at 250
// DriveSteps per second over 4,000 treatment cases at random progress.
// Reads are 60% SnapshotOf of Zipf(1.1)-popular cases, 30% Query over six
// fixed dashboard predicates, 10% OffersFor. op = one read.
class MonitorWorkload : public Workload {
 public:
  static constexpr int kCases = 4000;
  static constexpr int kReaders = 3;
  static constexpr double kWritesPerSecond = 250.0;
  static constexpr double kZipf = 1.1;

  Status Populate(Context& ctx, Recorder& ledger) override {
    TreatmentRoles roles;
    ADEPT_ASSIGN_OR_RETURN(users_, AddStaff(*ctx.cluster, &roles));
    ADEPT_RETURN_IF_ERROR(
        ctx.cluster->DeployProcessType(TreatmentSchema(roles)).status());
    ADEPT_ASSIGN_OR_RETURN(ids_, CreateAll(ctx, ledger, "treatment", kCases));
    Rng rng(ctx.options.seed * 15485863 + 5);
    std::vector<int> steps(ids_.size());
    for (int& s : steps) s = static_cast<int>(rng.NextBelow(10));
    ADEPT_RETURN_IF_ERROR(DriveAll(ctx, ledger, ids_, steps));
    // Popularity ranks map to cases through a seeded permutation, so the
    // hot cases spread over both shards.
    popular_ = ids_;
    rng.Shuffle(popular_);
    zipf_ = std::make_unique<ZipfSampler>(popular_.size(), kZipf);
    return Status::OK();
  }

  int clients() const override { return kReaders + 1; }

  void RunClient(Context& ctx, int index, Recorder& rec) override {
    if (index == kReaders) {
      Writer(ctx, rec);
    } else {
      Reader(ctx, index, rec);
    }
  }

 private:
  // Dashboard questions, selectivity measured at seed 1: 8.5%, 5%, 4.5%,
  // 6% (a two-conjunct index intersection), 0.2% (a version range probe)
  // and 1.3% (trace_length: no index serves it, a full scan).
  static constexpr std::array<const char*, 6> kDashboard = {
      "activated(\"discharge\")",
      "activated(\"admit to ICU\")",
      "activated(\"assign ward bed\")",
      "data.severity == 1 && activated(\"evaluate response\")",
      "version >= 21",
      "trace_length >= 30",
  };

  void Reader(Context& ctx, int index, Recorder& rec) {
    Rng rng(ctx.options.seed * 4000037 + static_cast<uint64_t>(index));
    while (ctx.phase.load(std::memory_order_acquire) != kStop) {
      rec.BeginOp();
      const uint64_t roll = rng.NextBelow(10);
      if (roll < 6) {
        ReadSnapshot(ctx, rec, popular_[zipf_->Sample(rng)], /*as_read=*/true);
      } else if (roll < 9) {
        Query(ctx, rec, kDashboard[rng.NextIndex(kDashboard.size())]);
      } else {
        PollOffers(ctx, rec, users_[rng.NextIndex(users_.size())]);
      }
      const Clock::time_point end = Clock::now();
      rec.EndOp(end);
      if (rec.measuring) {
        rec.op_ms.Add(MicrosBetween(rec.op_start, end) / 1000.0);
      }
    }
  }

  void Query(Context& ctx, Recorder& rec, const char* text) {
    const Clock::time_point start = Clock::now();
    Result<QueryResult> result = ctx.client->Query(text);
    const Clock::time_point end = Clock::now();
    rec.AddSpan(Layer::kQuery, start, end);
    Status status = result.status();
    if (status.ok()) {
      // Matches come back in strictly ascending id order: no duplicates.
      for (size_t i = 1; i < result->snapshots.size(); ++i) {
        if (result->snapshots[i - 1]->id.value() >=
            result->snapshots[i]->id.value()) {
          status = Status::Internal("query result not strictly ascending");
          break;
        }
      }
    }
    rec.Outcome(status, "Query");
    if (!rec.measuring || !result.ok()) return;
    ++rec.measured_calls;
    rec.read_us.Add(MicrosBetween(start, end));
    ++rec.queries;
    rec.query_hits += result->size();
    rec.query_evaluated += result->evaluated;
    rec.query_probes += static_cast<uint64_t>(result->index_probes);
    if (!result->used_index) ++rec.query_scans;
  }

  void Writer(Context& ctx, Recorder& rec) {
    Rng rng(ctx.options.seed * 5000011 + 7);
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kWritesPerSecond));
    Clock::time_point due = Clock::now();
    while (true) {
      due += interval;
      if (!SleepUntil(ctx, due)) return;
      rec.BeginOp();
      if (rec.measuring) {
        ++rec.paced;
        if (MicrosBetween(due, rec.op_start) > 1000) ++rec.paced_late;
      }
      InstanceId& id = ids_[rng.NextIndex(ids_.size())];
      const ClusterClient::OpOutcome stepped =
          Submit(ctx, rec, BatchOp::DriveStep(id), "DriveStep");
      if (stepped.status.ok() && !stepped.progressed) {
        const ClusterClient::OpOutcome created =
            Submit(ctx, rec, BatchOp::Create("treatment"), "Create");
        if (created.status.ok()) id = created.id;
      }
    }
  }

  std::vector<UserId> users_;
  std::vector<InstanceId> ids_;
  std::vector<InstanceId> popular_;
  std::unique_ptr<ZipfSampler> zipf_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "worklist") return std::make_unique<WorklistWorkload>();
  if (name == "adhoc") return std::make_unique<AdHocWorkload>();
  if (name == "evolve") return std::make_unique<EvolveWorkload>();
  if (name == "monitor") return std::make_unique<MonitorWorkload>();
  return nullptr;
}

// --- Status-surface sampling (main thread) -----------------------------------

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

// Grows by every byte appended to a file that checkpoints may truncate.
class FileGrowth {
 public:
  explicit FileGrowth(std::string path) : path_(std::move(path)) {}
  void Sample() {
    std::error_code ec;
    const auto size = static_cast<double>(fs::file_size(path_, ec));
    if (ec) return;
    if (primed_) growth_ += size >= last_ ? size - last_ : size;
    last_ = size;
    primed_ = true;
  }
  double growth() const { return growth_; }

 private:
  std::string path_;
  double last_ = 0;
  double growth_ = 0;
  bool primed_ = false;
};

class Sampler {
 public:
  explicit Sampler(Context& ctx) : ctx_(ctx) {
    for (int k = 0; k < kShards; ++k) {
      wal_.emplace_back(ctx.PrimaryWal() + ".shard" + std::to_string(k));
    }
  }

  void Begin() {
    lsn_begin_ = TotalLsn();
    getrusage(RUSAGE_SELF, &usage_begin_);
    Sample();
  }

  void Sample() {
    for (FileGrowth& wal : wal_) wal.Sample();
    journal_.Sample();
    const ClusterReplicationStatus status = ctx_.cluster->ReplicationStatus();
    for (const PrimaryStatus& shard : status.shards) {
      ack_lag_.Add(static_cast<double>(shard.local_durable -
                                       std::min(shard.local_durable,
                                                shard.quorum_acked)));
      tail_bytes_max_ = std::max(tail_bytes_max_, shard.tail_bytes);
    }
    const WorklistStats stats = ctx_.cluster->Worklist().Stats();
    open_items_.Add(
        static_cast<double>(stats.offered + stats.claimed + stats.started));
  }

  void End() {
    Sample();
    lsn_end_ = TotalLsn();
    getrusage(RUSAGE_SELF, &usage_end_);
    peak_rss_mb_ = PeakRssMb();
  }

  uint64_t wal_records() const { return lsn_end_ - lsn_begin_; }
  double wal_bytes() const {
    double bytes = 0;
    for (const FileGrowth& wal : wal_) bytes += wal.growth();
    return bytes;
  }
  double journal_bytes() const { return journal_.growth(); }
  Samples& ack_lag() { return ack_lag_; }
  double tail_bytes_max() const { return static_cast<double>(tail_bytes_max_); }
  double open_items_mean() const { return open_items_.Mean(); }
  double cpu_seconds() const {
    auto seconds = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             static_cast<double>(tv.tv_usec) / 1e6;
    };
    return seconds(usage_end_.ru_utime) - seconds(usage_begin_.ru_utime) +
           seconds(usage_end_.ru_stime) - seconds(usage_begin_.ru_stime);
  }
  double involuntary_switches() const {
    return static_cast<double>(usage_end_.ru_nivcsw - usage_begin_.ru_nivcsw);
  }
  double peak_rss_mb() const { return peak_rss_mb_; }

 private:
  uint64_t TotalLsn() {
    uint64_t total = 0;
    for (size_t k = 0; k < ctx_.cluster->shard_count(); ++k) {
      total += ctx_.cluster->shard(k).wal_writer()->last_enqueued_lsn();
    }
    return total;
  }

  Context& ctx_;
  std::vector<FileGrowth> wal_;
  FileGrowth journal_{ctx_.PrimaryWal() + ".worklist"};
  uint64_t lsn_begin_ = 0, lsn_end_ = 0;
  rusage usage_begin_{}, usage_end_{};
  Samples ack_lag_;
  size_t tail_bytes_max_ = 0;
  Samples open_items_;
  double peak_rss_mb_ = 0;
};

// --- Post-run durability check -----------------------------------------------

struct CheckResult {
  Status status;
  double recover_ms = 0;
};

// Drains the standbys, stops the topology, recovers standby 0's file set
// and checks it against the ledger: every acked create present, no
// instance id twice, no more instances than creates attempted, and every
// instance's completed count at least the acked completions.
CheckResult CheckDurability(Context& ctx, const Recorder& ledger) {
  CheckResult check;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
  while (Clock::now() < deadline) {
    bool caught_up = true;
    for (const PrimaryStatus& shard : ctx.cluster->ReplicationStatus().shards) {
      for (const PeerStatus& peer : shard.peers) {
        caught_up = caught_up && peer.acked_lsn >= shard.local_durable;
      }
    }
    if (caught_up) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const uint64_t promotions = ctx.coordinator->promotions();
  StopTopology(ctx);
  if (promotions > 0) {
    check.status = Status::Internal(
        "a failover happened during a fault-free run (heartbeats starved)");
    return check;
  }

  const Clock::time_point start = Clock::now();
  auto recovered = AdeptCluster::Recover(
      ClusterOptionsFor(ctx.NodeWal(0), ctx.NodeSnapshot(0), ctx.options.seed));
  check.recover_ms = MicrosBetween(start, Clock::now()) / 1000.0;
  if (!recovered.ok()) {
    check.status = recovered.status();
    return check;
  }
  auto all = (*recovered)->Query("true");
  if (!all.ok()) {
    check.status = all.status();
    return check;
  }
  std::unordered_map<uint64_t, uint64_t> completed;
  completed.reserve(all->size());
  for (const auto& snapshot : all->snapshots) {
    if (!completed.emplace(snapshot->id.value(), snapshot->completed_total)
             .second) {
      check.status = Status::Internal(StrFormat(
          "instance %llu duplicated",
          static_cast<unsigned long long>(snapshot->id.value())));
      return check;
    }
  }
  if (all->size() > ledger.create_attempts) {
    check.status = Status::Internal("more instances than creates attempted");
    return check;
  }
  for (uint64_t id : ledger.created) {
    if (completed.count(id) == 0) {
      check.status = Status::Internal(StrFormat(
          "acked create %llu lost", static_cast<unsigned long long>(id)));
      return check;
    }
  }
  for (const auto& [id, n] : ledger.completed) {
    auto it = completed.find(id);
    if (it == completed.end() || it->second < n) {
      check.status = Status::Internal(
          StrFormat("acked completion of instance %llu lost",
                    static_cast<unsigned long long>(id)));
      return check;
    }
  }
  return check;
}

// --- Reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

double Ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

// The gated end-to-end metrics (BENCHMARK.json): medians and throughput.
std::vector<Metric> EndToEndMetrics(const Workload& workload, Recorder& all,
                                    Samples& setup_s, const Sampler& sampler,
                                    double window_s) {
  return {
      {"setup_s", setup_s.Percentile(0.5), "s", setup_s.count()},
      {"peak_rss_mb", sampler.peak_rss_mb(), "MB", 1},
      {"ops_per_s", workload.OpsPerSecond(all, window_s), "1/s", all.units},
      {"op_p50_ms", all.op_ms.Percentile(0.5), "ms", all.op_ms.count()},
      {"write_p50_ms", all.write_ms.Percentile(0.5), "ms",
       all.write_ms.count()},
      {"read_p50_us", all.read_us.Percentile(0.5), "us", all.read_us.count()},
  };
}

// Tails, printed but not gated: their run-to-run spread on the reference
// box exceeds the largest bound the benchmark may set (README.md).
std::vector<Metric> TailMetrics(Recorder& all) {
  return {
      {"op_p99_ms", all.op_ms.Percentile(0.99), "ms", all.op_ms.count()},
      {"write_p99_ms", all.write_ms.Percentile(0.99), "ms",
       all.write_ms.count()},
      {"read_p99_us", all.read_us.Percentile(0.99), "us", all.read_us.count()},
  };
}

std::vector<Metric> PerLayerMetrics(Recorder& all, Sampler& sampler,
                                    const CheckResult& check,
                                    uint64_t retry_rounds, double window_s,
                                    int clients, double span_cost_us) {
  auto layer = [&](Layer l) -> Samples& {
    return all.layer_us[static_cast<size_t>(l)];
  };
  // Client time inside calls to the system, by layer.
  double call_us = 0;
  for (Layer l : {Layer::kSubmit, Layer::kSnapshotOf, Layer::kOffersFor,
                  Layer::kClaim, Layer::kQuery, Layer::kEvolve,
                  Layer::kMigrate}) {
    call_us += layer(l).Sum();
  }
  auto share = [&](Layer l) { return Ratio(layer(l).Sum(), call_us); };
  const double calls = static_cast<double>(all.measured_calls);
  const double kops = calls / 1000.0;
  const double writes = static_cast<double>(all.writes);
  const double change_p50 = all.op_ms.Percentile(0.5) * 1000.0;
  const double raw_p50 = layer(Layer::kApplyRaw).Percentile(0.5);
  const double verified_p50 = layer(Layer::kApplyVerified).Percentile(0.5);
  const bool changes = all.shadow_calls > 0;
  size_t spans = 0;
  for (const Samples& s : all.layer_us) spans += s.count();
  const double overhead_us = static_cast<double>(spans) * span_cost_us +
                             layer(Layer::kApplyRaw).Sum() +
                             layer(Layer::kApplyVerified).Sum();
  return {
      {"cluster.submit_p50_us", layer(Layer::kSubmit).Percentile(0.5), "us",
       layer(Layer::kSubmit).count()},
      {"cluster.submit_p99_us", layer(Layer::kSubmit).Percentile(0.99), "us",
       layer(Layer::kSubmit).count()},
      {"cluster.submit_share", share(Layer::kSubmit), "ratio", 1},
      {"cluster.retry_rounds_per_kop",
       Ratio(static_cast<double>(retry_rounds), kops), "count", 1},
      {"cluster.evolve_share", share(Layer::kEvolve), "ratio", 1},
      {"cluster.migrate_share", share(Layer::kMigrate), "ratio", 1},
      {"change.shadow_calls_per_kop",
       Ratio(static_cast<double>(all.shadow_calls), kops), "count", 1},
      {"change.apply_raw_share", changes ? Ratio(raw_p50, change_p50) : 0,
       "ratio", layer(Layer::kApplyRaw).count()},
      {"change.apply_verified_share",
       changes ? Ratio(verified_p50, change_p50) : 0, "ratio",
       layer(Layer::kApplyVerified).count()},
      {"verify.share",
       changes ? std::max(0.0, 1.0 - Ratio(raw_p50, verified_p50)) : 0,
       "ratio", layer(Layer::kApplyVerified).count()},
      {"verify.blocks_reused_ratio",
       Ratio(static_cast<double>(all.blocks_reused),
             static_cast<double>(all.blocks_total)),
       "ratio", 1},
      {"compliance.examined_per_round",
       Ratio(static_cast<double>(all.examined),
             static_cast<double>(all.rounds)),
       "count", all.rounds},
      {"compliance.migrated_ratio",
       Ratio(static_cast<double>(all.migrated),
             static_cast<double>(all.examined)),
       "ratio", all.rounds},
      {"worklist.offers_for_share", share(Layer::kOffersFor), "ratio", 1},
      {"worklist.claim_share", share(Layer::kClaim), "ratio", 1},
      {"worklist.offers_returned_mean",
       Ratio(static_cast<double>(all.offers_returned),
             static_cast<double>(all.offers_polls)),
       "count", all.offers_polls},
      {"worklist.claim_conflict_ratio",
       Ratio(static_cast<double>(all.claim_conflicts),
             static_cast<double>(all.claims)),
       "ratio", all.claims},
      {"worklist.claims_per_kop", Ratio(static_cast<double>(all.claims), kops),
       "count", all.claims},
      {"worklist.journal_bytes_per_claim",
       Ratio(sampler.journal_bytes(),
             static_cast<double>(all.claims - all.claim_conflicts)),
       "bytes", 1},
      {"worklist.open_items", sampler.open_items_mean(), "count", 1},
      {"runtime.snapshot_of_p50_ns",
       layer(Layer::kSnapshotOf).Percentile(0.5) * 1000.0, "ns",
       layer(Layer::kSnapshotOf).count()},
      {"runtime.snapshot_of_p99_ns",
       layer(Layer::kSnapshotOf).Percentile(0.99) * 1000.0, "ns",
       layer(Layer::kSnapshotOf).count()},
      {"query.share", share(Layer::kQuery), "ratio", 1},
      {"query.queries_per_kop", Ratio(static_cast<double>(all.queries), kops),
       "count", all.queries},
      {"query.evaluated_per_hit",
       Ratio(static_cast<double>(all.query_evaluated),
             static_cast<double>(all.query_hits)),
       "count", all.queries},
      {"query.index_probes_mean",
       Ratio(static_cast<double>(all.query_probes),
             static_cast<double>(all.queries)),
       "count", all.queries},
      {"query.scan_ratio",
       Ratio(static_cast<double>(all.query_scans),
             static_cast<double>(all.queries)),
       "ratio", all.queries},
      {"storage.wal_records_per_write",
       Ratio(static_cast<double>(sampler.wal_records()), writes), "count", 1},
      {"storage.wal_bytes_per_write", Ratio(sampler.wal_bytes(), writes),
       "bytes", 1},
      {"storage.checkpoint_share",
       Ratio(layer(Layer::kCheckpoint).Sum(), window_s * 1e6), "ratio",
       layer(Layer::kCheckpoint).count()},
      {"storage.recover_ms", check.recover_ms, "ms", 1},
      {"repl.ack_lag_p99_records", sampler.ack_lag().Percentile(0.99), "count",
       sampler.ack_lag().count()},
      {"repl.tail_bytes_max", sampler.tail_bytes_max(), "bytes", 1},
      {"loadgen.late_ratio",
       Ratio(static_cast<double>(all.paced_late),
             static_cast<double>(all.paced)),
       "ratio", all.paced},
      {"proc.cpu_us_per_op", Ratio(sampler.cpu_seconds() * 1e6, calls), "us",
       all.measured_calls},
      {"proc.invol_ctx_switches_per_kop",
       Ratio(sampler.involuntary_switches(), kops), "count", 1},
      {"trace.overhead_ratio",
       Ratio(overhead_us, window_s * 1e6 * static_cast<double>(clients)),
       "ratio", spans},
  };
}

// Microseconds one recorded span costs a client thread (two clock reads
// and a sample), measured on this process before the run.
double CalibrateSpanCost() {
  std::atomic<int> phase{kMeasure};
  Recorder probe(&phase, /*tracing=*/true, /*keep_spans=*/false, Clock::now());
  probe.BeginOp();
  constexpr int kProbes = 200000;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kProbes; ++i) {
    const Clock::time_point a = Clock::now();
    probe.AddSpan(Layer::kSubmit, a, Clock::now());
  }
  return MicrosBetween(start, Clock::now()) / kProbes;
}

void PrintTable(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6f %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  PrintTable(metrics);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", std::max<uint64_t>(attempted, 1),
              failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "op,layer,start_ns,duration_ns\n";
  for (const Span& s : spans) {
    out << s.op << ',' << kLayerNames[static_cast<size_t>(s.layer)] << ','
        << s.start_ns << ',' << s.duration_ns << '\n';
  }
}

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options->workload = value;
      } else if (flag == "--seed") {
        options->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options->seconds = std::stoi(value);
      } else if (flag == "--trace") {
        options->trace = value == "1";
      } else if (flag == "--data-dir") {
        options->data_dir = value;
      } else if (flag == "--trace-out") {
        options->trace_out = value;
      } else {
        return false;
      }
    } catch (const std::logic_error&) {  // not a number / out of range
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty() &&
         !options->data_dir.empty() && options->seconds > 0;
}

int Run(const Options& options) {
  if (MakeWorkload(options.workload) == nullptr) {
    std::fprintf(stderr, "bench_e2e: unknown workload %s\n",
                 options.workload.c_str());
    return 2;
  }
  const double span_cost_us = options.trace ? CalibrateSpanCost() : 0;
  // The traced run reports no set-up time, so it sets up once.
  const int setups = options.trace ? 1 : kSetups;

  Context ctx;
  ctx.options = options;
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Recorder> ledger;
  Samples setup_s;
  const Clock::time_point epoch = Clock::now();
  for (int i = 0; i < setups; ++i) {
    ctx.dir = (fs::path(options.data_dir) / ("setup" + std::to_string(i)))
                  .string();
    workload = MakeWorkload(options.workload);
    ledger = std::make_unique<Recorder>(&ctx.phase, false, false, epoch);
    const Clock::time_point start = Clock::now();
    Status status = StartTopology(ctx);
    if (status.ok()) status = workload->Populate(ctx, *ledger);
    if (!status.ok()) {
      std::fprintf(stderr, "bench_e2e: set-up failed: %s\n",
                   status.ToString().c_str());
      StopTopology(ctx);
      return 1;
    }
    setup_s.Add(SecondsBetween(start, Clock::now()));
    if (i + 1 < setups) {
      StopTopology(ctx);
      std::error_code ec;
      fs::remove_all(ctx.dir, ec);
    }
  }

  const uint64_t retry_base = ctx.client->retry_rounds();
  std::vector<std::unique_ptr<Recorder>> recorders;
  recorders.reserve(static_cast<size_t>(workload->clients()));
  for (int i = 0; i < workload->clients(); ++i) {
    recorders.push_back(std::make_unique<Recorder>(
        &ctx.phase, options.trace, !options.trace_out.empty(), epoch));
  }
  Recorder main_rec(&ctx.phase, options.trace, !options.trace_out.empty(),
                    epoch);
  Sampler sampler(ctx);
  std::vector<std::thread> threads;
  threads.reserve(recorders.size());
  for (int i = 0; i < workload->clients(); ++i) {
    threads.emplace_back([&, i] {
      workload->RunClient(ctx, i, *recorders[static_cast<size_t>(i)]);
    });
  }

  const Clock::time_point run_start = Clock::now();
  const auto warmup = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kWarmupSeconds));
  bool in_window = false;
  bool timed_out = false;
  Clock::time_point next_sample = run_start;
  while (true) {
    const Clock::time_point now = Clock::now();
    if (!workload->OwnsWindow()) {
      if (!in_window && now >= run_start + warmup) {
        ctx.window_start = now;
        ctx.phase.store(kMeasure, std::memory_order_release);
      } else if (in_window &&
                 now >= ctx.window_start + std::chrono::seconds(
                                               options.seconds)) {
        ctx.window_end = now;
        ctx.phase.store(kStop, std::memory_order_release);
      }
    } else if (SecondsBetween(run_start, now) > kRunDeadlineSeconds) {
      timed_out = true;  // the workload still closes its own window
      ctx.phase.store(kStop, std::memory_order_release);
    }
    const int phase = ctx.phase.load(std::memory_order_acquire);
    if (!in_window && phase != kWarmup) {
      in_window = true;
      sampler.Begin();
    }
    if (phase == kStop) break;
    if (now >= next_sample) {
      next_sample += std::chrono::milliseconds(kSampleIntervalMs);
      if (in_window) sampler.Sample();
      workload->Tick(ctx, main_rec);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  sampler.End();
  for (std::thread& t : threads) t.join();
  const double window_s = SecondsBetween(ctx.window_start, ctx.window_end);
  const uint64_t retry_rounds = ctx.client->retry_rounds() - retry_base;

  Recorder all(&ctx.phase, options.trace, false, epoch);
  all.Merge(*ledger);
  all.Merge(main_rec);
  for (const auto& rec : recorders) all.Merge(*rec);

  const CheckResult check = CheckDurability(ctx, all);
  std::error_code ec;
  fs::remove_all(options.data_dir, ec);
  bool correct = check.status.ok() && !timed_out;
  if (!check.status.ok()) {
    std::fprintf(stderr, "bench_e2e: check failed: %s\n",
                 check.status.ToString().c_str());
  }
  if (timed_out) std::fprintf(stderr, "bench_e2e: run deadline exceeded\n");
  if (retry_rounds > 0) {
    std::fprintf(stderr, "bench_e2e: %" PRIu64 " client retry rounds\n",
                 retry_rounds);
  }
  if (!options.trace_out.empty()) WriteSpans(options.trace_out, all.spans);

  std::printf("workload %s seed %" PRIu64 " window %.3f s\n",
              options.workload.c_str(), options.seed, window_s);
  const std::vector<Metric> end_to_end =
      EndToEndMetrics(*workload, all, setup_s, sampler, window_s);
  PrintTable(TailMetrics(all));
  if (!options.trace) {
    PrintResult(correct, all.attempted, all.failed, end_to_end);
    return correct ? 0 : 1;
  }
  // The traced run's end-to-end numbers, against the untraced run's, give
  // the tracing overhead; only the per-layer metrics go into the result.
  PrintTable(end_to_end);
  PrintResult(correct, all.attempted, all.failed,
              PerLayerMetrics(all, sampler, check, retry_rounds, window_s,
                              workload->clients(), span_cost_us));
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace adept

int main(int argc, char** argv) {
  adept::e2e::Options options;
  if (!adept::e2e::ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload worklist|adhoc|evolve|monitor "
                 "--data-dir DIR [--seed N] [--seconds S] [--trace 0|1] "
                 "[--trace-out FILE]\n");
    return 2;
  }
  return adept::e2e::Run(options);
}
