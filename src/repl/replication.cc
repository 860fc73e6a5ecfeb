#include "repl/replication.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/fs_util.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace adept {

namespace {

// Timeout of one dial to a peer.
constexpr int kConnectTimeoutMs = 1000;
// Frames coalesced into one BATCH message.
constexpr size_t kMaxBatchFrames = 512;
// In-memory tail retained for streaming before peers must fall back to
// reading the WAL file. Frames every peer has acked are dropped when the
// next durable batch arrives. Bounded twice: by frame count and by payload
// bytes — whichever trips first evicts from the front (a dead peer can no
// longer pin unbounded memory; it catches up from the WAL file or a
// snapshot reset instead; see tail_evictions in PrimaryStatus).
constexpr size_t kTailBufferFrames = 8192;
constexpr size_t kTailBufferBytes = 32u << 20;  // 32 MiB

// Stable status-message markers (the IsQuorumTimeout/IsFenced/IsNoQuorum
// contract — see replication.h). Substring matching is deliberate: the
// full messages carry diagnostic numbers, the markers carry the verdict.
constexpr const char kQuorumTimeoutMarker[] =
    "locally durable, quorum not reached";
constexpr const char kFencedMarker[] = "fenced by a newer epoch";
constexpr const char kNoQuorumMarker[] = "no live quorum";

bool MessageContains(const Status& status, const char* marker) {
  return status.code() == StatusCode::kUnavailable &&
         status.message().find(marker) != std::string::npos;
}

}  // namespace

bool IsQuorumTimeout(const Status& status) {
  return MessageContains(status, kQuorumTimeoutMarker);
}

bool IsFenced(const Status& status) {
  return MessageContains(status, kFencedMarker);
}

bool IsNoQuorum(const Status& status) {
  return MessageContains(status, kNoQuorumMarker);
}

Status FencedStatus(uint64_t shard, uint64_t newer_epoch, uint64_t own_epoch) {
  return Status::Unavailable(StrFormat(
      "shard %llu: %s (%llu > %llu); this primary must not accept writes",
      static_cast<unsigned long long>(shard), kFencedMarker,
      static_cast<unsigned long long>(newer_epoch),
      static_cast<unsigned long long>(own_epoch)));
}

Status NoLiveQuorumStatus(uint64_t shard, int live_copies, int quorum) {
  return Status::Unavailable(StrFormat(
      "shard %llu: %s (%d of the %d copies a quorum requires are live); "
      "write rejected before apply",
      static_cast<unsigned long long>(shard), kNoQuorumMarker, live_copies,
      quorum));
}

JsonValue PrimaryStatus::ToJson() const {
  JsonValue peer_list = JsonValue::MakeArray();
  for (const PeerStatus& peer : peers) {
    JsonValue p = JsonValue::MakeObject();
    p.Set("endpoint", JsonValue(peer.endpoint.host + ":" +
                                std::to_string(peer.endpoint.port)));
    p.Set("streaming", JsonValue(peer.streaming));
    p.Set("health", JsonValue(std::string(PeerHealthToString(peer.health))));
    p.Set("acked_lsn", JsonValue(peer.acked_lsn));
    p.Set("silence_ms", JsonValue(peer.silence_ms));
    peer_list.Append(std::move(p));
  }
  JsonValue j = JsonValue::MakeObject();
  j.Set("shard", JsonValue(shard));
  j.Set("epoch", JsonValue(epoch));
  j.Set("local_durable", JsonValue(local_durable));
  j.Set("quorum_acked", JsonValue(quorum_acked));
  j.Set("quorum", JsonValue(static_cast<int64_t>(quorum)));
  j.Set("fenced", JsonValue(fenced));
  j.Set("quorum_live", JsonValue(quorum_live));
  j.Set("tail_evictions", JsonValue(tail_evictions));
  j.Set("tail_frames", JsonValue(static_cast<int64_t>(tail_frames)));
  j.Set("tail_bytes", JsonValue(static_cast<int64_t>(tail_bytes)));
  j.Set("peers", std::move(peer_list));
  return j;
}

std::string ReplicationEpochPath(const std::string& wal_base) {
  return wal_base + ".replmeta";
}

Status WriteReplicationEpoch(const std::string& wal_base, uint64_t epoch) {
  JsonValue meta = JsonValue::MakeObject();
  meta.Set("epoch", JsonValue(epoch));
  return WriteFileAtomic(ReplicationEpochPath(wal_base), meta.Dump());
}

Result<uint64_t> ReadReplicationEpoch(const std::string& wal_base) {
  auto content = ReadFileToString(ReplicationEpochPath(wal_base));
  if (!content.ok()) {
    if (content.status().code() != StatusCode::kNotFound) {
      return content.status();
    }
    ADEPT_RETURN_IF_ERROR(WriteReplicationEpoch(wal_base, 1));
    return uint64_t{1};
  }
  ADEPT_ASSIGN_OR_RETURN(JsonValue meta, JsonValue::Parse(*content));
  const uint64_t epoch = static_cast<uint64_t>(meta.Get("epoch").as_int());
  if (epoch == 0) {
    return Status::Corruption("replication meta '" +
                              ReplicationEpochPath(wal_base) +
                              "' carries no epoch");
  }
  return epoch;
}

Result<uint64_t> PromoteReplicaFiles(const std::string& wal_base,
                                     uint64_t at_least) {
  // A replica that never received a session still promotes cleanly: its
  // epoch starts at 1 (ReadReplicationEpoch creates the meta file).
  ADEPT_ASSIGN_OR_RETURN(uint64_t epoch, ReadReplicationEpoch(wal_base));
  const uint64_t promoted = std::max(epoch + 1, at_least);
  ADEPT_RETURN_IF_ERROR(WriteReplicationEpoch(wal_base, promoted));
  return promoted;
}

Result<std::unique_ptr<ReplicationPrimary>> ReplicationPrimary::Start(
    ReplicationSource source, const ReplicationOptions& options) {
  if (options.quorum < 1 ||
      static_cast<size_t>(options.quorum) > options.replicas.size() + 1) {
    return Status::InvalidArgument(
        StrFormat("quorum %d outside [1, %zu] (replicas + the primary)",
                  options.quorum, options.replicas.size() + 1));
  }
  if (source.wal_path.empty()) {
    return Status::InvalidArgument("replication source has no WAL path");
  }
  return std::unique_ptr<ReplicationPrimary>(
      new ReplicationPrimary(std::move(source), options));
}

ReplicationPrimary::ReplicationPrimary(ReplicationSource source,
                                       const ReplicationOptions& options)
    : source_(std::move(source)), options_(options) {
  local_durable_ = source_.start_lsn;
  peers_.reserve(options_.replicas.size());
  for (size_t i = 0; i < options_.replicas.size(); ++i) {
    auto peer = std::make_unique<Peer>();
    peer->endpoint = options_.replicas[i];
    peer->injector = i < options_.peer_fault_injectors.size() &&
                             options_.peer_fault_injectors[i] != nullptr
                         ? options_.peer_fault_injectors[i]
                         : options_.fault_injector;
    peers_.push_back(std::move(peer));
  }
  for (auto& peer : peers_) {
    peer->thread = std::thread([this, p = peer.get()] { PeerLoop(*p); });
  }
}

ReplicationPrimary::~ReplicationPrimary() { Stop(); }

void ReplicationPrimary::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    // Wake peer threads blocked inside ReadFrame/SendFrame: closing the
    // socket makes the pending I/O fail with kUnavailable.
    for (auto& peer : peers_) {
      if (peer->conn != nullptr) peer->conn->Close();
    }
  }
  frames_cv_.notify_all();
  acks_cv_.notify_all();
  for (auto& peer : peers_) {
    if (peer->thread.joinable()) peer->thread.join();
  }
}

void ReplicationPrimary::OnDurableBatch(const std::vector<WalFrame>& frames) {
  if (frames.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const WalFrame& frame : frames) {
      tail_bytes_ += frame.payload.size();
      tail_.push_back(frame);
    }
    // The slowest ack across peers. Frames at or below it are needed by
    // nobody and are dropped. Evicting above it forces someone onto the
    // WAL-file / snapshot catch-up path, which is what the eviction counter
    // measures (a dead peer must not pin unbounded memory). With no peers
    // nothing ever needs the tail, so nothing counts as evicted.
    uint64_t min_acked = ~uint64_t{0};
    for (const auto& peer : peers_) {
      min_acked = std::min(min_acked, peer->acked_lsn);
    }
    while (!tail_.empty() && (tail_.front().lsn <= min_acked ||
                              tail_.size() > kTailBufferFrames ||
                              tail_bytes_ > kTailBufferBytes)) {
      if (tail_.front().lsn > min_acked) ++tail_evictions_;
      tail_bytes_ -= tail_.front().payload.size();
      tail_.pop_front();
    }
    local_durable_ = frames.back().lsn;
  }
  frames_cv_.notify_all();
}

uint64_t ReplicationPrimary::quorum_acked_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.quorum <= 1) return local_durable_;
  std::vector<uint64_t> acked;
  acked.reserve(peers_.size());
  for (const auto& peer : peers_) acked.push_back(peer->acked_lsn);
  std::sort(acked.begin(), acked.end(), std::greater<uint64_t>());
  return acked[static_cast<size_t>(options_.quorum) - 2];
}

int ReplicationPrimary::connected_peers() const {
  std::lock_guard<std::mutex> lock(mu_);
  int n = 0;
  for (const auto& peer : peers_) n += peer->streaming ? 1 : 0;
  return n;
}

Status ReplicationPrimary::WaitForPeers(int n, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    int streaming = 0;
    for (const auto& peer : peers_) streaming += peer->streaming ? 1 : 0;
    if (streaming >= n) return Status::OK();
    if (stopping_) return Status::Unavailable("replication stopped");
    if (acks_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      return Status::Unavailable(
          StrFormat("only %d of %d peers connected within %dms", streaming, n,
                    timeout_ms));
    }
  }
}

Status ReplicationPrimary::WaitRemote(uint64_t lsn) {
  const int needed = options_.quorum - 1;
  if (needed <= 0) return Status::OK();  // local copy satisfies the quorum
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.ack_timeout_ms);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (fenced_.load(std::memory_order_acquire)) {
      // A newer primary owns the shard; waiting cannot succeed, and the
      // record — though on this node's disk — belongs to a dead lineage.
      return FencedStatus(source_.shard,
                          fenced_by_.load(std::memory_order_acquire),
                          source_.epoch);
    }
    int acked = 0;
    for (const auto& peer : peers_) acked += peer->acked_lsn >= lsn ? 1 : 0;
    if (acked >= needed) return Status::OK();
    if (stopping_) {
      return Status::Unavailable("replication stopped before quorum");
    }
    if (acks_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      // The quorum-timeout verdict (see IsQuorumTimeout): the record IS on
      // this primary's disk, so it is maybe-applied — it survives a
      // failover exactly when the promoted replica's prefix covers `lsn`.
      return Status::Unavailable(StrFormat(
          "shard %llu: LSN %llu %s (acked %d/%d within %dms)",
          static_cast<unsigned long long>(source_.shard),
          static_cast<unsigned long long>(lsn), kQuorumTimeoutMarker,
          acked + 1, options_.quorum, options_.ack_timeout_ms));
    }
  }
}

bool ReplicationPrimary::HasLiveQuorum() const {
  return CheckWritable().ok();
}

Status ReplicationPrimary::CheckWritable() const {
  if (fenced_.load(std::memory_order_acquire)) {
    return FencedStatus(source_.shard,
                        fenced_by_.load(std::memory_order_acquire),
                        source_.epoch);
  }
  std::lock_guard<std::mutex> lock(mu_);
  int live = 1;  // the primary's own copy
  for (const auto& peer : peers_) {
    if (peer->health.Assess(options_.suspect_after_ms,
                            options_.dead_after_ms) != PeerHealth::kDead) {
      ++live;
    }
  }
  if (live < options_.quorum) {
    return NoLiveQuorumStatus(source_.shard, live, options_.quorum);
  }
  return Status::OK();
}

uint64_t ReplicationPrimary::tail_evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tail_evictions_;
}

PrimaryStatus ReplicationPrimary::GetStatus() const {
  PrimaryStatus status;
  status.shard = source_.shard;
  status.epoch = source_.epoch;
  status.quorum = options_.quorum;
  status.fenced = fenced_.load(std::memory_order_acquire);
  status.quorum_acked = quorum_acked_lsn();
  std::lock_guard<std::mutex> lock(mu_);
  status.local_durable = local_durable_;
  status.tail_evictions = tail_evictions_;
  status.tail_frames = tail_.size();
  status.tail_bytes = tail_bytes_;
  int live = 1;
  for (const auto& peer : peers_) {
    PeerStatus p;
    p.endpoint = peer->endpoint;
    p.streaming = peer->streaming;
    p.health = peer->health.Assess(options_.suspect_after_ms,
                                   options_.dead_after_ms);
    p.acked_lsn = peer->acked_lsn;
    p.silence_ms = peer->health.SilenceMs();
    if (p.health != PeerHealth::kDead) ++live;
    status.peers.push_back(std::move(p));
  }
  status.quorum_live = !status.fenced && live >= options_.quorum;
  return status;
}

void ReplicationPrimary::PeerLoop(Peer& peer) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (stopping_) return;
    }
    if (fenced_.load(std::memory_order_acquire)) return;  // stand down
    ConnectPeer(peer);  // returns only on session error or stop
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_) return;
    // Backoff before redialing a down peer; stop wakes this immediately.
    frames_cv_.wait_for(lock, std::chrono::milliseconds(options_.retry_ms));
  }
}

Status ReplicationPrimary::ConnectPeer(Peer& peer) {
  ADEPT_ASSIGN_OR_RETURN(
      std::unique_ptr<TcpConnection> conn,
      TcpConnection::Dial(peer.endpoint, kConnectTimeoutMs));
  conn->set_fault_injector(peer.injector);
  conn->set_write_timeout_ms(options_.io_timeout_ms);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return Status::Unavailable("stopping");
    peer.conn = conn.get();
  }
  Status st = RunSession(peer, *conn);
  {
    // Unpublish before the connection object dies: Stop() may Close()
    // through peer.conn while it is published, never after.
    std::lock_guard<std::mutex> lock(mu_);
    peer.streaming = false;
    peer.conn = nullptr;
  }
  acks_cv_.notify_all();
  return st;
}

Status ReplicationPrimary::RunSession(Peer& peer, TcpConnection& conn) {
  uint64_t durable;
  {
    std::lock_guard<std::mutex> lock(mu_);
    durable = local_durable_;
  }
  JsonValue hello = JsonValue::MakeObject();
  hello.Set("shard", JsonValue(source_.shard));
  hello.Set("epoch", JsonValue(source_.epoch));
  hello.Set("durable", JsonValue(durable));
  ADEPT_RETURN_IF_ERROR(conn.SendFrame(kMsgHello, hello.Dump()));

  ADEPT_ASSIGN_OR_RETURN(NetFrame status_frame,
                         conn.ReadFrame(options_.io_timeout_ms));
  if (status_frame.type == kMsgError) {
    // A fencing replica rejects the HELLO outright: it already belongs to
    // a newer epoch's lineage and refuses to let this (stale) primary
    // negotiate — which could otherwise snapshot-reset newer data away.
    auto body = JsonValue::Parse(status_frame.payload);
    if (body.ok() && body->Get("fenced").as_bool()) {
      return FenceSelf(peer,
                       static_cast<uint64_t>(body->Get("epoch").as_int()));
    }
    return Status::Unavailable("peer rejected the session: " +
                               (body.ok() ? body->Get("message").as_string()
                                          : status_frame.payload));
  }
  if (status_frame.type != kMsgStatus) {
    return Status::Corruption("expected STATUS, got frame type " +
                              std::to_string(status_frame.type));
  }
  ADEPT_ASSIGN_OR_RETURN(JsonValue status, JsonValue::Parse(
                                               status_frame.payload));
  const uint64_t replica_epoch =
      static_cast<uint64_t>(status.Get("epoch").as_int());
  const uint64_t replica_last =
      static_cast<uint64_t>(status.Get("last").as_int());
  peer.health.Touch();
  if (replica_epoch > source_.epoch) {
    // Belt over the replica's suspenders: even a replica that answered
    // STATUS (an older build, a race with its own epoch adoption) must
    // never be regressed by a stale lineage.
    return FenceSelf(peer, replica_epoch);
  }

  ADEPT_RETURN_IF_ERROR(
      NegotiateSession(peer, conn, replica_epoch, replica_last));
  {
    std::lock_guard<std::mutex> lock(mu_);
    peer.streaming = true;
  }
  acks_cv_.notify_all();

  // The streaming loop: stop-and-wait batches. Simplicity over pipeline
  // depth — a batch carries up to kMaxBatchFrames frames, so the ack
  // round trip amortizes well, and "resume from any acked prefix" falls
  // out of tracking nothing but acked_lsn. An idle stream degenerates to
  // HEARTBEAT/ACK ping-pong every heartbeat_interval_ms, which is what
  // keeps both sides' health trackers fed.
  auto last_probe = std::chrono::steady_clock::now();
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (stopping_) return Status::Unavailable("stopping");
    }
    ADEPT_ASSIGN_OR_RETURN(std::vector<WalFrame> frames,
                           CollectFrames(peer, conn));
    if (frames.empty()) {
      // Caught up (CollectFrames parked briefly): probe liveness when the
      // interval elapsed since the last successful round trip.
      const auto now = std::chrono::steady_clock::now();
      if (options_.heartbeat_interval_ms > 0 &&
          now - last_probe >=
              std::chrono::milliseconds(options_.heartbeat_interval_ms)) {
        ADEPT_RETURN_IF_ERROR(SendHeartbeat(peer, conn));
        last_probe = now;
      }
      continue;
    }
    ADEPT_RETURN_IF_ERROR(SendBatch(peer, conn, frames));
    last_probe = std::chrono::steady_clock::now();
  }
}

Status ReplicationPrimary::FenceSelf(const Peer& peer, uint64_t newer_epoch) {
  fenced_by_.store(newer_epoch, std::memory_order_release);
  fenced_.store(true, std::memory_order_release);
  ADEPT_LOG(kWarning) << "repl shard " << source_.shard << ": peer "
                      << peer.endpoint.host << ":" << peer.endpoint.port
                      << " carries epoch " << newer_epoch << " > ours ("
                      << source_.epoch
                      << "); this primary is fenced and stands down";
  // Quorum waiters must fail fast, not ride out their ack timeout.
  acks_cv_.notify_all();
  return FencedStatus(source_.shard, newer_epoch, source_.epoch);
}

Status ReplicationPrimary::NegotiateSession(Peer& peer, TcpConnection& conn,
                                            uint64_t replica_epoch,
                                            uint64_t replica_last) {
  uint64_t durable;
  {
    std::lock_guard<std::mutex> lock(mu_);
    durable = local_durable_;
  }
  // Divergence: a peer ahead of this primary's durable LSN holds records
  // that were never quorum-committed here (an old primary's unacked
  // suffix); a peer from another epoch with any history may hold records
  // a promotion rewrote. Both are discarded via snapshot reset.
  const bool diverged = replica_last > durable ||
                        (replica_epoch != source_.epoch && replica_last > 0);
  if (diverged) {
    ADEPT_LOG(kWarning) << "repl shard " << source_.shard << ": peer "
                        << peer.endpoint.host << ":" << peer.endpoint.port
                        << " diverged (epoch " << replica_epoch << " vs "
                        << source_.epoch << ", last " << replica_last
                        << " vs durable " << durable << "); snapshot reset";
    return SendSnapshotReset(peer, conn);
  }
  // Resumable iff the frames above replica_last still exist: in the tail
  // buffer, or in the WAL file (whose frames are contiguous — the gap
  // test is purely "does the file reach back far enough").
  bool resumable = replica_last == durable;
  if (!resumable) {
    std::lock_guard<std::mutex> lock(mu_);
    resumable = !tail_.empty() && tail_.front().lsn <= replica_last + 1;
  }
  if (!resumable) {
    ADEPT_ASSIGN_OR_RETURN(WalTail tail, WriteAheadLog::ReadTail(
                                             source_.wal_path, replica_last));
    resumable = tail.first_lsn != 0 && tail.first_lsn <= replica_last + 1;
  }
  if (!resumable) return SendSnapshotReset(peer, conn);

  JsonValue resume = JsonValue::MakeObject();
  resume.Set("epoch", JsonValue(source_.epoch));
  resume.Set("from", JsonValue(replica_last));
  ADEPT_RETURN_IF_ERROR(conn.SendFrame(kMsgResume, resume.Dump()));
  ADEPT_ASSIGN_OR_RETURN(NetFrame ack, conn.ReadFrame(options_.io_timeout_ms));
  if (ack.type != kMsgAck) {
    return Status::Corruption("expected ACK of RESUME");
  }
  peer.health.Touch();
  {
    std::lock_guard<std::mutex> lock(mu_);
    peer.acked_lsn = replica_last;
  }
  acks_cv_.notify_all();
  return Status::OK();
}

Status ReplicationPrimary::SendSnapshotReset(Peer& peer, TcpConnection& conn) {
  if (source_.snapshot_path.empty()) {
    return Status::FailedPrecondition(
        "peer needs a snapshot transfer but the shard has no snapshot path");
  }
  if (source_.checkpoint) {
    // A fresh checkpoint guarantees the blob covers every LSN the peer is
    // missing; the WAL is truncated to the frames above it.
    ADEPT_RETURN_IF_ERROR(source_.checkpoint());
  }
  ADEPT_ASSIGN_OR_RETURN(std::string blob,
                         ReadFileToString(source_.snapshot_path));
  ADEPT_ASSIGN_OR_RETURN(JsonValue snapshot, JsonValue::Parse(blob));
  const uint64_t cover =
      static_cast<uint64_t>(snapshot.Get("wal_lsn").as_int());

  JsonValue msg = JsonValue::MakeObject();
  msg.Set("epoch", JsonValue(source_.epoch));
  msg.Set("cover", JsonValue(cover));
  msg.Set("blob", JsonValue(std::move(blob)));
  ADEPT_RETURN_IF_ERROR(conn.SendFrame(kMsgSnapshot, msg.Dump()));
  ADEPT_ASSIGN_OR_RETURN(NetFrame ack, conn.ReadFrame(options_.io_timeout_ms));
  if (ack.type != kMsgAck) {
    return Status::Corruption("expected ACK of SNAPSHOT");
  }
  ADEPT_ASSIGN_OR_RETURN(JsonValue body, JsonValue::Parse(ack.payload));
  if (static_cast<uint64_t>(body.Get("last").as_int()) != cover) {
    return Status::Corruption("replica acked a different snapshot coverage");
  }
  peer.health.Touch();
  {
    std::lock_guard<std::mutex> lock(mu_);
    peer.acked_lsn = cover;
  }
  acks_cv_.notify_all();
  return Status::OK();
}

Result<std::vector<WalFrame>> ReplicationPrimary::CollectFrames(
    Peer& peer, TcpConnection& conn) {
  uint64_t acked, durable;
  std::vector<WalFrame> frames;
  {
    std::unique_lock<std::mutex> lock(mu_);
    acked = peer.acked_lsn;
    durable = local_durable_;
    if (acked >= durable) {
      // Caught up; park until the next durable batch (or stop/backoff) —
      // but never longer than the heartbeat interval, so the idle-stream
      // liveness probe in RunSession fires on schedule.
      int park_ms = 200;
      if (options_.heartbeat_interval_ms > 0) {
        park_ms = std::min(park_ms, options_.heartbeat_interval_ms);
      }
      frames_cv_.wait_for(lock, std::chrono::milliseconds(park_ms));
      return frames;
    }
    if (!tail_.empty() && tail_.front().lsn <= acked + 1) {
      for (const WalFrame& frame : tail_) {
        if (frame.lsn <= acked) continue;
        if (frames.size() >= kMaxBatchFrames) break;
        frames.push_back(frame);
      }
      return frames;
    }
  }
  // The buffer no longer reaches back to the peer's ack point: a cold
  // rejoin or a peer that slipped behind the bounded tail. Read from the
  // file instead — and if a checkpoint truncated the needed frames away,
  // reset via snapshot.
  ADEPT_ASSIGN_OR_RETURN(WalTail tail,
                         WriteAheadLog::ReadTail(source_.wal_path, acked));
  const bool gap = tail.first_lsn == 0 || tail.first_lsn > acked + 1;
  if (gap) {
    ADEPT_RETURN_IF_ERROR(SendSnapshotReset(peer, conn));
    return frames;  // empty; the next iteration streams from the new base
  }
  for (WalFrame& frame : tail.frames) {
    // Never ship beyond the durable point: the file may briefly contain
    // written-but-unsynced frames, and a replica must not get ahead of
    // what the primary acknowledges as durable.
    if (frame.lsn > durable) break;
    if (frames.size() >= kMaxBatchFrames) break;
    frames.push_back(std::move(frame));
  }
  return frames;
}

Status ReplicationPrimary::SendBatch(Peer& peer, TcpConnection& conn,
                                     const std::vector<WalFrame>& frames) {
  JsonValue list = JsonValue::MakeArray();
  for (const WalFrame& frame : frames) {
    JsonValue f = JsonValue::MakeObject();
    f.Set("l", JsonValue(frame.lsn));
    f.Set("p", JsonValue(frame.payload));
    list.Append(std::move(f));
  }
  JsonValue msg = JsonValue::MakeObject();
  msg.Set("first", JsonValue(frames.front().lsn));
  msg.Set("frames", std::move(list));
  ADEPT_RETURN_IF_ERROR(conn.SendFrame(kMsgBatch, msg.Dump()));

  ADEPT_ASSIGN_OR_RETURN(NetFrame ack, conn.ReadFrame(options_.io_timeout_ms));
  if (ack.type != kMsgAck) {
    return Status::Corruption("expected ACK of BATCH");
  }
  ADEPT_ASSIGN_OR_RETURN(JsonValue body, JsonValue::Parse(ack.payload));
  const uint64_t last = static_cast<uint64_t>(body.Get("last").as_int());
  if (last < frames.back().lsn) {
    return Status::Corruption(
        StrFormat("replica acked LSN %llu for a batch ending at %llu",
                  static_cast<unsigned long long>(last),
                  static_cast<unsigned long long>(frames.back().lsn)));
  }
  peer.health.Touch();
  {
    std::lock_guard<std::mutex> lock(mu_);
    peer.acked_lsn = last;
  }
  acks_cv_.notify_all();
  return Status::OK();
}

Status ReplicationPrimary::SendHeartbeat(Peer& peer, TcpConnection& conn) {
  uint64_t durable;
  {
    std::lock_guard<std::mutex> lock(mu_);
    durable = local_durable_;
  }
  JsonValue msg = JsonValue::MakeObject();
  msg.Set("epoch", JsonValue(source_.epoch));
  msg.Set("durable", JsonValue(durable));
  ADEPT_RETURN_IF_ERROR(conn.SendFrame(kMsgHeartbeat, msg.Dump()));
  ADEPT_ASSIGN_OR_RETURN(NetFrame ack, conn.ReadFrame(options_.io_timeout_ms));
  if (ack.type != kMsgAck) {
    return Status::Corruption("expected ACK of HEARTBEAT");
  }
  peer.health.Touch();
  acks_cv_.notify_all();
  return Status::OK();
}

}  // namespace adept
