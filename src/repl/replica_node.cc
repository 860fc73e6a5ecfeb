#include "repl/replica_node.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "cluster/shard_routing.h"
#include "common/fs_util.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "repl/replication.h"

namespace adept {

namespace {

// Best-effort ERROR frame so the primary's log names the real cause
// instead of a bare connection reset.
void SendError(TcpConnection* conn, const Status& status) {
  JsonValue body = JsonValue::MakeObject();
  body.Set("message", JsonValue(status.ToString()));
  (void)conn->SendFrame(kMsgError, body.Dump());
}

}  // namespace

Result<std::unique_ptr<ReplicationReplica>> ReplicationReplica::Start(
    const ReplicaNodeOptions& options) {
  if (options.wal_path.empty()) {
    return Status::InvalidArgument("replica node needs a WAL base path");
  }
  auto node =
      std::unique_ptr<ReplicationReplica>(new ReplicationReplica(options));
  // A fresh replica reports epoch 0 (accepts any primary's lineage); a
  // node restarting over an existing file set resumes its persisted epoch
  // so a stale lineage is detected by the next primary it talks to.
  auto meta = ReadFileToString(ReplicationEpochPath(options.wal_path));
  if (meta.ok()) {
    ADEPT_ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(*meta));
    node->epoch_ = static_cast<uint64_t>(json.Get("epoch").as_int());
  } else if (meta.status().code() != StatusCode::kNotFound) {
    return meta.status();
  }
  ADEPT_ASSIGN_OR_RETURN(node->listener_, TcpListener::Bind(options.listen));
  node->listener_->set_fault_injector(options.fault_injector);
  node->accept_thread_ = std::thread([n = node.get()] { n->AcceptLoop(); });
  return node;
}

ReplicationReplica::ReplicationReplica(const ReplicaNodeOptions& options)
    : options_(options) {}

ReplicationReplica::~ReplicationReplica() { Stop(); }

void ReplicationReplica::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  if (listener_ != nullptr) listener_->Close();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::unique_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions.swap(sessions_);
    for (auto& session : sessions) session->conn->Close();
  }
  for (auto& session : sessions) {
    if (session->thread.joinable()) session->thread.join();
  }
}

uint16_t ReplicationReplica::port() const {
  return listener_ != nullptr ? listener_->port() : 0;
}

uint64_t ReplicationReplica::ShardLastLsn(uint64_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = shards_.find(shard);
  if (it == shards_.end()) return 0;
  std::lock_guard<std::mutex> shard_lock(it->second->mu);
  return it->second->last_lsn;
}

uint64_t ReplicationReplica::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

Status ReplicationReplica::PersistEpoch(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch == epoch_) return Status::OK();
  ADEPT_RETURN_IF_ERROR(WriteReplicationEpoch(options_.wal_path, epoch));
  epoch_ = epoch;
  return Status::OK();
}

void ReplicationReplica::AcceptLoop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
    }
    auto accepted = listener_->Accept(200);
    if (!accepted.ok()) {
      // Timeout (poll tick) or a closed listener; the loop head re-checks.
      continue;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;  // the connection is dropped on the floor
    auto session = std::make_unique<Session>();
    session->conn = std::move(*accepted);
    session->conn->set_write_timeout_ms(options_.io_timeout_ms);
    TcpConnection* conn = session->conn.get();
    session->thread = std::thread([this, conn] { SessionLoop(conn); });
    sessions_.push_back(std::move(session));
  }
}

ReplicationReplica::ShardState* ReplicationReplica::GetShard(uint64_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = shards_.find(shard);
  if (it != shards_.end()) return it->second.get();

  auto state = std::make_unique<ShardState>();
  const std::string wal_path = ShardRouting::PathFor(options_.wal_path, shard);
  auto wal = WriteAheadLog::Open(wal_path);
  if (!wal.ok()) {
    ADEPT_LOG(kWarning) << "replica: cannot open shard WAL '" << wal_path
                        << "': " << wal.status();
    return nullptr;
  }
  state->wal = std::move(*wal);
  state->last_lsn = state->wal->last_lsn();
  // A shard whose WAL was reset by a snapshot install resumes from the
  // snapshot's covered LSN, not from the (empty) log.
  if (!options_.snapshot_path.empty()) {
    auto blob = ReadFileToString(
        ShardRouting::PathFor(options_.snapshot_path, shard));
    if (blob.ok()) {
      auto json = JsonValue::Parse(*blob);
      if (json.ok()) {
        state->last_lsn = std::max(
            state->last_lsn,
            static_cast<uint64_t>(json->Get("wal_lsn").as_int()));
      }
    }
  }
  ShardState* raw = state.get();
  shards_[shard] = std::move(state);
  return raw;
}

Status ReplicationReplica::HandleBatch(ShardState& state,
                                       const JsonValue& body,
                                       uint64_t* acked) {
  std::lock_guard<std::mutex> lock(state.mu);
  for (const JsonValue& frame : body.Get("frames").as_array()) {
    const uint64_t lsn = static_cast<uint64_t>(frame.Get("l").as_int());
    if (lsn != state.last_lsn + 1) {
      return Status::FailedPrecondition(
          StrFormat("non-contiguous batch: got LSN %llu, expected %llu",
                    static_cast<unsigned long long>(lsn),
                    static_cast<unsigned long long>(state.last_lsn + 1)));
    }
    ADEPT_RETURN_IF_ERROR(
        state.wal->AppendFrame(lsn, frame.Get("p").as_string()));
    state.last_lsn = lsn;
  }
  // One sync per batch: the ack means "durable here per options_.sync".
  ADEPT_RETURN_IF_ERROR(state.wal->Sync(options_.sync));
  *acked = state.last_lsn;
  return Status::OK();
}

Status ReplicationReplica::HandleSnapshot(uint64_t shard, ShardState& state,
                                          const JsonValue& body,
                                          uint64_t* acked) {
  const uint64_t cover = static_cast<uint64_t>(body.Get("cover").as_int());
  const std::string& blob = body.Get("blob").as_string();
  {
    std::lock_guard<std::mutex> lock(state.mu);
    // Full reset: whatever history this shard held (possibly a divergent
    // suffix from a dead primary) is discarded wholesale — the snapshot
    // is the new truth, streaming resumes above its covered LSN. The WAL
    // file is deleted (not Truncate()d) so its internal LSN floor drops:
    // the incoming frames start at cover+1, which may be *below* the old
    // divergent tail.
    state.wal.reset();
    const std::string wal_path =
        ShardRouting::PathFor(options_.wal_path, shard);
    std::error_code ec;
    std::filesystem::remove(wal_path, ec);
    if (ec) {
      return Status::Corruption("cannot reset shard WAL '" + wal_path +
                                "': " + ec.message());
    }
    ADEPT_ASSIGN_OR_RETURN(state.wal, WriteAheadLog::Open(wal_path));
    if (!options_.snapshot_path.empty()) {
      ADEPT_RETURN_IF_ERROR(WriteFileAtomic(
          ShardRouting::PathFor(options_.snapshot_path, shard), blob));
    } else {
      return Status::FailedPrecondition(
          "snapshot transfer but this replica has no snapshot path");
    }
    state.last_lsn = cover;
  }
  ADEPT_RETURN_IF_ERROR(
      PersistEpoch(static_cast<uint64_t>(body.Get("epoch").as_int())));
  *acked = cover;
  return Status::OK();
}

void ReplicationReplica::SessionLoop(TcpConnection* conn) {
  ShardState* state = nullptr;
  uint64_t shard = 0;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
    }
    if (conn->closed()) return;
    auto frame = conn->ReadFrame(200);
    if (!frame.ok()) {
      if (frame.status().code() == StatusCode::kCorruption) {
        // Torn/garbled frame: the stream position is unrecoverable. Kill
        // the session; the primary reconnects and resumes from the ack.
        conn->Close();
        return;
      }
      continue;  // poll tick (timeout); loop head re-checks stop/closed
    }

    primary_health_.Touch();  // any well-formed frame proves liveness
    Status st;
    switch (frame->type) {
      case kMsgHello: {
        auto body = JsonValue::Parse(frame->payload);
        if (!body.ok()) {
          st = body.status();
          break;
        }
        const uint64_t hello_epoch =
            static_cast<uint64_t>(body->Get("epoch").as_int());
        const uint64_t own_epoch = epoch();
        if (hello_epoch < own_epoch) {
          // Fencing: this node already belongs to a newer lineage. A
          // stale primary must be rejected *here*, before negotiation —
          // letting it proceed would end with it snapshot-resetting this
          // node's newer data with its own pre-failover state.
          ADEPT_LOG(kWarning)
              << "replica: fencing stale primary (hello epoch "
              << hello_epoch << " < ours " << own_epoch << ")";
          JsonValue err = JsonValue::MakeObject();
          err.Set("message",
                  JsonValue(StrFormat(
                      "stale epoch %llu rejected; this replica is at %llu",
                      static_cast<unsigned long long>(hello_epoch),
                      static_cast<unsigned long long>(own_epoch))));
          err.Set("fenced", JsonValue(true));
          err.Set("epoch", JsonValue(own_epoch));
          (void)conn->SendFrame(kMsgError, err.Dump());
          conn->Close();
          return;
        }
        shard = static_cast<uint64_t>(body->Get("shard").as_int());
        state = GetShard(shard);
        if (state == nullptr) {
          st = Status::Corruption("replica cannot open shard state");
          break;
        }
        JsonValue reply = JsonValue::MakeObject();
        reply.Set("epoch", JsonValue(own_epoch));
        uint64_t last;
        {
          std::lock_guard<std::mutex> lock(state->mu);
          last = state->last_lsn;
        }
        reply.Set("last", JsonValue(last));
        st = conn->SendFrame(kMsgStatus, reply.Dump());
        break;
      }
      case kMsgHeartbeat: {
        if (state == nullptr) {
          st = Status::FailedPrecondition("HEARTBEAT before HELLO");
          break;
        }
        uint64_t last;
        {
          std::lock_guard<std::mutex> lock(state->mu);
          last = state->last_lsn;
        }
        JsonValue ack = JsonValue::MakeObject();
        ack.Set("last", JsonValue(last));
        st = conn->SendFrame(kMsgAck, ack.Dump());
        break;
      }
      case kMsgResume: {
        if (state == nullptr) {
          st = Status::FailedPrecondition("RESUME before HELLO");
          break;
        }
        auto body = JsonValue::Parse(frame->payload);
        if (!body.ok()) {
          st = body.status();
          break;
        }
        const uint64_t from =
            static_cast<uint64_t>(body->Get("from").as_int());
        uint64_t last;
        {
          std::lock_guard<std::mutex> lock(state->mu);
          last = state->last_lsn;
        }
        if (from != last) {
          // A crossed session (another primary advanced this shard since
          // our STATUS). The re-handshake sorts it out.
          st = Status::FailedPrecondition(
              StrFormat("cannot resume from %llu, shard is at %llu",
                        static_cast<unsigned long long>(from),
                        static_cast<unsigned long long>(last)));
          break;
        }
        st = PersistEpoch(static_cast<uint64_t>(body->Get("epoch").as_int()));
        if (!st.ok()) break;
        JsonValue ack = JsonValue::MakeObject();
        ack.Set("last", JsonValue(last));
        st = conn->SendFrame(kMsgAck, ack.Dump());
        break;
      }
      case kMsgSnapshot: {
        if (state == nullptr) {
          st = Status::FailedPrecondition("SNAPSHOT before HELLO");
          break;
        }
        auto body = JsonValue::Parse(frame->payload);
        if (!body.ok()) {
          st = body.status();
          break;
        }
        uint64_t acked = 0;
        st = HandleSnapshot(shard, *state, *body, &acked);
        if (!st.ok()) break;
        JsonValue ack = JsonValue::MakeObject();
        ack.Set("last", JsonValue(acked));
        st = conn->SendFrame(kMsgAck, ack.Dump());
        break;
      }
      case kMsgBatch: {
        if (state == nullptr) {
          st = Status::FailedPrecondition("BATCH before HELLO");
          break;
        }
        auto body = JsonValue::Parse(frame->payload);
        if (!body.ok()) {
          st = body.status();
          break;
        }
        uint64_t acked = 0;
        st = HandleBatch(*state, *body, &acked);
        if (!st.ok()) break;
        JsonValue ack = JsonValue::MakeObject();
        ack.Set("last", JsonValue(acked));
        st = conn->SendFrame(kMsgAck, ack.Dump());
        break;
      }
      case kMsgError:
        // The peer already gave up on this session.
        conn->Close();
        return;
      default:
        st = Status::InvalidArgument("unexpected frame type " +
                                     std::to_string(frame->type));
        break;
    }
    if (!st.ok()) {
      ADEPT_LOG(kWarning) << "replica session (shard " << shard
                          << ") ended: " << st;
      SendError(conn, st);
      conn->Close();
      return;
    }
  }
}

}  // namespace adept
