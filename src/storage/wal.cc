#include "storage/wal.h"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <string_view>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/logging.h"
#include "common/string_util.h"

namespace adept {

namespace {

// A frame header field (LSN or payload length) may carry at most this many
// digits: 19 digits fit every value below 10^19 in a uint64_t without
// wrapping, so a forged header with a longer digit run is rejected before
// the accumulator can overflow.
constexpr size_t kMaxHeaderDigits = 19;

// Upper bound on a single payload; anything larger is a forged header.
constexpr uint64_t kMaxPayloadBytes = uint64_t{1} << 30;

// Parses the decimal run content[begin, end) into `out`. Rejects empty
// runs, non-digits, and runs long enough to overflow (see above).
bool ParseHeaderField(const std::string& content, size_t begin, size_t end,
                      uint64_t* out) {
  if (begin >= end || end - begin > kMaxHeaderDigits) return false;
  uint64_t value = 0;
  for (size_t i = begin; i < end; ++i) {
    char c = content[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

// The one frame walker: hands every complete "<lsn>:<length>:<payload>\n"
// frame, in order, to `visit(lsn, payload, offset)` and stops at the first
// damaged frame (truncated or forged header, missing terminator, LSN not
// above its predecessor) or when `visit` returns false. Returns the offset
// of the frame it stopped at: one past the last accepted frame, so bytes
// beyond it are a damaged (crash-truncated or corrupt) tail. All bounds
// checks subtract from content.size() rather than adding to the parsed
// fields, so a forged header can never wrap the comparison.
template <typename Visit>
size_t WalkFrames(const std::string& content, Visit&& visit) {
  uint64_t previous_lsn = 0;
  size_t pos = 0;
  while (pos < content.size()) {
    size_t lsn_end = content.find(':', pos);
    if (lsn_end == std::string::npos) break;  // truncated header
    uint64_t lsn = 0;
    if (!ParseHeaderField(content, pos, lsn_end, &lsn) ||
        lsn <= previous_lsn) {
      ADEPT_LOG(kWarning) << "WAL: damaged frame header at offset " << pos
                          << "; truncating";
      break;
    }
    size_t length_end = content.find(':', lsn_end + 1);
    if (length_end == std::string::npos) break;  // truncated header
    uint64_t length = 0;
    if (!ParseHeaderField(content, lsn_end + 1, length_end, &length) ||
        length > kMaxPayloadBytes) {
      ADEPT_LOG(kWarning) << "WAL: damaged frame header at offset " << pos
                          << "; truncating";
      break;
    }
    size_t payload_start = length_end + 1;
    // payload_start <= content.size() because length_end < content.size().
    size_t remaining = content.size() - payload_start;
    if (length >= remaining) break;  // truncated tail (payload + '\n')
    if (content[payload_start + static_cast<size_t>(length)] != '\n') {
      ADEPT_LOG(kWarning) << "WAL: missing frame terminator at offset " << pos
                          << "; truncating";
      break;
    }
    if (!visit(lsn,
               std::string_view(content).substr(payload_start,
                                                static_cast<size_t>(length)),
               pos)) {
      break;
    }
    previous_lsn = lsn;
    pos = payload_start + static_cast<size_t>(length) + 1;
  }
  return pos;
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    // Only a genuinely absent log is "no records"; EACCES/EMFILE/EISDIR
    // must not make recovery silently come up empty.
    if (errno == ENOENT) return Status::NotFound("no WAL at " + path);
    return Status::Corruption(StrFormat("cannot open WAL '%s': %s",
                                        path.c_str(), std::strerror(errno)));
  }
  std::string content;
  char buffer[1 << 16];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    content.append(buffer, n);
  }
  // A transient read error must not masquerade as a short log: Open()
  // would otherwise "repair" (truncate) away frames it simply failed to
  // read.
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    return Status::Corruption(
        StrFormat("read error while scanning WAL '%s'", path.c_str()));
  }
  return content;
}

Status DeadHandle(const std::string& path) {
  return Status::Corruption(
      StrFormat("WAL '%s' handle is dead after an earlier I/O failure; "
                "Truncate() can revive it",
                path.c_str()));
}

std::atomic<uint64_t> g_scan_count{0};

}  // namespace

const char* SyncModeToString(SyncMode mode) {
  switch (mode) {
    case SyncMode::kNone:
      return "none";
    case SyncMode::kFlush:
      return "flush";
    case SyncMode::kFsync:
      return "fsync";
  }
  return "unknown";
}

Result<WalScan> WriteAheadLog::Scan(const std::string& path) {
  g_scan_count.fetch_add(1, std::memory_order_relaxed);
  WalScan scan;
  auto content = ReadWholeFile(path);
  if (!content.ok()) {
    if (content.status().code() == StatusCode::kNotFound) return scan;
    return content.status();  // unreadable is not the same as absent
  }
  scan.exists = true;
  scan.total_bytes = content->size();
  // Scan stops at the first unparsable payload too: replay needs records.
  scan.valid_bytes = WalkFrames(
      *content, [&](uint64_t lsn, std::string_view payload, size_t pos) {
        auto parsed = JsonValue::Parse(std::string(payload));
        if (!parsed.ok()) {
          ADEPT_LOG(kWarning) << "WAL: unparsable record at offset " << pos
                              << "; truncating";
          return false;
        }
        scan.records.push_back({lsn, std::move(parsed).value()});
        scan.last_lsn = lsn;
        return true;
      });
  return scan;
}

uint64_t WriteAheadLog::scan_count() {
  return g_scan_count.load(std::memory_order_relaxed);
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path) {
  ADEPT_ASSIGN_OR_RETURN(WalScan scan, Scan(path));
  return OpenScanned(path, scan);
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::OpenScanned(
    const std::string& path, const WalScan& scan) {
  if (scan.exists && scan.valid_bytes < scan.total_bytes) {
    // Appending after a damaged tail would hide the new frames from every
    // reader; chop the tail back to the last complete frame first.
    ADEPT_LOG(kWarning) << "WAL '" << path << "': discarding "
                        << scan.total_bytes - scan.valid_bytes
                        << " damaged tail bytes";
    std::error_code ec;
    std::filesystem::resize_file(path, scan.valid_bytes, ec);
    if (ec) {
      return Status::Corruption(
          StrFormat("cannot repair damaged WAL tail of '%s': %s", path.c_str(),
                    ec.message().c_str()));
    }
  }
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return Status::Corruption(StrFormat("cannot open WAL '%s': %s",
                                        path.c_str(), std::strerror(errno)));
  }
  return std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(path, file, scan.last_lsn));
}

WriteAheadLog::~WriteAheadLog() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<uint64_t> WriteAheadLog::Append(const JsonValue& record) {
  const uint64_t lsn = last_lsn_ + 1;
  ADEPT_RETURN_IF_ERROR(AppendFrame(lsn, record.Dump()));
  return lsn;
}

Status WriteAheadLog::AppendFrame(uint64_t lsn, const std::string& payload) {
  if (file_ == nullptr) return DeadHandle(path_);
  if (lsn <= last_lsn_) {
    return Status::InvalidArgument(
        StrFormat("non-monotonic WAL LSN %llu (last is %llu)",
                  static_cast<unsigned long long>(lsn),
                  static_cast<unsigned long long>(last_lsn_)));
  }
  std::string framed =
      StrFormat("%llu:%zu:", static_cast<unsigned long long>(lsn),
                payload.size()) +
      payload + "\n";
  if (std::fwrite(framed.data(), 1, framed.size(), file_) != framed.size()) {
    // A half-written frame poisons the tail: kill the handle so later
    // appends fail loudly instead of writing unreachable records.
    std::fclose(file_);
    file_ = nullptr;
    return Status::Corruption("WAL write failed");
  }
  last_lsn_ = lsn;
  ++records_written_;
  return Status::OK();
}

Status WriteAheadLog::Sync(SyncMode mode) {
  if (file_ == nullptr) return DeadHandle(path_);
  if (mode == SyncMode::kNone) return Status::OK();
  if (std::fflush(file_) != 0) {
    std::fclose(file_);
    file_ = nullptr;
    return Status::Corruption("WAL flush failed");
  }
  if (mode == SyncMode::kFsync) {
#if defined(__unix__) || defined(__APPLE__)
    if (fsync(fileno(file_)) != 0) {
      std::fclose(file_);
      file_ = nullptr;
      return Status::Corruption(
          StrFormat("WAL fsync failed: %s", std::strerror(errno)));
    }
#else
    // Refuse rather than silently degrade to kFlush: callers were promised
    // power-failure durability.
    return Status::Unimplemented("fsync is not supported on this platform");
#endif
  }
  return Status::OK();
}

Status WriteAheadLog::Truncate() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) {
    // The handle stays dead; Append/Sync report kCorruption instead of
    // crashing on the null FILE*, and a later Truncate() may still revive.
    return Status::Corruption(
        StrFormat("cannot reopen WAL '%s' for truncation: %s", path_.c_str(),
                  std::strerror(errno)));
  }
  records_written_ = 0;
  // last_lsn_ survives on purpose; see header comment.
  return Status::OK();
}

Result<WalTail> WriteAheadLog::ReadTail(const std::string& path,
                                        uint64_t after_lsn) {
  WalTail tail;
  auto content = ReadWholeFile(path);
  if (!content.ok()) {
    if (content.status().code() == StatusCode::kNotFound) return tail;
    return content.status();
  }
  tail.exists = true;
  // The payload stays raw bytes: the replication layer ships (and the
  // replica re-appends) the exact frame the primary persisted, so
  // checksums and replay see identical input.
  WalkFrames(*content, [&](uint64_t lsn, std::string_view payload, size_t) {
    if (tail.first_lsn == 0) tail.first_lsn = lsn;
    tail.last_lsn = lsn;
    if (lsn > after_lsn) tail.frames.push_back({lsn, std::string(payload)});
    return true;
  });
  return tail;
}

Result<std::vector<WalRecord>> WriteAheadLog::ReadRecords(
    const std::string& path) {
  ADEPT_ASSIGN_OR_RETURN(WalScan scan, Scan(path));
  return std::move(scan.records);
}

Result<std::vector<JsonValue>> WriteAheadLog::ReadAll(
    const std::string& path) {
  ADEPT_ASSIGN_OR_RETURN(std::vector<WalRecord> records, ReadRecords(path));
  std::vector<JsonValue> values;
  values.reserve(records.size());
  for (WalRecord& record : records) values.push_back(std::move(record.value));
  return values;
}

}  // namespace adept
