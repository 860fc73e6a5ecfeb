#include "common/fs_util.h"

#include <cstdio>
#include <filesystem>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace adept {

Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  std::string content;
  char buffer[1 << 16];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    content.append(buffer, n);
  }
  std::fclose(f);
  return content;
}

Status WriteFileAtomic(const std::string& path, const std::string& content) {
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::Corruption("cannot open " + tmp);
  bool ok = std::fwrite(content.data(), 1, content.size(), f) == content.size();
  // Push the data to disk before the rename: a power loss that journals
  // the rename but not the data blocks would otherwise replace the old
  // file with a torn one — worse than either version.
  ok = ok && std::fflush(f) == 0;
#if defined(__unix__) || defined(__APPLE__)
  ok = ok && fsync(fileno(f)) == 0;
#endif
  ok = std::fclose(f) == 0 && ok;
  if (!ok) return Status::Corruption("short write to " + tmp);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return Status::Corruption("rename failed: " + ec.message());
#if defined(__unix__) || defined(__APPLE__)
  // The rename is durable only once its directory is. A checkpoint
  // truncates the WAL right after this returns, so a power loss that kept
  // the truncation but lost the rename would recover the old snapshot
  // without the records that the new one covered.
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const int fd = open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::Corruption("cannot open the directory of " + path);
  const bool synced = fsync(fd) == 0;
  close(fd);
  if (!synced) {
    return Status::Corruption("cannot sync the directory of " + path);
  }
#endif
  return Status::OK();
}

}  // namespace adept
