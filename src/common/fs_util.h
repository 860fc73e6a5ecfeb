// Small filesystem helpers shared by the durability layers (snapshots,
// org-model persistence): whole-file reads and atomic replace-on-write.

#ifndef ADEPT_COMMON_FS_UTIL_H_
#define ADEPT_COMMON_FS_UTIL_H_

#include <string>

#include "common/status.h"

namespace adept {

// Reads the whole file into a string. kNotFound when it cannot be opened.
Result<std::string> ReadFileToString(const std::string& path);

// Writes `content` to "<path>.tmp" and atomically renames it over `path`,
// so readers observe either the old or the new file, never a torn one. On
// POSIX the data and then the directory are synced, so the new file is
// durable when this returns.
Status WriteFileAtomic(const std::string& path, const std::string& content);

}  // namespace adept

#endif  // ADEPT_COMMON_FS_UTIL_H_
