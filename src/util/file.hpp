// Whole-file reads and writes, shared by the record, trace, checkpoint and
// trajectory files.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace daos {

/// The bytes of `path`; nullopt when it cannot be opened or read.
std::optional<std::string> ReadFile(const std::string& path);

/// Replaces the contents of `path` with `bytes`. On failure returns false
/// and sets `*error`, when non-null, to "cannot open <path> for writing"
/// or "short write to <path>".
bool WriteFile(const std::string& path, std::string_view bytes,
               std::string* error = nullptr);

}  // namespace daos
