#include "util/file.hpp"

#include <cstdio>
#include <utility>

namespace daos {

std::optional<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string out;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;)
    out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok ? std::optional<std::string>(std::move(out)) : std::nullopt;
}

bool WriteFile(const std::string& path, std::string_view bytes,
               std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok && error != nullptr) *error = "short write to " + path;
  return ok;
}

}  // namespace daos
