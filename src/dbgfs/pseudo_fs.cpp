#include "dbgfs/pseudo_fs.hpp"

#include "util/strings.hpp"

namespace daos::dbgfs {

void PseudoFs::RegisterFile(std::string path, FileReader reader,
                            FileWriter writer) {
  files_[std::move(path)] = Node{std::move(reader), std::move(writer)};
}

void PseudoFs::RemoveFile(const std::string& path) { files_.erase(path); }

bool PseudoFs::Exists(const std::string& path) const {
  return files_.count(path) > 0;
}

std::vector<std::string> PseudoFs::List(std::string_view prefix) const {
  std::vector<std::string> out;
  for (const auto& [path, node] : files_) {
    if (StartsWith(path, prefix)) out.push_back(path);
  }
  return out;
}

std::optional<std::string> PseudoFs::Read(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end() || !it->second.reader) return std::nullopt;
  return it->second.reader();
}

bool PseudoFs::Write(const std::string& path, std::string_view content,
                     std::string* error) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    if (error != nullptr) *error = "no such file: " + path;
    return false;
  }
  if (!it->second.writer) {
    if (error != nullptr) *error = "read-only file: " + path;
    return false;
  }
  return it->second.writer(content, error);
}

Mount::~Mount() {
  for (const std::string& path : paths_) fs_->RemoveFile(path);
}

Mount::Mount(Mount&& other) noexcept
    : fs_(other.fs_),
      dir_(std::move(other.dir_)),
      paths_(std::exchange(other.paths_, {})) {}

void Mount::File(const std::string& name, FileReader reader,
                 FileWriter writer) {
  paths_.push_back(dir_ + "/" + name);
  fs_->RegisterFile(paths_.back(), std::move(reader), std::move(writer));
}

std::optional<std::string> Mount::Read(const std::string& name) const {
  return fs_->Read(dir_ + "/" + name);
}

}  // namespace daos::dbgfs
