// A tiny pseudo-filesystem: string paths bound to read/write handlers.
//
// The paper's user-space interface (§3.6) is the Linux debugfs: the
// Auto-tuning Runtime configures the kernel-side Memory Schemes Engine by
// *writing strings to files* and reads results back the same way. This
// class reproduces that interaction model so the user-space side of DAOS
// can be exercised exactly as the paper's bash/python scripts exercise the
// kernel.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace daos::dbgfs {

/// Produces the file's current content.
using FileReader = std::function<std::string()>;
/// Consumes a write; returns false and fills `error` on invalid input
/// (the debugfs convention of failing the write() syscall).
using FileWriter =
    std::function<bool(std::string_view content, std::string* error)>;

class PseudoFs {
 public:
  /// Registers a file. A null reader makes the file write-only; a null
  /// writer makes it read-only.
  void RegisterFile(std::string path, FileReader reader, FileWriter writer);
  void RemoveFile(const std::string& path);

  /// Exists and List are the filesystem's stat and ls. Only tests call
  /// them, to check which paths a view's Mount registers and removes; a
  /// write-only file cannot be probed through Read.
  bool Exists(const std::string& path) const;
  /// Lists registered paths under a prefix (lexicographic order).
  std::vector<std::string> List(std::string_view prefix = "") const;

  /// Reads the whole file; nullopt if absent or write-only.
  std::optional<std::string> Read(const std::string& path) const;

  /// Writes the whole file; false if absent, read-only, or the handler
  /// rejected the content. `error`, when non-null, explains rejections.
  bool Write(const std::string& path, std::string_view content,
             std::string* error = nullptr);

 private:
  struct Node {
    FileReader reader;
    FileWriter writer;
  };
  std::map<std::string, Node> files_;
};

/// The files one view registers under its fixed directory. Destroying the
/// mount removes exactly the paths it registered, so a view never lists
/// its paths twice. Move-only; a moved-from mount removes nothing.
class Mount {
 public:
  /// `fs` must outlive the mount.
  Mount(PseudoFs* fs, std::string dir) : fs_(fs), dir_(std::move(dir)) {}
  ~Mount();

  Mount(Mount&& other) noexcept;
  Mount(const Mount&) = delete;
  Mount& operator=(const Mount&) = delete;

  /// Registers `<dir>/<name>` (see PseudoFs::RegisterFile).
  void File(const std::string& name, FileReader reader, FileWriter writer);
  /// Reads `<dir>/<name>` (see PseudoFs::Read).
  std::optional<std::string> Read(const std::string& name) const;

 private:
  PseudoFs* fs_;
  std::string dir_;
  std::vector<std::string> paths_;
};

}  // namespace daos::dbgfs
