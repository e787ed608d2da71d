#include "dbgfs/chaos_fs.hpp"

#include <vector>

#include "util/strings.hpp"

namespace daos::dbgfs {

ChaosFs::ChaosFs(PseudoFs* fs, chaos::ChaosEngine* engine, std::string root)
    : fs_(fs),
      status_path_(root + "/status"),
      repro_path_(root + "/last_repro") {
  fs_->RegisterFile(
      status_path_, [engine] { return engine->StatusText(); },
      [engine](std::string_view content, std::string* error) {
        const std::vector<std::string_view> tokens =
            SplitWhitespace(TrimWhitespace(content));
        if (tokens.size() == 2 && tokens[0] == "run") {
          const auto count = ParseU64(tokens[1]);
          if (count && *count >= 1 && *count <= 1024) {
            engine->RunNext(static_cast<std::size_t>(*count));
            return true;
          }
        }
        if (error != nullptr) *error = "expected 'run <1..1024>'";
        return false;
      });
  fs_->RegisterFile(
      repro_path_,
      [engine] {
        return engine->last_repro().empty() ? std::string("none\n")
                                            : engine->last_repro() + "\n";
      },
      nullptr);
}

ChaosFs::~ChaosFs() {
  fs_->RemoveFile(status_path_);
  fs_->RemoveFile(repro_path_);
}

}  // namespace daos::dbgfs
