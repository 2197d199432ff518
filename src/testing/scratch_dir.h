// Per-process scratch directories for tests that write files.
//
// ctest runs every gtest case as its own process, in parallel. A fixed name
// under the temp directory is therefore shared by concurrently running test
// processes, and one process's cleanup deletes a file another is still
// reading. A ScratchDir is unique to the object that made it (mkdtemp) and
// is removed, with everything in it, when that object is destroyed.
// tests/check_no_fixed_temp_paths.cmake keeps fixed temp names out of
// tests/.
#pragma once

#include <filesystem>
#include <string>

namespace phoebe::testing {

class ScratchDir {
 public:
  /// Creates `<temp dir>/phoebe_XXXXXX`; aborts if it cannot.
  ScratchDir();
  ~ScratchDir();

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::filesystem::path& path() const { return path_; }
  /// `path() / name` as a string.
  std::string File(const std::string& name) const;

 private:
  std::filesystem::path path_;
};

}  // namespace phoebe::testing
