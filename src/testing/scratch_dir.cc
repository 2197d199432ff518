#include "testing/scratch_dir.h"

#include <stdlib.h>

#include <system_error>

#include "common/macros.h"

namespace phoebe::testing {

ScratchDir::ScratchDir() {
  std::string tmpl = (std::filesystem::temp_directory_path() / "phoebe_XXXXXX").string();
  PHOEBE_CHECK_MSG(::mkdtemp(tmpl.data()) != nullptr, "mkdtemp failed");
  path_ = tmpl;
}

ScratchDir::~ScratchDir() {
  std::error_code ec;  // best effort: a failed cleanup must not fail a test
  std::filesystem::remove_all(path_, ec);
}

std::string ScratchDir::File(const std::string& name) const {
  return (path_ / name).string();
}

}  // namespace phoebe::testing
