// Per-test, per-process scratch paths.
//
// gtest_discover_tests runs every test as its own process, and `ctest -j`
// runs those processes side by side. A fixed name under the temp directory
// would let one test's remove_all delete another's files, so each path
// carries the running test's full name and the process id.

#ifndef CELLREL_TESTS_SUPPORT_TEMP_PATH_H
#define CELLREL_TESTS_SUPPORT_TEMP_PATH_H

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <string_view>

namespace cellrel::test_support {

/// `<temp>/<stem>_<Suite>.<Test>_<pid>` (parameterized names keep their
/// '/', flattened to '_').
inline std::filesystem::path unique_temp_path(std::string_view stem) {
  std::string name(stem);
  if (const auto* info = ::testing::UnitTest::GetInstance()->current_test_info()) {
    name += '_';
    name += info->test_suite_name();
    name += '.';
    name += info->name();
  }
  name += '_' + std::to_string(::getpid());
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  return std::filesystem::temp_directory_path() / name;
}

}  // namespace cellrel::test_support

#endif  // CELLREL_TESTS_SUPPORT_TEMP_PATH_H
