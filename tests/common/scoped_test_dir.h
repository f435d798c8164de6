#ifndef SYSDS_TESTS_COMMON_SCOPED_TEST_DIR_H_
#define SYSDS_TESTS_COMMON_SCOPED_TEST_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace sysds {

/// A scratch directory under ::testing::TempDir() named after the running
/// test and the process id, removed with its contents on destruction.
/// ctest runs tests as parallel processes, so tests that write files must
/// not share a fixed path.
class ScopedTestDir {
 public:
  ScopedTestDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name =
        std::string(info->test_suite_name()) + "." + info->name();
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    dir_ = std::filesystem::path(::testing::TempDir()) /
           (name + "." + std::to_string(getpid()));
    std::filesystem::create_directories(dir_);
  }
  ~ScopedTestDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  ScopedTestDir(const ScopedTestDir&) = delete;
  ScopedTestDir& operator=(const ScopedTestDir&) = delete;

  /// Absolute path of `file` inside the directory.
  std::string Path(const std::string& file) const {
    return (dir_ / file).string();
  }

 private:
  std::filesystem::path dir_;
};

}  // namespace sysds

#endif  // SYSDS_TESTS_COMMON_SCOPED_TEST_DIR_H_
