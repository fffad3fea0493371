// Per-test scratch paths under testing::TempDir().
//
// ctest runs every test as its own process and, with -j, in parallel, so
// two tests that share a fixed file name race: one test's setup rewrites
// the file another is reading or corrupting. Naming every path after the
// running test ("<suite>.<name>.<file>") keeps each test's files its own.

#ifndef RETRUST_TESTS_TEMP_PATH_H_
#define RETRUST_TESTS_TEMP_PATH_H_

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace retrust {

/// "<suite>.<name>" of the running test, with the '/' of parameterized
/// names replaced so the result is one path component.
inline std::string CurrentTestId() {
  const testing::TestInfo* info =
      testing::UnitTest::GetInstance()->current_test_info();
  std::string id = std::string(info->test_suite_name()) + "." + info->name();
  std::replace(id.begin(), id.end(), '/', '_');
  return id;
}

/// A file path private to the running test. Paths are reused across runs
/// of the test binary, so a leftover file is removed first (a stale
/// journal would, correctly, fail EnableJournal's continuity check).
inline std::string TempPath(const std::string& name) {
  std::string path = testing::TempDir() + "/" + CurrentTestId() + "." + name;
  std::remove(path.c_str());
  return path;
}

/// An empty directory private to the running test, for code that writes
/// files under names of its own choosing (a tenant registry's auto-saved
/// snapshots).
inline std::string TempDirPath() {
  std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / CurrentTestId();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

}  // namespace retrust

#endif  // RETRUST_TESTS_TEMP_PATH_H_
