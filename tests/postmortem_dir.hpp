// A postmortem directory private to one test process.
//
// Every process numbers its postmortem slots from 0, so test binaries that
// ctest runs concurrently must not share a directory: one would overwrite
// (or read) another's mercury-postmortem-<slot>.json. Tests that read
// bundles back route them here instead of the shared ::testing::TempDir().
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace mercury::testing {

/// <TempDir>/mercury-pm-<pid>, created on first use.
inline const std::string& private_postmortem_dir() {
  static const std::string dir = [] {
    const std::filesystem::path p =
        std::filesystem::path(::testing::TempDir()) /
        ("mercury-pm-" + std::to_string(::getpid()));
    std::filesystem::create_directories(p);
    return p.string();
  }();
  return dir;
}

}  // namespace mercury::testing
