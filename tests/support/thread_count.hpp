// Threads of this process, as the kernel lists them: tests that bound the
// threads a transport or client runs count them before and after.
#pragma once

#include <cstddef>
#include <filesystem>

namespace iw {

inline size_t thread_count() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

}  // namespace iw
