#ifndef AUTOFP_BENCH_BENCH_HOST_H_
#define AUTOFP_BENCH_BENCH_HOST_H_

/// The host stamp a micro-bench JSON report opens with (nproc, SIMD
/// backend, compiler, build type, commit), so reports from different
/// hosts and builds can be told apart. The compiler, build type and
/// source directory come from compile definitions in bench/CMakeLists.txt.

#include <stdio.h>

#include <cctype>
#include <cstdio>
#include <string>
#include <thread>

#include "util/simd.h"

namespace autofp {
namespace bench {

/// The commit of the source tree the bench was built from, with
/// "+dirty" when tracked files differ from it; "unknown" outside git.
inline std::string SourceCommit() {
  const std::string git = "git -C '" AUTOFP_BENCH_SOURCE_DIR "' ";
  auto run = [](const std::string& command) {
    std::string output;
    if (std::FILE* pipe = ::popen((command + " 2>/dev/null").c_str(), "r")) {
      char buffer[256];
      while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
        output += buffer;
      }
      ::pclose(pipe);
    }
    while (!output.empty() && std::isspace(static_cast<unsigned char>(
                                  output.back()))) {
      output.pop_back();
    }
    return output;
  };
  std::string commit = run(git + "rev-parse HEAD");
  if (commit.empty()) return "unknown";
  if (!run(git + "status --porcelain --untracked-files=no").empty()) {
    commit += "+dirty";
  }
  return commit;
}

/// Writes the report's `"host": {...},` line.
inline void PrintHostStamp(std::FILE* out) {
  std::fprintf(out,
               "  \"host\": {\"nproc\": %u, \"simd\": \"%s\", "
               "\"compiler\": \"%s\", \"build_type\": \"%s\", "
               "\"commit\": \"%s\"},\n",
               std::thread::hardware_concurrency(), simd::kBackendName,
               AUTOFP_BENCH_COMPILER, AUTOFP_BENCH_BUILD_TYPE,
               SourceCommit().c_str());
}

}  // namespace bench
}  // namespace autofp

#endif  // AUTOFP_BENCH_BENCH_HOST_H_
