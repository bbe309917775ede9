// End-to-end Auto-FP benchmark harness.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     --work-dir DIR [--commit ID]
//
// Runs one workload in this process for about S seconds and prints, as
// the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. Earlier lines carry
// the host stamp and notes (sample counts, correctness outcomes).
// perfbench/README.md describes the workloads and metrics.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "trace.h"
#include "util/simd.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::RunArgs;
using perfbench::RunResult;

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--commit ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string commit = "unknown";
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') return Usage();
    } else if (flag == "--trace") {
      trace = std::string(value) == "1" ? 1 : std::string(value) == "0" ? 0
                                                                       : -1;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || trace < 0 || args.work_dir.empty() ||
      !(args.seconds > 0.0 && args.seconds <= 120.0)) {
    return Usage();
  }
  args.trace = trace == 1;
  const bool search = perfbench::IsSearchWorkload(args.workload);
  if (!search && args.workload != "serve_mixed") {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  double load[1] = {0.0};
  if (::getloadavg(load, 1) < 1) load[0] = -1.0;
  std::printf(
      "{\"host\": {\"nproc\": %u, \"simd\": %s, \"compiler\": %s, "
      "\"build_type\": %s, \"commit\": %s, \"loadavg_1m\": %.2f}, "
      "\"workload\": %s, \"seed\": %llu, \"trace\": %d}\n",
      std::thread::hardware_concurrency(),
      JsonString(autofp::simd::kBackendName).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), JsonString(commit).c_str(),
      load[0], JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), trace);
  std::fflush(stdout);

  args.work_dir += "/run-" + std::to_string(static_cast<long>(::getpid()));
  std::filesystem::create_directories(args.work_dir);
  RunResult result = search ? perfbench::RunSearchWorkload(args)
                            : perfbench::RunServeWorkload(args);
  std::filesystem::remove_all(args.work_dir);

  for (const auto& [name, metric] : result.metrics) {
    result.Check(std::isfinite(metric.value), name + " is not finite");
  }
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::string metrics;
  for (const auto& [name, metric] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    std::printf("# %-36s %20s %s\n", name.c_str(), value,
                metric.unit.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(name) + ": {\"value\": " + value +
               ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
      "\"metrics\": {%s}}\n",
      result.failed == 0 ? "true" : "false", result.attempted, result.failed,
      metrics.c_str());
  return 0;
}
