// The repo benchmark driver (README.md in this directory).
//
//   perfbench_driver --workload <artifacts|cluster_des|serve_mix>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--expected <digest file>]
//   perfbench_driver --identity <path>   (build identity, for the guard)
//   perfbench_driver --record <path>     (record artifact digests, threads=1)
//
// Prints an identity line and, as the last line of stdout, one JSON
// object {"correct","attempted","failed","metrics"}.  run.py builds this
// binary and is the command BENCHMARK.json names.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "core/error.hpp"
#include "serve/json.hpp"
#include "serve/request.hpp"

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Who produced a result: results are only comparable between equal
/// identities, and never across different nproc.
std::string identity_json(int nproc) {
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::string json = "{\"nproc\":" + std::to_string(nproc);
  json += ",\"cpu\":\"" + pvc::serve::json_escape(cpu_model()) + "\"";
  json += ",\"compiler\":\"" + pvc::serve::json_escape(__VERSION__) + "\"";
  json += ",\"pvc_build_type\":\"" +
          pvc::serve::json_escape(pvc::serve::serve_build_type()) + "\"";
  json += ",\"commit\":\"" +
          pvc::serve::json_escape(commit != nullptr ? commit : "unknown") +
          "\"}";
  return json;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <artifacts|cluster_des|"
               "serve_mix> --seed <n> --seconds <s> --trace <0|1> "
               "[--expected <path>] | --identity <path> | --record <path>\n");
  return 2;
}

int run(int argc, char** argv) {
  perfbench::Options options;
  options.nproc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  options.expected_path = PERFBENCH_SOURCE_DIR "/expected_artifacts.txt";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--expected") {
      options.expected_path = value;
    } else if (key == "--record") {
      options.work_dir = std::string(PERFBENCH_BUILD_DIR) + "/record";
      std::filesystem::create_directories(options.work_dir);
      perfbench::record_artifacts(options, value);
      std::filesystem::remove_all(options.work_dir);
      return 0;
    } else if (key == "--identity") {
      // The build-type guard (scripts/check_bench_build.py) reads the
      // google-benchmark-style context object.
      std::ofstream(value) << "{\"context\":" << identity_json(options.nproc)
                           << "}\n";
      return 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0.0) {
    return usage();
  }
  void (*workload)(const perfbench::Options&, perfbench::Report&,
                   perfbench::Tracer*) = nullptr;
  if (options.workload == "artifacts") {
    workload = perfbench::run_artifacts;
  } else if (options.workload == "cluster_des") {
    workload = perfbench::run_cluster_des;
  } else if (options.workload == "serve_mix") {
    workload = perfbench::run_serve_mix;
  } else {
    return usage();
  }

  options.work_dir = std::string(PERFBENCH_BUILD_DIR) + "/work-" +
                     std::to_string(::getpid());
  std::filesystem::remove_all(options.work_dir);
  std::filesystem::create_directories(options.work_dir);

  perfbench::Report report;
  perfbench::Tracer tracer;
  try {
    workload(options, report, options.trace ? &tracer : nullptr);
  } catch (const std::exception& e) {
    report.check(false, std::string("workload aborted: ") + e.what());
  }
  std::filesystem::remove_all(options.work_dir);
  if (options.trace) {
    const std::string path = std::string(PERFBENCH_BUILD_DIR) + "/trace-" +
                             options.workload + ".json";
    tracer.write_chrome_json(path);
    std::fprintf(stderr, "perfbench: trace written to %s\n", path.c_str());
    report.set("failed_frac",
               report.attempted == 0
                   ? 1.0
                   : static_cast<double>(report.failed) /
                         static_cast<double>(report.attempted),
               "ratio");
  }

  std::printf("{\"identity\":%s}\n", identity_json(options.nproc).c_str());
  std::string line = "{\"correct\":";
  line += report.failed == 0 && report.attempted > 0 ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(report.attempted);
  line += ",\"failed\":" + std::to_string(report.failed);
  line += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    line += (first ? "\"" : ",\"") + name + "\":{\"value\":" + value +
            ",\"unit\":\"" + metric.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
