// xia_perfbench — the repository benchmark (see ../README.md).
//
//   xia_perfbench --workload read_serve|advise|write_mix --seed N
//                 --seconds S --trace 0|1 --server PATH --workdir DIR
//                 --results DIR
//
// --trace 0 spawns the real xia_server and prints the end-to-end metrics;
// --trace 1 runs the in-process traced replay and prints the per-layer
// metrics. Either way the last stdout line is the JSON result.
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.h"
#include "runs.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--server") {
      args.server = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--results") {
      args.results = value;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (args.workload.empty() || args.workdir.empty() || args.results.empty() ||
      args.seconds <= 0 || (!args.trace && args.server.empty())) {
    std::cerr << "usage: xia_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --server PATH --workdir DIR --results DIR\n";
    return 2;
  }
  // Everything the run writes (socket, data directories, logs) lives in
  // the work directory; relative names keep the unix socket path short.
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  args.results = std::filesystem::absolute(args.results).string();
  if (ec || chdir(args.workdir.c_str()) != 0) {
    std::cerr << "cannot enter " << args.workdir << "\n";
    return 2;
  }
  perfbench::Report report;
  bool ran = args.trace ? perfbench::RunTrace(args, &report)
                        : perfbench::RunWire(args, &report);
  if (!ran) {
    std::cerr << "perfbench: " << args.workload << " run failed\n";
    return 1;
  }
  report.Finish(args);
  return 0;
}
