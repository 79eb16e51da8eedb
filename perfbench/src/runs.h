// The two kinds of benchmark run.
#ifndef PERFBENCH_RUNS_H_
#define PERFBENCH_RUNS_H_

#include <string>

#include "common.h"

namespace perfbench {

/// Spawns the real xia_server, drives `args.workload` over its unix
/// socket, checks the replies, and fills `report` with the end-to-end
/// metrics. Returns false (after printing why to stderr) when the run
/// could not be carried out at all.
bool RunWire(const Args& args, Report* report);

/// Replays the same seeded requests in process, timing calls into each
/// module's public functions as spans, and fills `report` with the
/// per-layer metrics. Returns false when the run could not be carried
/// out or a trace guard failed.
bool RunTrace(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_RUNS_H_
