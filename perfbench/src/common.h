// Shared pieces of xia_perfbench: run settings, statistics, the
// result printer, reply parsing, and the server-process helpers.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline Clock::time_point SecondsAfter(Clock::time_point from, double seconds) {
  return from + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
}

/// Command-line settings of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server;   // Absolute path of the xia_server binary.
  std::string workdir;  // Work directory (inside the checkout).
  std::string results;  // Directory for result and span files.
};

// ------------------------------------------------------------ Statistics.

/// Linear-interpolated percentile (p in [0, 100]); 0 for no samples.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}
/// Spearman rank correlation (average ranks for ties); 0 when undefined.
double Spearman(const std::vector<double>& x, const std::vector<double>& y);

// ----------------------------------------------------------- Result file.

/// Collects metrics, informational figures and correctness checks, then
/// prints them by name and unit, writes the result file (with the host
/// fingerprint and run settings), and prints the final JSON line.
class Report {
 public:
  /// A metric that goes into the final JSON line's "metrics" object.
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A figure printed and written to the result file, but not part of
  /// the JSON line's metrics.
  void Info(const std::string& name, double value, const std::string& unit);
  /// A named setting written to the result file (connections, flush
  /// policy, ...).
  void Setting(const std::string& name, const std::string& value);
  /// A correctness check. A failed check makes the run incorrect.
  void Check(const std::string& name, bool ok, const std::string& detail);
  /// A free-form note printed and recorded (e.g. what a check covers).
  void Note(const std::string& text);

  void CountOp(bool failed) {
    ++attempted_;
    if (failed) ++failed_;
  }
  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const;

  /// Prints everything, writes `<results>/<workload>-seed<N>-trace<T>.json`
  /// and ends stdout with the one-line JSON result.
  void Finish(const Args& args);

 private:
  struct Figure {
    std::string name;
    double value;
    std::string unit;
  };
  struct CheckResult {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Figure> metrics_;
  std::vector<Figure> info_;
  std::vector<std::pair<std::string, std::string>> settings_;
  std::vector<CheckResult> checks_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Formats a double with all its significant digits.
std::string JsonNumber(double value);

// ---------------------------------------------------------- Reply parsing.

/// First line of a reply payload is `OK` (see docs/PROTOCOL.md).
bool ReplyOk(const std::string& reply);

/// The facts a `run` reply carries: the chosen access path and the
/// "-> N result nodes from M docs" line.
struct RunReply {
  bool ok = false;
  bool index_plan = false;
  int64_t results = -1;
  int64_t docs = -1;
};
RunReply ParseRunReply(const std::string& reply);

/// The `CREATE INDEX` lines of an `advise` reply's recommended
/// configuration, in reply order; `ok` is false when the reply carries no
/// recommendation.
struct AdviseReply {
  bool ok = false;
  std::vector<std::string> ddl;
};
AdviseReply ParseAdviseReply(const std::string& reply);

/// The doc id of an `inserted|deleted|updated doc <id> of ...` reply, or
/// -1 when the reply reports anything else.
int64_t ParseDmlReply(const std::string& reply, const std::string& what);

/// Parses the counters and gauges of a `stats` reply ("name = value").
std::map<std::string, double> ParseStats(const std::string& reply);

// ------------------------------------------------------- Server processes.

/// Spawns `server` with `argv` (not including argv[0]), stdout and stderr
/// appended to `log_path`. Returns the pid, or -1.
pid_t SpawnProcess(const std::string& server,
                   const std::vector<std::string>& argv,
                   const std::string& log_path);
/// Sends `sig` and waits for the process to end.
void StopProcess(pid_t pid, int sig);
/// VmHWM of a live process in MiB (0 when unreadable).
double PeakRssMb(pid_t pid);
/// User plus system CPU time a live process has used, in seconds.
double ProcessCpuSeconds(pid_t pid);

/// Host fingerprint as a JSON object: nproc, CPU model, kernel, compiler,
/// build type.
std::string HostFingerprintJson();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
