// The wire run: spawns the real xia_server, drives one workload over its
// unix socket in a closed loop, then checks the replies against
// in-process oracles and the server's own counters.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <iostream>
#include <optional>
#include <thread>
#include <unordered_map>

#include "advisor/advisor.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "query/parser.h"
#include "runs.h"
#include "server/client.h"
#include "streams.h"
#include "workload/xmark_queries.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using xia::server::BlockingClient;

/// Server start-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 25;
constexpr const char* kSocket = "xia.sock";
constexpr double kReadyTimeoutS = 120;
constexpr const char* kFlushPolicy =
    "fsync per WAL append (StorageOptions::sync, the server's only policy)";

/// One xia_server child process, killed on destruction.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(SIGKILL); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool Start(const Args& args, const std::vector<std::string>& flags) {
    Stop(SIGKILL);
    std::error_code ec;
    fs::remove(kSocket, ec);
    std::vector<std::string> argv = {"--socket", kSocket};
    argv.insert(argv.end(), flags.begin(), flags.end());
    pid_ = SpawnProcess(args.server, argv, "server.log");
    return pid_ > 0;
  }
  void Stop(int sig) {
    if (pid_ > 0) StopProcess(pid_, sig);
    pid_ = -1;
  }
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

/// Connects once the server answers `ready` with OK.
std::optional<BlockingClient> ConnectWhenReady(pid_t pid) {
  Clock::time_point start = Clock::now();
  while (SecondsSince(start) < kReadyTimeoutS) {
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) {
      std::cerr << "xia_server exited during start-up (see server.log)\n";
      return std::nullopt;
    }
    xia::Result<BlockingClient> connected =
        BlockingClient::ConnectUnix(kSocket);
    if (connected.ok()) {
      BlockingClient client = std::move(*connected);
      client.SetIoTimeoutMillis(120000);
      while (SecondsSince(start) < kReadyTimeoutS) {
        xia::Result<std::string> reply = client.Call("ready");
        if (!reply.ok()) break;
        if (ReplyOk(*reply)) return client;
        usleep(1000);
      }
    }
    usleep(1000);
  }
  std::cerr << "xia_server not ready after " << kReadyTimeoutS << " s\n";
  return std::nullopt;
}

/// Sends `line` and requires an OK reply whose body starts with
/// `body_prefix`. Setup requests only: a failure aborts the run.
bool Expect(BlockingClient* client, const std::string& line,
            const std::string& body_prefix, std::string* reply_out = nullptr) {
  xia::Result<std::string> reply = client->Call(line);
  if (!reply.ok()) {
    std::cerr << "'" << line.substr(0, 60)
              << "': " << reply.status().ToString() << "\n";
    return false;
  }
  if (reply->rfind("OK\n" + body_prefix, 0) != 0) {
    std::cerr << "'" << line.substr(0, 60) << "': unexpected reply: "
              << reply->substr(0, 300) << "\n";
    return false;
  }
  if (reply_out != nullptr) *reply_out = std::move(*reply);
  return true;
}

std::optional<std::map<std::string, double>> FetchStats(
    BlockingClient* client) {
  std::string reply;
  if (!Expect(client, "stats", "", &reply)) return std::nullopt;
  return ParseStats(reply);
}

double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& name) {
  auto value = [&](const std::map<std::string, double>& m) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  };
  return value(after) - value(before);
}

/// Compares a server counter's movement with the ops the benchmark sent.
void LedgerCheck(Report* report, const std::map<std::string, double>& before,
                 const std::map<std::string, double>& after,
                 const std::vector<std::string>& names, double expected) {
  double moved = 0;
  std::string label;
  for (const std::string& name : names) {
    moved += Delta(before, after, name);
    label += (label.empty() ? "" : "+") + name;
  }
  report->Check("ledger " + label, moved == expected,
                "server " + JsonNumber(moved) + ", sent " +
                    JsonNumber(expected));
}

/// Starts the server kSetupRepeats times, each time timing spawn ->
/// first OK from `ready` -> `pre_loop` done, and reports the median as
/// setup_s. `flags_for(k)` gives start k's flags (and may prepare its
/// directory, untimed). The last server is left running, connected to
/// `*client`.
bool TimedSetups(const Args& args, ServerProcess* server,
                 const std::function<std::vector<std::string>(int)>& flags_for,
                 const std::function<bool(BlockingClient*)>& pre_loop,
                 std::optional<BlockingClient>* client, Report* report) {
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    client->reset();
    server->Stop(SIGKILL);
    std::vector<std::string> flags = flags_for(k);
    Clock::time_point start = Clock::now();
    if (!server->Start(args, flags)) {
      std::cerr << "cannot spawn " << args.server << "\n";
      return false;
    }
    *client = ConnectWhenReady(server->pid());
    if (!client->has_value()) return false;
    if (pre_loop && !pre_loop(&**client)) return false;
    setups.push_back(SecondsSince(start));
  }
  report->Metric("setup_s", Median(setups), "s");
  report->Info("setup_s_min", *std::min_element(setups.begin(), setups.end()),
               "s");
  report->Info("setup_s_max", *std::max_element(setups.begin(), setups.end()),
               "s");
  return true;
}

std::vector<std::string> PreloadFlags(int) {
  return {"--preload", kPreloadXMark, "--preload", kPreloadTpox};
}

/// One timed op: when it completed (seconds after the loop started) and
/// how long it took.
struct Latency {
  double end_s = 0;
  double us = 0;
};

/// The loop is cut into up to kWindows equal windows of at least
/// kMinOpsPerWindow ops each; the latency and rate metrics are medians
/// across windows, so a few seconds of a slow host move them less than a
/// pooled percentile. A loop with few (slow) ops keeps fewer windows, so
/// each window's percentiles still rest on enough samples.
constexpr size_t kWindows = 10;
constexpr size_t kMinOpsPerWindow = 100;

/// Latency summary of the timed ops shared by every workload.
/// `server_cpu_s` is the CPU time the server used during the loop,
/// including any untimed requests sent between timed ops.
///
/// The gated latency metric is op_p50_us. op_p90_us and ops_per_s are
/// printed but not gated: on a shared VM the tail (collection scans) and
/// the closed-loop rate, which is connections over mean latency, move
/// with the host's load by more than a 25% bound. The server's CPU time
/// per op excludes waiting and stolen time, so it is the steady measure
/// of the work an op costs.
void LatencyMetrics(Report* report, const std::vector<Latency>& ops,
                    double elapsed_s, double server_cpu_s,
                    double peak_rss_mb) {
  size_t n = std::clamp<size_t>(ops.size() / kMinOpsPerWindow, 1, kWindows);
  std::vector<std::vector<double>> windows(n);
  std::vector<double> pooled;
  for (const Latency& op : ops) {
    size_t w = static_cast<size_t>(
        std::max(0.0, op.end_s / elapsed_s * static_cast<double>(n)));
    windows[std::min(w, n - 1)].push_back(op.us);
    pooled.push_back(op.us);
  }
  std::vector<double> p50, p90, rate;
  for (const std::vector<double>& window : windows) {
    if (window.empty()) continue;
    p50.push_back(Percentile(window, 50));
    p90.push_back(Percentile(window, 90));
    rate.push_back(static_cast<double>(window.size()) /
                   (elapsed_s / static_cast<double>(n)));
  }
  double timed = static_cast<double>(std::max<size_t>(1, pooled.size()));
  report->Metric("op_p50_us", Median(p50), "us");
  report->Metric("server_cpu_us_per_op", server_cpu_s * 1e6 / timed, "us");
  report->Metric("peak_rss_mb", peak_rss_mb, "MiB");
  report->Info("op_p90_us", Median(p90), "us");
  report->Info("ops_per_s", Median(rate), "1/s");
  report->Info("op_p50_us_pooled", Percentile(pooled, 50), "us");
  report->Info("op_p90_us_pooled", Percentile(pooled, 90), "us");
  report->Info("op_p99_us", Percentile(pooled, 99), "us");
  report->Info("ops_per_s_pooled",
               static_cast<double>(pooled.size()) / elapsed_s, "1/s");
  report->Info("timed_ops", static_cast<double>(pooled.size()), "count");
  report->Info("windows", static_cast<double>(n), "count");
}

void ErrorFrac(Report* report) {
  report->Info("error_frac",
               report->attempted() == 0
                   ? 1.0
                   : static_cast<double>(report->failed()) /
                         static_cast<double>(report->attempted()),
               "frac");
}

// ---------------------------------------------------------- read_serve.

struct ReadSample {
  float us = 0;
  float end_s = 0;  // Completion, seconds after the loop started.
  int32_t query = -1;  // Index into the stream universe.
  bool transport_ok = false;
  RunReply reply;
};

/// Runs one closed-loop reader per client until the deadline.
std::vector<std::vector<ReadSample>> ReadLoop(
    std::vector<BlockingClient>* clients, uint64_t seed,
    Clock::time_point start, Clock::time_point deadline,
    const std::unordered_map<std::string, int32_t>& index) {
  std::vector<std::vector<ReadSample>> samples(clients->size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients->size(); ++c) {
    threads.emplace_back([&, c] {
      ReadStream stream(seed, static_cast<int>(c), /*tpox_only=*/false);
      BlockingClient& client = (*clients)[c];
      while (Clock::now() < deadline) {
        std::string line = stream.Next();
        Clock::time_point t0 = Clock::now();
        xia::Result<std::string> reply = client.Call(line);
        ReadSample s;
        s.us = static_cast<float>(MicrosSince(t0));
        s.end_s = static_cast<float>(SecondsSince(start));
        auto it = index.find(line.substr(4));
        s.query = it == index.end() ? -1 : it->second;
        s.transport_ok = reply.ok();
        if (reply.ok()) s.reply = ParseRunReply(*reply);
        samples[c].push_back(s);
        if (!reply.ok()) break;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return samples;
}

/// Scan-only execution of `text` in process: the read oracle.
RunReply ScanOracle(const xia::Database& db, const std::string& text,
                    xia::ContainmentCache* containment) {
  static const xia::Catalog kEmpty;
  RunReply out;
  xia::Result<xia::Query> query = xia::ParseQuery(text);
  if (!query.ok()) return out;
  xia::Optimizer optimizer(&db, xia::CostModel());
  xia::Result<xia::QueryPlan> plan =
      optimizer.Optimize(*query, kEmpty, containment);
  if (!plan.ok()) return out;
  xia::Executor executor(&db, &kEmpty, xia::CostModel());
  xia::Result<xia::ExecResult> run = executor.Execute(*plan);
  if (!run.ok()) return out;
  out.ok = true;
  out.results = static_cast<int64_t>(run->nodes.size());
  out.docs = static_cast<int64_t>(run->docs_matched);
  return out;
}

bool ReadServe(const Args& args, Report* report) {
  report->Setting("connections", "2 (closed loop, run)");
  report->Setting("data", std::string("--preload ") + kPreloadXMark +
                              " --preload " + kPreloadTpox);
  report->Setting("flush_policy", "none (memory-only server, no --data-dir)");
  report->Setting("pre_loop", "advise " + std::to_string(kAdviseBudgetKb) +
                                  " + materialize for the xmark and tpox "
                                  "templates");
  ServerProcess server;
  std::optional<BlockingClient> control;
  auto pre_loop = [](BlockingClient* c) {
    for (const char* kind : {"xmark", "tpox"}) {
      if (!Expect(c, std::string("workload ") + kind, "loaded") ||
          !Expect(c, "advise " + std::to_string(kAdviseBudgetKb),
                  "Recommended configuration") ||
          !Expect(c, "materialize", "materialized")) {
        return false;
      }
    }
    return true;
  };
  if (!TimedSetups(args, &server, PreloadFlags, pre_loop, &control,
                   report)) {
    return false;
  }
  std::vector<BlockingClient> clients;
  for (int c = 0; c < 2; ++c) {
    std::optional<BlockingClient> client = ConnectWhenReady(server.pid());
    if (!client) return false;
    clients.push_back(std::move(*client));
  }
  std::optional<std::map<std::string, double>> before = FetchStats(&*control);
  if (!before) return false;

  ReadStream universe_stream(args.seed, 0, false);
  const std::vector<std::string>& universe = universe_stream.universe();
  std::unordered_map<std::string, int32_t> index;
  for (size_t i = 0; i < universe.size(); ++i) {
    index[universe[i]] = static_cast<int32_t>(i);
  }
  double cpu0 = ProcessCpuSeconds(server.pid());
  Clock::time_point start = Clock::now();
  std::vector<std::vector<ReadSample>> samples =
      ReadLoop(&clients, args.seed, start,
               SecondsAfter(start, args.seconds), index);
  double elapsed = SecondsSince(start);
  double cpu = ProcessCpuSeconds(server.pid()) - cpu0;
  std::optional<std::map<std::string, double>> after = FetchStats(&*control);
  if (!after) return false;
  double rss = PeakRssMb(server.pid());
  control.reset();
  clients.clear();
  server.Stop(SIGTERM);

  // Oracle: every reply's result count against a scan-only execution.
  xia::Database db;
  if (!PopulateServerData(&db).ok()) return false;
  xia::ContainmentCache containment;
  std::vector<std::optional<RunReply>> expected(universe.size());
  std::vector<Latency> op_us;
  double ok_ops = 0, index_ops = 0, scan_ops = 0, mismatches = 0;
  for (const std::vector<ReadSample>& conn : samples) {
    for (const ReadSample& s : conn) {
      bool failed = !s.transport_ok || !s.reply.ok || s.query < 0;
      if (!failed) {
        std::optional<RunReply>& want = expected[static_cast<size_t>(s.query)];
        if (!want) {
          want = ScanOracle(db, universe[static_cast<size_t>(s.query)],
                            &containment);
        }
        if (!want->ok || want->results != s.reply.results ||
            want->docs != s.reply.docs) {
          failed = true;
          ++mismatches;
        }
      }
      report->CountOp(failed);
      if (!s.transport_ok) continue;
      op_us.push_back({s.end_s, s.us});
      if (s.reply.ok) {
        ++ok_ops;
        (s.reply.index_plan ? index_ops : scan_ops) += 1;
      }
    }
  }
  report->Check("oracle scan-only result counts", mismatches == 0,
                JsonNumber(mismatches) + " mismatching replies");
  LedgerCheck(report, *before, *after,
              {"optimizer.choice.collection_scan",
               "optimizer.choice.index_scan", "optimizer.choice.ixand"},
              ok_ops);
  LedgerCheck(report, *before, *after, {"exec.scan.index"}, index_ops);
  LedgerCheck(report, *before, *after, {"exec.scan.collection"}, scan_ops);
  LatencyMetrics(report, op_us, elapsed, cpu, rss);
  report->Info("index_plan_frac", ok_ops > 0 ? index_ops / ok_ops : 0, "frac");
  ErrorFrac(report);
  return true;
}

// -------------------------------------------------------------- advise.

bool Advise(const Args& args, Report* report) {
  report->Setting("connections", "1 (closed loop, advise)");
  report->Setting("data", std::string("--preload ") + kPreloadXMark +
                              " --preload " + kPreloadTpox);
  report->Setting("flush_policy", "none (memory-only server, no --data-dir)");
  report->Setting("op", "untimed: workload xmark + " +
                            std::to_string(kAdviseVariations) +
                            " seeded query lines; timed: advise " +
                            std::to_string(kAdviseBudgetKb));
  ServerProcess server;
  std::optional<BlockingClient> client;
  if (!TimedSetups(args, &server, PreloadFlags, nullptr, &client, report)) {
    return false;
  }
  std::optional<std::map<std::string, double>> before = FetchStats(&*client);
  if (!before) return false;

  struct Op {
    double us = 0;
    double end_s = 0;
    bool transport_ok = false;
    AdviseReply reply;
  };
  std::vector<Op> ops;
  double cpu0 = ProcessCpuSeconds(server.pid());
  Clock::time_point start = Clock::now();
  Clock::time_point deadline = SecondsAfter(start, args.seconds);
  while (Clock::now() < deadline) {
    int k = static_cast<int>(ops.size());
    if (!Expect(&*client, "workload xmark", "loaded")) return false;
    for (const std::string& line : AdviseVariations(args.seed, k)) {
      if (!Expect(&*client, line, "added")) return false;
    }
    Op op;
    Clock::time_point t0 = Clock::now();
    xia::Result<std::string> reply =
        client->Call("advise " + std::to_string(kAdviseBudgetKb));
    op.us = MicrosSince(t0);
    op.end_s = SecondsSince(start);
    op.transport_ok = reply.ok();
    if (reply.ok()) op.reply = ParseAdviseReply(*reply);
    ops.push_back(std::move(op));
    if (!reply.ok()) break;
  }
  double elapsed = SecondsSince(start);
  double cpu = ProcessCpuSeconds(server.pid()) - cpu0;
  std::optional<std::map<std::string, double>> after = FetchStats(&*client);
  if (!after) return false;
  double rss = PeakRssMb(server.pid());
  client.reset();
  server.Stop(SIGTERM);

  // Oracle: in-process Advisor::Recommend over the same op sequence, with
  // one shared what-if cache like the server's.
  xia::Database db;
  if (!PopulateServerData(&db).ok()) return false;
  xia::Catalog catalog;
  xia::WhatIfCostCache cache;
  xia::AdvisorOptions options;
  options.space_budget_bytes = kAdviseBudgetKb * 1024.0;
  options.algorithm = xia::SearchAlgorithm::kGreedyHeuristic;
  options.shared_cost_cache = &cache;
  std::vector<Latency> op_us;
  double mismatches = 0;
  for (size_t k = 0; k < ops.size(); ++k) {
    const Op& op = ops[k];
    bool failed = !op.transport_ok || !op.reply.ok;
    if (!failed) {
      xia::Workload workload = xia::MakeXMarkWorkload("xmark");
      for (const std::string& line :
           AdviseVariations(args.seed, static_cast<int>(k))) {
        if (!workload.AddQueryText(line.substr(8), 1.0).ok()) return false;
      }
      xia::Advisor advisor(&db, &catalog, options);
      xia::Result<xia::Recommendation> rec = advisor.Recommend(workload);
      std::vector<std::string> want;
      if (rec.ok()) {
        for (const xia::IndexDefinition& def : rec->indexes) {
          want.push_back(def.DdlString());
        }
      }
      if (!rec.ok() || want != op.reply.ddl) {
        failed = true;
        ++mismatches;
      }
    }
    report->CountOp(failed);
    if (op.transport_ok) op_us.push_back({op.end_s, op.us});
  }
  report->Check("oracle in-process Advisor::Recommend index sets",
                mismatches == 0, JsonNumber(mismatches) + " mismatching ops");
  xia::CostCacheStats cache_stats = cache.stats();
  LedgerCheck(report, *before, *after, {"costcache.hits"},
              static_cast<double>(cache_stats.hits));
  LedgerCheck(report, *before, *after, {"costcache.misses"},
              static_cast<double>(cache_stats.misses));
  LatencyMetrics(report, op_us, elapsed, cpu, rss);
  ErrorFrac(report);
  return true;
}

// ----------------------------------------------------------- write_mix.

/// DML writes sent after the timed loop, just before the SIGKILL.
constexpr int kTailWrites = 10;

bool WriteMix(const Args& args, Report* report) {
  report->Setting("connections",
                  "2 (closed loop: 1 writer insert/delete/update 40/40/20 + "
                  "db checkpoint every " +
                      std::to_string(kCheckpointEvery) +
                      " writes, 1 reader run on tpox)");
  report->Setting("data", std::string("--preload ") + kPreloadXMark +
                              " --preload " + kPreloadTpox +
                              " --data-dir, recovered from a WAL tail");
  report->Setting("flush_policy", kFlushPolicy);
  ServerProcess server;
  std::optional<BlockingClient> control;
  Ledger ledger;
  std::error_code ec;
  fs::remove_all("prep", ec);

  // Untimed preparation: tpox advice materialized, then writes that stay
  // in the WAL because the server is SIGKILLed before any checkpoint.
  if (!server.Start(args, {"--data-dir", "prep", "--preload", kPreloadXMark,
                           "--preload", kPreloadTpox})) {
    return false;
  }
  control = ConnectWhenReady(server.pid());
  if (!control || !Expect(&*control, "workload tpox", "loaded") ||
      !Expect(&*control, "advise " + std::to_string(kAdviseBudgetKb),
              "Recommended configuration") ||
      !Expect(&*control, "materialize", "materialized")) {
    return false;
  }
  {
    WriteStream prep(args.seed, &ledger, /*prep=*/true);
    for (int i = 0; i < kPrepWrites; ++i) {
      WriteOp op = prep.Next();
      xia::Result<std::string> reply = control->Call(op.line);
      int64_t doc = reply.ok() ? ParseDmlReply(*reply, DmlVerb(op.kind)) : -1;
      if (doc < 0) {
        std::cerr << "preparation write failed: "
                  << (reply.ok() ? reply->substr(0, 200)
                                 : reply.status().ToString())
                  << "\n";
        return false;
      }
      prep.Ack(op, doc);
    }
  }
  control.reset();
  server.Stop(SIGKILL);

  // Timed set-ups: each recovers a pristine copy of the crashed directory.
  std::string data_dir;
  auto recover_copy = [&](int k) -> std::vector<std::string> {
    data_dir = "data-" + std::to_string(k);
    fs::remove_all(data_dir, ec);
    fs::copy("prep", data_dir, fs::copy_options::recursive, ec);
    return {"--data-dir", data_dir};
  };
  if (!TimedSetups(args, &server, recover_copy, nullptr, &control, report)) {
    return false;
  }

  std::optional<BlockingClient> writer_client = ConnectWhenReady(server.pid());
  std::optional<BlockingClient> reader_client = ConnectWhenReady(server.pid());
  if (!writer_client || !reader_client) return false;
  std::optional<std::map<std::string, double>> before = FetchStats(&*control);
  if (!before) return false;

  struct Sample {
    double us = 0;
    double end_s = 0;
    bool failed = false;
    WriteOp::Kind kind = WriteOp::Kind::kInsert;
  };
  std::vector<Sample> writes;
  std::vector<Sample> reads;
  double acked[4] = {0, 0, 0, 0};  // By WriteOp::Kind.
  double cpu0 = ProcessCpuSeconds(server.pid());
  Clock::time_point start = Clock::now();
  Clock::time_point deadline = SecondsAfter(start, args.seconds);
  WriteStream stream(args.seed, &ledger, /*prep=*/false);
  std::thread writer([&] {
    while (Clock::now() < deadline) {
      WriteOp op = stream.Next();
      Clock::time_point t0 = Clock::now();
      xia::Result<std::string> reply = writer_client->Call(op.line);
      Sample s;
      s.us = MicrosSince(t0);
      s.end_s = SecondsSince(start);
      s.kind = op.kind;
      if (op.kind == WriteOp::Kind::kCheckpoint) {
        s.failed = !reply.ok() || reply->rfind("OK\ncheckpointed", 0) != 0;
      } else {
        int64_t doc = reply.ok() ? ParseDmlReply(*reply, DmlVerb(op.kind)) : -1;
        s.failed = doc < 0;
        if (!s.failed) stream.Ack(op, doc);
      }
      if (!s.failed) acked[static_cast<int>(op.kind)] += 1;
      writes.push_back(s);
      if (!reply.ok()) break;
    }
  });
  std::thread reader([&] {
    ReadStream stream(args.seed, 1, /*tpox_only=*/true);
    while (Clock::now() < deadline) {
      std::string line = stream.Next();
      Clock::time_point t0 = Clock::now();
      xia::Result<std::string> reply = reader_client->Call(line);
      Sample s;
      s.us = MicrosSince(t0);
      s.end_s = SecondsSince(start);
      s.failed = !reply.ok() || !ParseRunReply(*reply).ok;
      reads.push_back(s);
      if (!reply.ok()) break;
    }
  });
  writer.join();
  reader.join();
  double elapsed = SecondsSince(start);
  double cpu = ProcessCpuSeconds(server.pid()) - cpu0;
  std::optional<std::map<std::string, double>> after = FetchStats(&*control);
  if (!after) return false;
  double rss = PeakRssMb(server.pid());

  std::vector<Latency> op_us;
  std::vector<double> write_us, dml_us, read_us;
  for (const Sample& s : writes) {
    report->CountOp(s.failed);
    op_us.push_back({s.end_s, s.us});
    write_us.push_back(s.us);
    if (s.kind != WriteOp::Kind::kCheckpoint) dml_us.push_back(s.us);
  }
  for (const Sample& s : reads) {
    report->CountOp(s.failed);
    op_us.push_back({s.end_s, s.us});
    read_us.push_back(s.us);
  }
  double inserts = acked[static_cast<int>(WriteOp::Kind::kInsert)];
  double deletes = acked[static_cast<int>(WriteOp::Kind::kDelete)];
  double updates = acked[static_cast<int>(WriteOp::Kind::kUpdate)];
  LedgerCheck(report, *before, *after, {"dml.inserts"}, inserts + updates);
  LedgerCheck(report, *before, *after, {"dml.deletes"}, deletes + updates);
  LedgerCheck(report, *before, *after, {"dml.updates"}, updates);
  LedgerCheck(report, *before, *after, {"storage.wal.appends"},
              inserts + deletes + updates);
  LedgerCheck(report, *before, *after,
              {"exec.scan.collection", "exec.scan.index"},
              static_cast<double>(reads.size()));

  // Untimed tail writes after the counters were read, so the durability
  // check always has WAL records to replay.
  for (int tail = 0; tail < kTailWrites;) {
    WriteOp op = stream.Next();
    xia::Result<std::string> reply = writer_client->Call(op.line);
    if (!reply.ok()) return false;
    if (op.kind == WriteOp::Kind::kCheckpoint) continue;
    int64_t doc = ParseDmlReply(*reply, DmlVerb(op.kind));
    if (doc < 0) return false;
    stream.Ack(op, doc);
    ++tail;
  }

  // Durability: SIGKILL, reboot on the same directory, and judge every
  // acknowledged write against the ledger.
  writer_client.reset();
  reader_client.reset();
  control.reset();
  server.Stop(SIGKILL);
  if (!server.Start(args, {"--data-dir", data_dir})) return false;
  control = ConnectWhenReady(server.pid());
  if (!control) return false;
  double lost = 0, resurrected = 0;
  auto probe = [&](int64_t marker) -> int64_t {
    xia::Result<std::string> reply = control->Call(MarkerProbe(marker));
    if (!reply.ok()) return -1;
    RunReply run = ParseRunReply(*reply);
    return run.ok ? run.results : -1;
  };
  for (const auto& [marker, doc] : ledger.live) {
    if (probe(marker) != 1) ++lost;
  }
  for (int64_t marker : ledger.dead) {
    if (probe(marker) != 0) ++resurrected;
  }
  xia::Result<std::string> all = control->Call(
      "run for $o in doc(\"order\")/FIXML/Order return $o/OrderQty");
  int64_t live_orders = all.ok() ? ParseRunReply(*all).results : -1;
  control.reset();
  server.Stop(SIGKILL);
  report->Check("durability after SIGKILL + reboot",
                lost == 0 && resurrected == 0,
                JsonNumber(lost) + " of " +
                    std::to_string(ledger.live.size()) +
                    " acknowledged live documents missing, " +
                    JsonNumber(resurrected) + " of " +
                    std::to_string(ledger.dead.size()) +
                    " acknowledged deletes visible");
  report->Check("order count after reboot",
                live_orders == kPreloadOrders +
                                   static_cast<int64_t>(ledger.live.size()),
                std::to_string(live_orders) + " live orders, expected " +
                    std::to_string(kPreloadOrders + ledger.live.size()));
  report->Note(
      "SIGKILL keeps the OS page cache, so the durability check exercises "
      "WAL replay, not the storage device");

  LatencyMetrics(report, op_us, elapsed, cpu, rss);
  report->Info("write_p50_us", Percentile(write_us, 50), "us");
  report->Info("write_p90_us", Percentile(write_us, 90), "us");
  report->Info("read_p50_us", Percentile(read_us, 50), "us");
  report->Info("dml_p50_us", Percentile(dml_us, 50), "us");
  report->Info("writes", static_cast<double>(write_us.size()), "count");
  report->Info("reads", static_cast<double>(read_us.size()), "count");
  ErrorFrac(report);
  fs::remove_all("prep", ec);
  for (int k = 0; k < kSetupRepeats; ++k) {
    fs::remove_all("data-" + std::to_string(k), ec);
  }
  return true;
}

}  // namespace

bool RunWire(const Args& args, Report* report) {
  if (args.workload == "read_serve") return ReadServe(args, report);
  if (args.workload == "advise") return Advise(args, report);
  if (args.workload == "write_mix") return WriteMix(args, report);
  std::cerr << "unknown workload '" << args.workload << "'\n";
  return false;
}

}  // namespace perfbench
