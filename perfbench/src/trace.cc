// The traced run: replays the seed's three request streams in process and
// times calls into each module's public functions as spans.
//
// Two identical in-process worlds receive the same requests in the same
// order, so their caches and data evolve identically:
//   world A executes each request through CommandDispatcher::Execute (the
//     `server.dispatch` span), and `run` requests also through an
//     in-process Server over a unix socket (`client.call`);
//   world B executes the same request as the staged module calls that
//     Execute is built from, each a child span of `server.dispatch.replay`.
// A guard requires the staged children to add up to the dispatch time
// (trace.unattributed_frac) and the staged advisor to choose exactly what
// Advisor::Recommend chose; otherwise the run fails instead of reporting a
// breakdown of a different program.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "advisor/advisor.h"
#include "advisor/analysis.h"
#include "advisor/benefit.h"
#include "advisor/search_greedy_heuristic.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "query/parser.h"
#include "runs.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/session.h"
#include "storage/storage_engine.h"
#include "streams.h"
#include "workload/tpox_queries.h"
#include "workload/xmark_queries.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using xia::server::ClientSession;
using xia::server::CommandDispatcher;
using xia::server::SharedState;

/// Largest |unattributed share| of dispatch time a stream may show before
/// the trace counts as describing a different program.
constexpr double kUnattributedBound = 0.15;
/// Storage opens timed per run (storage.open_us is their median).
constexpr int kOpenRepeats = 3;

/// One span: a timed call, its parent span and its request.
struct Span {
  const char* name;
  int64_t id;
  int64_t parent;  // -1 for a request's root.
  int64_t request;
  int64_t start_ns;
  int64_t end_ns = 0;
  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// In-memory span recorder, written out when the run ends.
class Tracer {
 public:
  int64_t Begin(const char* name, int64_t parent, int64_t request) {
    spans_.push_back(
        {name, static_cast<int64_t>(spans_.size()), parent, request, Now()});
    return spans_.back().id;
  }
  /// Ends span `id` and returns its duration in microseconds.
  double End(int64_t id) {
    Span& span = spans_[static_cast<size_t>(id)];
    span.end_ns = Now();
    return span.micros();
  }
  /// Times `fn()` as a span.
  template <typename Fn>
  auto Time(const char* name, int64_t parent, int64_t request, double* us,
            Fn&& fn) {
    int64_t id = Begin(name, parent, request);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      *us = End(id);
    } else {
      auto result = fn();
      *us = End(id);
      return result;
    }
  }
  int64_t NewRequest() { return next_request_++; }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
          << ", \"parent\": " << s.parent << ", \"request\": " << s.request
          << ", \"start_us\": " << JsonNumber(s.start_ns / 1e3)
          << ", \"end_us\": " << JsonNumber(s.end_ns / 1e3) << "}\n";
    }
    return static_cast<bool>(out);
  }
  size_t size() const { return spans_.size(); }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  int64_t next_request_ = 0;
};

/// The server's shared state with one session, driven directly.
struct World {
  SharedState shared;
  CommandDispatcher dispatcher{&shared};
  ClientSession session{shared};

  std::string Exec(const std::string& line) {
    std::ostringstream out;
    dispatcher.Execute(line, &session, out);
    return out.str();
  }
};

/// Dispatch vs. staged-children time of one stream, for the guard.
struct Attribution {
  double dispatch_us = 0;
  double children_us = 0;
  double frac() const {
    return dispatch_us > 0 ? (dispatch_us - children_us) / dispatch_us : 0;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<std::string> DdlOf(const xia::Recommendation& rec) {
  std::vector<std::string> out;
  for (const xia::IndexDefinition& def : rec.indexes) {
    out.push_back(def.DdlString());
  }
  return out;
}

/// Advisor::Recommend rebuilt from its stage functions (same order, same
/// caches as CmdAdvise), each timed as a child of `parent`, followed by
/// the reply's Report + AnalyzeRecommendation.
struct StagedAdvice {
  xia::Recommendation rec;
  double enumerate_us = 0, generalize_us = 0, dag_us = 0, search_us = 0,
         report_us = 0;
  uint64_t containment_hits = 0, containment_misses = 0;
};

std::optional<StagedAdvice> StagedAdvise(World* world,
                                         const xia::Workload& workload,
                                         Tracer* tracer, int64_t parent,
                                         int64_t request) {
  SharedState& s = world->shared;
  xia::AdvisorOptions options = world->session.options;
  options.space_budget_bytes = kAdviseBudgetKb * 1024.0;
  options.algorithm = xia::SearchAlgorithm::kGreedyHeuristic;
  options.decompose.enabled = false;
  options.shared_cost_cache = &s.what_if_cache;
  StagedAdvice out;
  xia::Recommendation& rec = out.rec;
  xia::ContainmentCache cache;  // Advisor::cache_: one per advise.
  xia::ContainmentCacheStats shared_before = s.containment.stats();

  auto enumeration = tracer->Time("advisor.enumerate", parent, request,
                                  &out.enumerate_us, [&] {
                                    return xia::EnumerateBasicCandidates(
                                        s.db, workload, &cache);
                                  });
  if (!enumeration.ok()) return std::nullopt;
  rec.enumeration = std::move(*enumeration);
  tracer->Time("advisor.generalize", parent, request, &out.generalize_us, [&] {
    rec.candidates = xia::GeneralizeCandidates(rec.enumeration.candidates,
                                               s.db, options.generalize);
  });
  tracer->Time("advisor.dag", parent, request, &out.dag_us, [&] {
    rec.dag = xia::GeneralizationDag::Build(rec.candidates, &cache);
  });
  bool searched = tracer->Time(
      "advisor.search", parent, request, &out.search_us, [&] {
        xia::Optimizer optimizer(&s.db, options.cost_model);
        xia::ConfigurationEvaluator evaluator(
            &optimizer, &workload, &s.catalog, &rec.candidates, &cache,
            options.account_update_cost, options.threads,
            options.what_if_cost_cache, options.shared_cost_cache);
        xia::SearchOptions search;
        search.space_budget_bytes = options.space_budget_bytes;
        xia::Result<xia::SearchResult> result =
            xia::GreedyHeuristicSearch(&evaluator, search);
        if (!result.ok()) return false;
        rec.search = std::move(*result);
        xia::Catalog naming = s.catalog;
        for (int ci : rec.search.chosen) {
          const xia::CandidateIndex& c =
              rec.candidates[static_cast<size_t>(ci)];
          xia::IndexDefinition def = c.def;
          def.name = naming.UniqueName(def.pattern);
          if (!naming.AddVirtual(def, c.stats).ok()) return false;
          rec.indexes.push_back(std::move(def));
        }
        rec.stop_reason = rec.search.stop_reason;
        rec.total_size_bytes = rec.search.total_size_bytes;
        rec.baseline_cost = rec.search.baseline_cost;
        rec.recommended_cost = rec.search.workload_cost;
        rec.update_cost = rec.search.update_cost;
        rec.benefit = rec.search.benefit;
        return true;
      });
  if (!searched) return std::nullopt;
  bool reported =
      tracer->Time("advisor.report", parent, request, &out.report_us, [&] {
        std::string text = rec.Report();
        xia::Result<xia::RecommendationAnalysis> analysis =
            xia::AnalyzeRecommendation(s.db, s.catalog, workload, rec,
                                       options.cost_model, &s.containment);
        if (!analysis.ok()) return false;
        text += analysis->ToTable();
        return !text.empty();
      });
  if (!reported) return std::nullopt;
  xia::ContainmentCacheStats local = cache.stats();
  xia::ContainmentCacheStats shared_after = s.containment.stats();
  out.containment_hits =
      local.hits + (shared_after.hits - shared_before.hits);
  out.containment_misses =
      local.misses + (shared_after.misses - shared_before.misses);
  return out;
}

/// True when the dispatched advise (Advisor::Recommend inside CmdAdvise)
/// and the staged replay chose the same indexes at the same costs.
bool SameAdvice(const World& dispatched, const xia::Recommendation& staged) {
  const std::optional<xia::Recommendation>& rec =
      dispatched.session.recommendation;
  return rec.has_value() && DdlOf(*rec) == DdlOf(staged) &&
         rec->recommended_cost == staged.recommended_cost &&
         rec->baseline_cost == staged.baseline_cost &&
         rec->update_cost == staged.update_cost;
}

/// Everything the traced run measures.
struct Layers {
  // read_serve.
  std::vector<double> dispatch_us, client_us, reply_bytes, parse_us,
      optimize_us, explain_us, execute_us, render_us, plan_cost;
  double index_plans = 0, reads = 0, nodes_examined = 0, results = 0;
  std::vector<double> sim_pages;
  double buffer_hits = 0, buffer_misses = 0;
  double promised_benefit = 0, promised_baseline = 0;
  // advise.
  std::vector<double> enumerate_us, generalize_us, dag_us, search_us,
      report_us, whatif_calls, candidates;
  double cost_hits = 0, cost_misses = 0, containment_hits = 0,
         containment_misses = 0;
  // write_mix.
  std::vector<double> insert_us, delete_us, update_us, checkpoint_us, open_us;
  double dml_writes = 0, index_entries = 0, synopsis_rebuilds = 0,
         wal_bytes = 0, user_bytes = 0, open_pages_read = 0,
         wal_records_replayed = 0;
  Attribution read_attr, advise_attr, write_attr;
};

bool Fail(const std::string& why) {
  std::cerr << "trace: " << why << "\n";
  return false;
}

// ------------------------------------------------------------- read_serve.

/// Advises and materializes the XMark and TPoX templates in both worlds,
/// like the wire run's pre-loop (A via the dispatcher, B staged).
bool PrepareReadWorlds(World* a, World* b, Tracer* tracer, Layers* layers) {
  for (const char* kind : {"xmark", "tpox"}) {
    a->Exec(std::string("workload ") + kind);
    a->Exec("advise " + std::to_string(kAdviseBudgetKb));
    xia::Workload workload = std::string(kind) == "xmark"
                                 ? xia::MakeXMarkWorkload("xmark")
                                 : xia::MakeTpoxWorkload();
    int64_t request = tracer->NewRequest();
    int64_t root = tracer->Begin("setup.advise", -1, request);
    std::optional<StagedAdvice> staged =
        StagedAdvise(b, workload, tracer, root, request);
    tracer->End(root);
    if (!staged) return Fail("staged setup advise failed");
    if (!SameAdvice(*a, staged->rec)) {
      return Fail(std::string("staged advisor disagrees with "
                              "Advisor::Recommend on the ") +
                  kind + " templates");
    }
    layers->promised_benefit += staged->rec.benefit;
    layers->promised_baseline += staged->rec.baseline_cost;
    if (a->Exec("materialize").rfind("materialized", 0) != 0) {
      return Fail("materialize failed");
    }
    xia::Result<double> built = xia::MaterializeConfiguration(
        b->shared.db, staged->rec.indexes, &b->shared.catalog,
        b->session.options.cost_model.storage);
    if (!built.ok()) return Fail("staged materialize failed");
  }
  return true;
}

/// CmdRun's stages on world B, each a child span of `parent`. Sets
/// `*results` to the result count the reply would show.
bool StagedRun(World* b, const std::string& text, Tracer* tracer,
               int64_t parent, int64_t request, Layers* layers,
               double* children_us, int64_t* results) {
  SharedState& s = b->shared;
  double us = 0;
  *children_us = 0;
  xia::Result<xia::Query> query =
      tracer->Time("query.parse", parent, request, &us,
                   [&] { return xia::ParseQuery(text); });
  *children_us += us;
  layers->parse_us.push_back(us);
  if (!query.ok()) return false;
  query->id = "shell";
  xia::Optimizer optimizer(&s.db, s.default_options.cost_model);
  xia::Result<xia::QueryPlan> plan =
      tracer->Time("optimizer.optimize", parent, request, &us, [&] {
        return optimizer.Optimize(*query, s.catalog, &s.containment);
      });
  *children_us += us;
  layers->optimize_us.push_back(us);
  if (!plan.ok()) return false;
  std::string explain = tracer->Time("optimizer.explain", parent, request, &us,
                                     [&] { return plan->ExplainWithStats(); });
  *children_us += us;
  layers->explain_us.push_back(us);
  xia::Executor executor(&s.db, &s.catalog, s.default_options.cost_model,
                         &s.buffer_pool);
  xia::Result<xia::ExecResult> run =
      tracer->Time("exec.execute", parent, request, &us,
                   [&] { return executor.Execute(*plan); });
  *children_us += us;
  layers->execute_us.push_back(us);
  if (!run.ok()) return false;
  layers->plan_cost.push_back(plan->total_cost);
  std::string rendered =
      tracer->Time("exec.render", parent, request, &us, [&] {
        return xia::RenderResults(s.db, query->normalized.collection, *run, 5);
      });
  *children_us += us;
  layers->render_us.push_back(us);
  layers->reads += 1;
  if (plan->access.use_index) layers->index_plans += 1;
  layers->nodes_examined += static_cast<double>(run->nodes_examined);
  layers->results += static_cast<double>(run->nodes.size());
  *results = static_cast<int64_t>(run->nodes.size());
  layers->sim_pages.push_back(run->simulated_page_reads);
  layers->buffer_hits += static_cast<double>(run->buffer_hits);
  layers->buffer_misses += static_cast<double>(run->buffer_misses);
  return !explain.empty();
}

bool TraceReadServe(const Args& args, double seconds, Tracer* tracer,
                    Layers* layers) {
  auto a = std::make_unique<World>();
  auto b = std::make_unique<World>();
  if (!PopulateServerData(&a->shared.db).ok() ||
      !PopulateServerData(&b->shared.db).ok()) {
    return Fail("populate failed");
  }
  if (!PrepareReadWorlds(a.get(), b.get(), tracer, layers)) return false;

  // Client-observed latency of the same requests: an in-process Server
  // over world A's state.
  xia::server::ServerOptions options;
  options.unix_socket_path = "trace.sock";
  std::error_code ec;
  fs::remove(options.unix_socket_path, ec);
  xia::server::Server server(&a->shared, options);
  if (!server.Start().ok()) return Fail("in-process server start failed");
  xia::Result<xia::server::BlockingClient> client =
      xia::server::BlockingClient::ConnectUnix(options.unix_socket_path);
  if (!client.ok()) return Fail("in-process server connect failed");

  std::vector<ReadStream> streams;
  streams.emplace_back(args.seed, 0, false);
  streams.emplace_back(args.seed, 1, false);
  Clock::time_point deadline = SecondsAfter(Clock::now(), seconds);
  bool ok = true;
  for (size_t i = 0; ok && Clock::now() < deadline; ++i) {
    std::string line = streams[i % 2].Next();
    int64_t request = tracer->NewRequest();
    int64_t root = tracer->Begin("request", -1, request);
    double us = 0;
    xia::Result<std::string> reply = tracer->Time(
        "client.call", root, request, &us, [&] { return client->Call(line); });
    layers->client_us.push_back(us);
    ok = reply.ok() && ParseRunReply(*reply).ok;
    // Alternate which world goes first so neither is always cache-warm.
    double dispatch_us = 0, children_us = 0;
    int64_t dispatched_results = -1, staged_results = -2;
    auto dispatch = [&] {
      std::string out = xia::server::OkResponse(
          tracer->Time("server.dispatch", root, request, &dispatch_us,
                       [&] { return a->Exec(line); }));
      layers->reply_bytes.push_back(static_cast<double>(out.size()));
      dispatched_results = ParseRunReply(out).results;
    };
    auto replay = [&] {
      int64_t parent = tracer->Begin("server.dispatch.replay", root, request);
      ok = StagedRun(b.get(), line.substr(4), tracer, parent, request, layers,
                     &children_us, &staged_results) &&
           ok;
      tracer->End(parent);
    };
    if (i % 2 == 0) {
      dispatch();
      replay();
    } else {
      replay();
      dispatch();
    }
    tracer->End(root);
    if (ok && dispatched_results != staged_results) {
      return Fail("dispatched and staged run disagree on: " + line);
    }
    layers->dispatch_us.push_back(dispatch_us);
    layers->read_attr.dispatch_us += dispatch_us;
    layers->read_attr.children_us += children_us;
  }
  client->Close();
  server.RequestStop();
  server.Wait();
  if (!ok) return Fail("a traced run request failed");
  return true;
}

// ----------------------------------------------------------------- advise.

bool TraceAdvise(const Args& args, double seconds, Tracer* tracer,
                 Layers* layers) {
  auto a = std::make_unique<World>();
  auto b = std::make_unique<World>();
  if (!PopulateServerData(&a->shared.db).ok() ||
      !PopulateServerData(&b->shared.db).ok()) {
    return Fail("populate failed");
  }
  Clock::time_point deadline = SecondsAfter(Clock::now(), seconds);
  for (int k = 0; Clock::now() < deadline; ++k) {
    std::vector<std::string> lines = AdviseVariations(args.seed, k);
    a->Exec("workload xmark");
    for (const std::string& line : lines) a->Exec(line);
    xia::Workload workload = xia::MakeXMarkWorkload("xmark");
    for (const std::string& line : lines) {
      if (!workload.AddQueryText(line.substr(8), 1.0).ok()) {
        return Fail("bad variation");
      }
    }
    int64_t request = tracer->NewRequest();
    int64_t root = tracer->Begin("request", -1, request);
    double dispatch_us = 0;
    std::optional<StagedAdvice> staged;
    xia::CostCacheStats cost_before = b->shared.what_if_cache.stats();
    auto dispatch = [&] {
      tracer->Time("server.dispatch", root, request, &dispatch_us, [&] {
        return a->Exec("advise " + std::to_string(kAdviseBudgetKb));
      });
    };
    auto replay = [&] {
      int64_t parent = tracer->Begin("server.dispatch.replay", root, request);
      staged = StagedAdvise(b.get(), workload, tracer, parent, request);
      tracer->End(parent);
    };
    if (k % 2 == 0) {
      dispatch();
      replay();
    } else {
      replay();
      dispatch();
    }
    tracer->End(root);
    if (!staged) return Fail("staged advise failed");
    if (!SameAdvice(*a, staged->rec)) {
      return Fail("staged advisor disagrees with Advisor::Recommend on op " +
                  std::to_string(k));
    }
    xia::CostCacheStats cost_after = b->shared.what_if_cache.stats();
    layers->enumerate_us.push_back(staged->enumerate_us);
    layers->generalize_us.push_back(staged->generalize_us);
    layers->dag_us.push_back(staged->dag_us);
    layers->search_us.push_back(staged->search_us);
    layers->report_us.push_back(staged->report_us);
    layers->candidates.push_back(
        static_cast<double>(staged->rec.candidates.size()));
    layers->whatif_calls.push_back(
        static_cast<double>(cost_after.misses - cost_before.misses));
    layers->cost_hits +=
        static_cast<double>(cost_after.hits - cost_before.hits);
    layers->cost_misses +=
        static_cast<double>(cost_after.misses - cost_before.misses);
    layers->containment_hits += static_cast<double>(staged->containment_hits);
    layers->containment_misses +=
        static_cast<double>(staged->containment_misses);
    layers->advise_attr.dispatch_us += dispatch_us;
    layers->advise_attr.children_us += staged->enumerate_us +
                                       staged->generalize_us + staged->dag_us +
                                       staged->search_us + staged->report_us;
  }
  return true;
}

// -------------------------------------------------------------- write_mix.

/// Opens `dir` into `world` like xia_server --data-dir does.
bool OpenStorage(World* world, const std::string& dir,
                 xia::storage::RecoveryStats* recovery) {
  SharedState& s = world->shared;
  xia::Result<std::unique_ptr<xia::storage::StorageEngine>> opened =
      xia::storage::StorageEngine::Open(dir, &s.db, &s.catalog,
                                        &s.buffer_pool,
                                        s.default_options.cost_model.storage);
  if (!opened.ok()) {
    return Fail("open " + dir + ": " + opened.status().ToString());
  }
  s.engine = std::move(*opened);
  if (recovery != nullptr) *recovery = s.engine->recovery();
  return true;
}

uint64_t WalSize(const World& world) {
  const xia::storage::StorageEngine& engine = *world.shared.engine;
  std::error_code ec;
  uintmax_t size = fs::file_size(
      fs::path(engine.dir()) / ("wal." + std::to_string(engine.epoch()) +
                                ".log"),
      ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

int64_t DispatchedDoc(const std::string& reply, WriteOp::Kind kind) {
  return ParseDmlReply("OK\n" + reply, DmlVerb(kind));
}

bool TraceWriteMix(const Args& args, double seconds, Tracer* tracer,
                   Layers* layers) {
  // Preparation, as in the wire run: a fresh persistent database with the
  // server's data, the TPoX advice materialized, then writes left in the
  // WAL by a "crash" (engines dropped without Close()).
  Ledger ledger;
  for (const char* dir : {"trace-a", "trace-b"}) {
    std::error_code ec;
    fs::remove_all(dir, ec);
    auto world = std::make_unique<World>();
    if (!PopulateServerData(&world->shared.db).ok() ||
        !OpenStorage(world.get(), dir, nullptr)) {
      return Fail("write preparation failed");
    }
    world->Exec("workload tpox");
    world->Exec("advise " + std::to_string(kAdviseBudgetKb));
    if (world->Exec("materialize").rfind("materialized", 0) != 0) {
      return Fail("write preparation materialize failed");
    }
    Ledger prep_ledger;
    WriteStream prep(args.seed, &prep_ledger, /*prep=*/true);
    for (int i = 0; i < kPrepWrites; ++i) {
      WriteOp op = prep.Next();
      int64_t doc = DispatchedDoc(world->Exec(op.line), op.kind);
      if (doc < 0) return Fail("preparation write failed");
      prep.Ack(op, doc);
    }
    ledger = prep_ledger;
  }

  // Recovery: both worlds reopen fresh copies of their crashed directories
  // kOpenRepeats times (identical histories keep them comparable); every
  // open is timed.
  std::unique_ptr<World> a;
  std::unique_ptr<World> b;
  for (int k = 0; k < kOpenRepeats; ++k) {
    for (const char* side : {"a", "b"}) {
      std::string crashed = std::string("trace-") + side;
      std::string dir = crashed + "-" + std::to_string(k);
      std::error_code ec;
      fs::remove_all(dir, ec);
      fs::copy(crashed, dir, fs::copy_options::recursive, ec);
      std::unique_ptr<World>& world = side[0] == 'a' ? a : b;
      world = std::make_unique<World>();
      xia::storage::RecoveryStats recovery;
      double us = 0;
      bool opened =
          tracer->Time("storage.open", -1, tracer->NewRequest(), &us, [&] {
            return OpenStorage(world.get(), dir, &recovery);
          });
      if (!opened) return false;
      layers->open_us.push_back(us);
      layers->open_pages_read = static_cast<double>(recovery.pages_read);
      layers->wal_records_replayed =
          static_cast<double>(recovery.wal_records_replayed);
    }
  }
  if (xia::storage::StorageEngine::StateFingerprint(a->shared.db,
                                                    a->shared.catalog) !=
      xia::storage::StorageEngine::StateFingerprint(b->shared.db,
                                                    b->shared.catalog)) {
    return Fail("the two recovered worlds differ");
  }

  WriteStream stream(args.seed, &ledger, /*prep=*/false);
  Clock::time_point deadline = SecondsAfter(Clock::now(), seconds);
  for (int k = 0; Clock::now() < deadline; ++k) {
    WriteOp op = stream.Next();
    int64_t request = tracer->NewRequest();
    int64_t root = tracer->Begin("request", -1, request);
    double dispatch_us = 0, child_us = 0;
    std::string reply;
    int64_t staged_doc = -1;
    uint64_t wal_before = WalSize(*b);
    auto dispatch = [&] {
      reply = tracer->Time("server.dispatch", root, request, &dispatch_us,
                           [&] { return a->Exec(op.line); });
    };
    auto replay = [&] {
      int64_t parent = tracer->Begin("server.dispatch.replay", root, request);
      xia::storage::StorageEngine& engine = *b->shared.engine;
      xia::Result<xia::dml::DmlResult> result =
          xia::Status::Internal("not a DML op");
      switch (op.kind) {
        case WriteOp::Kind::kInsert:
          result = tracer->Time("dml.insert", parent, request, &child_us, [&] {
            return engine.InsertDocument("order", op.xml);
          });
          layers->insert_us.push_back(child_us);
          break;
        case WriteOp::Kind::kDelete:
          result = tracer->Time("dml.delete", parent, request, &child_us, [&] {
            return engine.DeleteDocument("order", op.doc);
          });
          layers->delete_us.push_back(child_us);
          break;
        case WriteOp::Kind::kUpdate:
          result = tracer->Time("dml.update", parent, request, &child_us, [&] {
            return engine.UpdateDocument("order", op.doc, op.xml);
          });
          layers->update_us.push_back(child_us);
          break;
        case WriteOp::Kind::kCheckpoint: {
          layers->wal_bytes += static_cast<double>(wal_before);
          xia::Status status = tracer->Time(
              "storage.checkpoint", parent, request, &child_us,
              [&] { return engine.Checkpoint(); });
          layers->checkpoint_us.push_back(child_us);
          staged_doc = status.ok() ? 0 : -1;
          break;
        }
      }
      if (op.kind != WriteOp::Kind::kCheckpoint && result.ok()) {
        staged_doc = result->doc;
        layers->dml_writes += 1;
        layers->index_entries +=
            static_cast<double>(result->maintenance.entries_inserted +
                                result->maintenance.entries_removed);
        layers->synopsis_rebuilds += result->synopsis_rebuilt ? 1 : 0;
        layers->user_bytes += static_cast<double>(op.xml.size());
      }
      tracer->End(parent);
    };
    if (k % 2 == 0) {
      dispatch();
      replay();
    } else {
      replay();
      dispatch();
    }
    tracer->End(root);
    if (op.kind == WriteOp::Kind::kCheckpoint) {
      if (reply.rfind("checkpointed", 0) != 0 || staged_doc != 0) {
        return Fail("checkpoint failed");
      }
    } else {
      int64_t doc = DispatchedDoc(reply, op.kind);
      if (doc < 0 || doc != staged_doc) {
        return Fail("dispatched and staged writes disagree: " +
                    reply.substr(0, 120));
      }
      stream.Ack(op, doc);
    }
    layers->write_attr.dispatch_us += dispatch_us;
    layers->write_attr.children_us += child_us;
  }
  layers->wal_bytes += static_cast<double>(WalSize(*b));
  a.reset();
  b.reset();
  for (const char* side : {"a", "b"}) {
    std::error_code ec;
    fs::remove_all(std::string("trace-") + side, ec);
    for (int k = 0; k < kOpenRepeats; ++k) {
      fs::remove_all(std::string("trace-") + side + "-" + std::to_string(k),
                     ec);
    }
  }
  return true;
}

}  // namespace

bool RunTrace(const Args& args, Report* report) {
  report->Setting("mode",
                  "in-process traced replay of the seed's read_serve, advise "
                  "and write_mix streams (same for every --workload)");
  report->Setting("connections",
                  "in process; run requests also over 1 unix-socket connection "
                  "to an in-process Server");
  report->Setting("flush_policy",
                  "fsync per WAL append (StorageOptions::sync, as the server)");
  Tracer tracer;
  Layers layers;
  double third = args.seconds / 3;
  if (!TraceReadServe(args, third, &tracer, &layers) ||
      !TraceAdvise(args, third, &tracer, &layers) ||
      !TraceWriteMix(args, third, &tracer, &layers)) {
    return false;
  }

  Report& r = *report;
  double dispatch_p50 = Median(layers.dispatch_us);
  r.Metric("server.dispatch_us", dispatch_p50, "us");
  r.Metric("server.overhead_us", Median(layers.client_us) - dispatch_p50,
           "us");
  r.Metric("server.reply_bytes", Median(layers.reply_bytes), "bytes");
  r.Metric("query.parse_us", Median(layers.parse_us), "us");
  r.Metric("optimizer.optimize_us", Median(layers.optimize_us), "us");
  r.Metric("optimizer.explain_us", Median(layers.explain_us), "us");
  r.Metric("optimizer.index_plan_frac",
           Ratio(layers.index_plans, layers.reads), "frac");
  r.Metric("optimizer.cost_rank_corr",
           Spearman(layers.plan_cost, layers.execute_us), "rho");
  r.Metric("exec.execute_us", Median(layers.execute_us), "us");
  r.Metric("exec.render_us", Median(layers.render_us), "us");
  r.Metric("exec.nodes_examined_per_result",
           Ratio(layers.nodes_examined, layers.results), "ratio");
  r.Metric("exec.sim_pages_per_query", Median(layers.sim_pages), "pages");
  r.Metric("exec.buffer_hit_frac",
           Ratio(layers.buffer_hits, layers.buffer_hits + layers.buffer_misses),
           "frac");
  r.Metric("advisor.enumerate_us", Median(layers.enumerate_us), "us");
  r.Metric("advisor.generalize_us", Median(layers.generalize_us), "us");
  r.Metric("advisor.dag_us", Median(layers.dag_us), "us");
  r.Metric("advisor.search_us", Median(layers.search_us), "us");
  r.Metric("advisor.report_us", Median(layers.report_us), "us");
  r.Metric("advisor.whatif_calls", Median(layers.whatif_calls), "count");
  r.Metric("advisor.cost_cache_hit_frac",
           Ratio(layers.cost_hits, layers.cost_hits + layers.cost_misses),
           "frac");
  r.Metric("advisor.candidates", Median(layers.candidates), "count");
  r.Metric("advisor.promised_benefit_frac",
           Ratio(layers.promised_benefit, layers.promised_baseline), "frac");
  r.Metric("xpath.containment_hit_frac",
           Ratio(layers.containment_hits,
                 layers.containment_hits + layers.containment_misses),
           "frac");
  r.Metric("dml.insert_us", Median(layers.insert_us), "us");
  r.Metric("dml.delete_us", Median(layers.delete_us), "us");
  r.Metric("dml.update_us", Median(layers.update_us), "us");
  r.Metric("dml.index_entries_per_write",
           Ratio(layers.index_entries, layers.dml_writes), "ratio");
  r.Metric("dml.synopsis_rebuilds_per_kwrite",
           1000 * Ratio(layers.synopsis_rebuilds, layers.dml_writes),
           "1/kwrite");
  r.Metric("storage.open_us", Median(layers.open_us), "us");
  r.Metric("storage.open_pages_read", layers.open_pages_read, "pages");
  r.Metric("storage.wal_records_replayed", layers.wal_records_replayed,
           "count");
  r.Metric("storage.checkpoint_us", Median(layers.checkpoint_us), "us");
  r.Metric("storage.wal_bytes_per_user_byte",
           Ratio(layers.wal_bytes, layers.user_bytes), "ratio");

  Attribution all;
  for (const Attribution* part :
       {&layers.read_attr, &layers.advise_attr, &layers.write_attr}) {
    all.dispatch_us += part->dispatch_us;
    all.children_us += part->children_us;
  }
  r.Metric("trace.unattributed_frac", all.frac(), "frac");
  r.Info("trace.unattributed_frac.read_serve", layers.read_attr.frac(), "frac");
  r.Info("trace.unattributed_frac.advise", layers.advise_attr.frac(), "frac");
  r.Info("trace.unattributed_frac.write_mix", layers.write_attr.frac(),
         "frac");
  for (const auto& [name, attr] :
       {std::pair<const char*, const Attribution*>{"read_serve",
                                                   &layers.read_attr},
        {"advise", &layers.advise_attr},
        {"write_mix", &layers.write_attr}}) {
    r.Check(std::string("trace attribution ") + name,
            std::abs(attr->frac()) <= kUnattributedBound,
            "unattributed " + JsonNumber(attr->frac()) + ", bound " +
                JsonNumber(kUnattributedBound));
  }
  r.Note("the staged advisor matched Advisor::Recommend on every traced "
         "advise (a mismatch fails the run)");
  r.Info("traced_read_requests", layers.reads, "count");
  r.Info("traced_advise_ops", static_cast<double>(layers.search_us.size()),
         "count");
  r.Info("traced_dml_writes", layers.dml_writes, "count");
  r.Info("spans", static_cast<double>(tracer.size()), "count");
  r.CountOps(static_cast<uint64_t>(layers.reads) + layers.search_us.size() +
                 static_cast<uint64_t>(layers.dml_writes) +
                 layers.checkpoint_us.size(),
             0);

  std::string spans = args.results + "/spans-" + args.workload + "-seed" +
                      std::to_string(args.seed) + ".jsonl";
  std::error_code ec;
  fs::create_directories(args.results, ec);
  if (!tracer.Write(spans)) return Fail("cannot write " + spans);
  r.Note("spans written to " + spans);
  return true;
}

}  // namespace perfbench
