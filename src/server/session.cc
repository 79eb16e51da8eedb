#include "server/session.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "advisor/analysis.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "dml/dml.h"
#include "exec/executor.h"
#include "optimizer/explain.h"
#include "query/parser.h"
#include "storage/collection_io.h"
#include "wlm/compress.h"
#include "wlm/wlm_io.h"
#include "workload/tpox_queries.h"
#include "workload/workload_io.h"
#include "workload/xmark_queries.h"
#include "xmldata/tpox_gen.h"
#include "xmldata/xmark_gen.h"
#include "xpath/parser.h"

namespace xia {
namespace server {

namespace {

/// Template count at which `advise --from-log` switches to decomposed
/// scoring by default (advisor/benefit_table.h): below it the exact
/// path's call count is tolerable; above it pricing once per (class,
/// subset) is strictly cheaper than per-configuration what-ifs. Override
/// per command with --decompose / --exact.
constexpr size_t kDecomposeAutoTemplates = 256;

/// Pops the first whitespace-delimited token off `text` (the split
/// `std::istream >>` makes).
std::string_view PopToken(std::string_view* text) {
  constexpr std::string_view kSpace = " \t\n\v\f\r";
  size_t begin = std::min(text->find_first_not_of(kSpace), text->size());
  size_t end = std::min(text->find_first_of(kSpace, begin), text->size());
  std::string_view token = text->substr(begin, end - begin);
  text->remove_prefix(end);
  return token;
}

/// Checkpoints after a successful bulk (unlogged) mutation when a
/// persistence engine is attached; appends the outcome to `out`.
void CheckpointAfterBulk(SharedState& shared, std::ostream& out) {
  if (!shared.engine) return;
  // Bulk generation/materialization bypasses the WAL (the engine logs
  // only logical mutations it executed itself); the checkpoint here is
  // what makes the bulk result durable.
  Status status = shared.engine->Checkpoint();
  out << (status.ok()
              ? "checkpointed (epoch " +
                    std::to_string(shared.engine->epoch()) + ")\n"
              : "checkpoint failed: " + status.ToString() + "\n");
}

/// Shared DML reply/capture tail: feeds the armed capture sink (the DML
/// half of the workload stream maintenance-aware advising consumes) and
/// renders the result line the shell and the server both emit.
void ReportDml(wlm::CaptureKind kind, const std::string& collection,
               const Result<dml::DmlResult>& result, std::ostream& out) {
  if (!result.ok()) {
    out << result.status().ToString() << "\n";
    return;
  }
  const dml::DmlResult& r = *result;
  if (wlm::CaptureEnabled()) {
    wlm::MaybeCaptureDml(
        kind, collection, r.root_pattern,
        static_cast<double>(r.maintenance.entries_inserted +
                            r.maintenance.entries_removed));
  }
  const char* what = kind == wlm::CaptureKind::kInsert   ? "inserted"
                     : kind == wlm::CaptureKind::kDelete ? "deleted"
                                                         : "updated";
  out << what << " doc " << r.doc << " of " << collection << " ("
      << r.maintenance.indexes_touched << " indexes, +"
      << r.maintenance.entries_inserted << "/-"
      << r.maintenance.entries_removed << " entries, synopsis +"
      << r.synopsis_nodes_added << "/-" << r.synopsis_nodes_removed
      << (r.synopsis_rebuilt ? " nodes, stats rebuilt)\n" : " nodes)\n");
}

// ---------------------------------------------------------------------
// Verb handlers, all of one shape (VerbHandler). Sub-verbs arrive
// lowercased in `cmd.sub`; argument text keeps its case.

void CmdGen(SharedState& shared, ClientSession&, const Command& cmd,
            std::ostream& out) {
  std::istringstream args(cmd.args);
  if (cmd.sub == "xmark") {
    int docs = 10;
    args >> docs;
    Status status = PopulateXMark(&shared.db, "xmark", docs, XMarkParams(), 42);
    out << (status.ok()
                ? "generated xmark: " +
                      std::to_string(
                          shared.db.GetCollection("xmark")->num_nodes()) +
                      " nodes\n"
                : status.ToString() + "\n");
    if (status.ok()) CheckpointAfterBulk(shared, out);
  } else if (cmd.sub == "tpox") {
    int customers = 50;
    int orders = 100;
    int securities = 20;
    args >> customers >> orders >> securities;
    Status status = PopulateTpox(&shared.db, customers, orders, securities,
                                 TpoxParams(), 11);
    out << (status.ok() ? "generated tpox collections\n"
                        : status.ToString() + "\n");
    if (status.ok()) CheckpointAfterBulk(shared, out);
  } else {
    out << "usage: gen xmark <docs> | gen tpox <c> <o> <s>\n";
  }
}

void CmdLoad(SharedState& shared, ClientSession&, const Command& cmd,
             std::ostream& out) {
  std::string collection;
  std::string path;
  std::istringstream args(cmd.rest);
  args >> collection >> path;
  std::ifstream in(path);
  if (!in) {
    out << "cannot open " << path << "\n";
    return;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  // With a persistence engine attached the mutation goes through it so a
  // WAL record makes the load durable; otherwise mutate the db directly.
  if (shared.db.GetCollection(collection) == nullptr) {
    Status created = shared.engine
                         ? shared.engine->CreateCollection(collection)
                         : shared.db.CreateCollection(collection).status();
    if (!created.ok()) {
      out << created.ToString() << "\n";
      return;
    }
  }
  Status status = shared.engine
                      ? shared.engine->LoadXml(collection, buffer.str())
                      : shared.db.LoadXml(collection, buffer.str());
  out << (status.ok() ? "loaded 1 document (run 'analyze " + collection +
                            "' to refresh stats)\n"
                      : status.ToString() + "\n");
}

void CmdSaveColl(SharedState& shared, ClientSession&, const Command& cmd,
                 std::ostream& out) {
  std::string collection;
  std::string dir;
  std::istringstream args(cmd.rest);
  args >> collection >> dir;
  Status status = SaveCollectionToDirectory(shared.db, collection, dir);
  out << (status.ok() ? "saved to " + dir + "\n" : status.ToString() + "\n");
}

void CmdLoadColl(SharedState& shared, ClientSession&, const Command& cmd,
                 std::ostream& out) {
  std::string collection;
  std::string dir;
  std::istringstream args(cmd.rest);
  args >> collection >> dir;
  Result<size_t> loaded =
      LoadCollectionFromDirectory(&shared.db, collection, dir);
  out << (loaded.ok()
              ? "loaded " + std::to_string(*loaded) + " documents (analyzed)\n"
              : loaded.status().ToString() + "\n");
  if (loaded.ok()) CheckpointAfterBulk(shared, out);
}

void CmdAnalyze(SharedState& shared, ClientSession&, const Command& cmd,
                std::ostream& out) {
  std::string collection;
  std::istringstream(cmd.rest) >> collection;
  Status status = shared.engine ? shared.engine->Analyze(collection)
                                : shared.db.Analyze(collection);
  out << (status.ok() ? "statistics rebuilt\n" : status.ToString() + "\n");
}

void CmdWorkload(SharedState&, ClientSession& session, const Command& cmd,
                 std::ostream& out) {
  if (cmd.sub == "xmark" || cmd.sub == "tpox") {
    session.workload =
        cmd.sub == "xmark" ? MakeXMarkWorkload("xmark") : MakeTpoxWorkload();
    out << "loaded built-in " << cmd.sub << " workload ("
        << session.workload.size() << " queries)\n";
  } else if (cmd.sub == "file") {
    std::string path;
    std::istringstream(cmd.args) >> path;
    Result<Workload> loaded = LoadWorkloadFile(path);
    if (!loaded.ok()) {
      out << loaded.status().ToString() << "\n";
      return;
    }
    session.workload = std::move(*loaded);
    out << "loaded " << session.workload.size() << " queries from " << path
        << "\n";
  } else {
    out << "usage: workload xmark|tpox | workload file <path>\n";
  }
}

void CmdQuery(SharedState&, ClientSession& session, const Command& cmd,
              std::ostream& out) {
  std::istringstream params(cmd.rest);
  double weight = 1.0;
  params >> weight;
  std::string text;
  std::getline(params, text);
  Status status =
      session.workload.AddQueryText(std::string(Trim(text)), weight);
  out << (status.ok() ? "added\n" : status.ToString() + "\n");
}

/// `update insert|delete ...`: a session-workload update op.
void CmdUpdate(SharedState&, ClientSession& session, const Command& cmd,
               std::ostream& out) {
  Result<Workload> parsed =
      ParseWorkloadText("update " + cmd.sub + " " + cmd.args);
  if (!parsed.ok()) {
    out << parsed.status().ToString() << "\n";
  } else {
    session.workload.AddUpdate(parsed->updates()[0]);
    out << "added\n";
  }
}

// DML verbs (src/dml): insert <coll> <xml...>, delete <coll> <doc>,
// update <coll> <doc> <xml...>. WAL-logged when a persistence engine is
// attached.

void CmdInsert(SharedState& shared, ClientSession&, const Command& cmd,
               std::ostream& out) {
  std::istringstream params(cmd.rest);
  std::string collection;
  params >> collection;
  std::string xml;
  std::getline(params, xml);
  std::string body(Trim(xml));
  if (collection.empty() || body.empty()) {
    out << "usage: insert <collection> <xml...>\n";
    return;
  }
  Result<dml::DmlResult> result =
      shared.engine ? shared.engine->InsertDocument(collection, body)
                    : dml::ApplyInsert(&shared.db, &shared.catalog,
                                       collection, body);
  ReportDml(wlm::CaptureKind::kInsert, collection, result, out);
}

void CmdDelete(SharedState& shared, ClientSession&, const Command& cmd,
               std::ostream& out) {
  std::istringstream args(cmd.rest);
  std::string collection;
  int64_t doc = -1;
  if (!(args >> collection >> doc) || doc < 0) {
    out << "usage: delete <collection> <doc-id>\n";
    return;
  }
  DocId id = static_cast<DocId>(doc);
  Result<dml::DmlResult> result =
      shared.engine
          ? shared.engine->DeleteDocument(collection, id)
          : dml::ApplyDelete(&shared.db, &shared.catalog, collection, id);
  ReportDml(wlm::CaptureKind::kDelete, collection, result, out);
}

void CmdDmlUpdate(SharedState& shared, ClientSession&, const Command& cmd,
                  std::ostream& out) {
  std::istringstream params(cmd.rest);
  std::string collection;
  int64_t doc = -1;
  if (!(params >> collection >> doc) || doc < 0) {
    out << "usage: update <collection> <doc-id> <xml...> |"
           " update <insert|delete> <collection> <weight> <pattern>\n";
    return;
  }
  std::string xml;
  std::getline(params, xml);
  std::string body(Trim(xml));
  if (body.empty()) {
    out << "usage: update <collection> <doc-id> <xml...>\n";
    return;
  }
  DocId id = static_cast<DocId>(doc);
  Result<dml::DmlResult> result =
      shared.engine ? shared.engine->UpdateDocument(collection, id, body)
                    : dml::ApplyUpdate(&shared.db, &shared.catalog,
                                       collection, id, body);
  ReportDml(wlm::CaptureKind::kUpdate, collection, result, out);
}

void CmdShow(SharedState& shared, ClientSession& session, const Command& cmd,
             std::ostream& out) {
  if (cmd.sub == "workload") {
    out << session.workload.Describe();
  } else if (cmd.sub == "stats") {
    std::string collection;
    std::istringstream(cmd.args) >> collection;
    const PathSynopsis* synopsis = shared.db.synopsis(collection);
    if (synopsis == nullptr) {
      out << "no statistics for '" << collection << "' (run 'analyze')\n";
    } else {
      out << synopsis->Describe(/*max_paths=*/60);
    }
  } else if (cmd.sub == "catalog") {
    for (const CatalogEntry* entry : shared.catalog.AllIndexes()) {
      out << "  " << entry->def.DdlString()
          << (entry->is_virtual ? "  [virtual]\n" : "\n");
    }
    if (shared.catalog.size() == 0) out << "  (empty)\n";
  } else if (cmd.sub == "candidates" || cmd.sub == "dag") {
    if (!session.recommendation.has_value()) {
      out << "run 'advise' first\n";
      return;
    }
    if (cmd.sub == "candidates") {
      out << session.recommendation->enumeration.ToString();
    } else {
      out << session.recommendation->dag.ToText(
          session.recommendation->candidates);
    }
  } else {
    out << "usage: show workload|catalog|candidates|dag|stats <coll>\n";
  }
}

void CmdEnumerate(SharedState& shared, ClientSession&, const Command& cmd,
                  std::ostream& out) {
  Result<Query> query = ParseQuery(Trim(cmd.rest));
  if (!query.ok()) {
    out << query.status().ToString() << "\n";
    return;
  }
  query->id = "shell";
  Result<EnumerateIndexesResult> result =
      EnumerateIndexesMode(shared.db, *query, &shared.containment);
  out << (result.ok() ? result->ToString()
                      : result.status().ToString() + "\n");
}

void CmdAdvise(SharedState& shared, ClientSession& session, const Command& cmd,
               std::ostream& out) {
  std::istringstream args(cmd.rest);
  double budget_kb = 128;
  std::string algo = "heuristic";
  bool from_log = false;
  bool compress = false;
  bool decompose = false;
  bool exact = false;
  int64_t budget_ms = session.options.time_budget_ms;
  // Flags first (any order), then the positional budget and algorithm.
  std::string token;
  bool have_budget = false;
  while (args >> token) {
    if (token == "--from-log") {
      from_log = true;
    } else if (token == "--compress") {
      compress = true;
    } else if (token == "--decompose") {
      decompose = true;
    } else if (token == "--exact") {
      exact = true;
    } else if (token == "--budget-ms") {
      // Strict parse: `args >> int64` would accept "1e3" as 1 and leave
      // "e3" to be misread as the space budget.
      std::string value;
      std::optional<double> parsed;
      if (!(args >> value) || !(parsed = ParseDouble(value)).has_value() ||
          !std::isfinite(*parsed) || *parsed < 0 ||
          *parsed != std::floor(*parsed)) {
        out << "--budget-ms needs a non-negative integer\n";
        return;
      }
      budget_ms = static_cast<int64_t>(*parsed);
    } else if (!have_budget) {
      // Strict parse: std::stod("12abc") silently yields 12 (and its
      // exceptions used to be the only rejection path), so junk budgets
      // were half-accepted instead of refused.
      std::optional<double> parsed = ParseDouble(token);
      if (!parsed.has_value() || !std::isfinite(*parsed) || *parsed < 0) {
        out << "bad budget '" << token << "'\n";
        return;
      }
      budget_kb = *parsed;
      have_budget = true;
    } else {
      algo = token;
    }
  }
  // The advised workload: the hand-built session workload, or the capture
  // log — raw (one weight-1 query per execution) or compressed into
  // weighted templates (weight = frequency × mean cost).
  Workload advised = session.workload;
  if (from_log) {
    if (!shared.capture_log) {
      out << "no capture log — run 'capture on' first\n";
      return;
    }
    std::vector<wlm::CaptureRecord> records = shared.capture_log->Snapshot();
    if (records.empty()) {
      out << "capture log is empty — nothing to advise\n";
      return;
    }
    if (compress) {
      Result<wlm::CompressedWorkload> compressed = wlm::CompressLog(records);
      if (!compressed.ok()) {
        out << compressed.status().ToString() << "\n";
        return;
      }
      out << compressed->report.ToString();
      advised = std::move(compressed->workload);
    } else {
      Result<Workload> raw = wlm::WorkloadFromLog(records);
      if (!raw.ok()) {
        out << raw.status().ToString() << "\n";
        return;
      }
      advised = std::move(*raw);
      out << "advising " << advised.size()
          << " captured queries (uncompressed)\n";
    }
  } else if (compress) {
    out << "--compress needs --from-log\n";
    return;
  }
  if (decompose && exact) {
    out << "--decompose and --exact are mutually exclusive\n";
    return;
  }
  // Decomposed scoring (benefit_table.h): explicit --decompose, or the
  // automatic default for big captured logs — above the template
  // threshold the exact path's per-configuration what-ifs dominate
  // advise latency, which is exactly what decomposition removes. Opt out
  // with --exact.
  session.options.decompose.enabled =
      decompose ||
      (from_log && !exact && advised.size() >= kDecomposeAutoTemplates);
  if (session.options.decompose.enabled && from_log &&
      advised.size() >= kDecomposeAutoTemplates && !decompose) {
    out << "large log (" << advised.size() << " templates >= "
        << kDecomposeAutoTemplates
        << "): using decomposed scoring (pass --exact to override)\n";
  }
  session.options.space_budget_bytes = budget_kb * 1024;
  session.options.time_budget_ms = budget_ms;
  if (algo == "greedy") {
    session.options.algorithm = SearchAlgorithm::kGreedy;
  } else if (algo == "topdown") {
    session.options.algorithm = SearchAlgorithm::kTopDown;
  } else {
    session.options.algorithm = SearchAlgorithm::kGreedyHeuristic;
  }
  // Every advise counts its what-if lookups on the shared ledger, so
  // `stats` adds them up; the memo itself stays inside this advise.
  session.options.shared_cost_cache = &shared.what_if_cache;
  Advisor advisor(&shared.db, &shared.catalog, session.options);
  Result<Recommendation> rec = advisor.Recommend(advised);
  if (!rec.ok()) {
    out << rec.status().ToString() << "\n";
    return;
  }
  session.recommendation = std::move(*rec);
  if (session.recommendation->stop_reason != StopReason::kConverged) {
    out << "stop_reason: "
        << StopReasonName(session.recommendation->stop_reason)
        << " — results are degraded (budget truncated the search)\n";
  }
  out << session.recommendation->Report();
  // Remember what this advice promised, so `drift check` can compare the
  // captured stream against it later. drift_mu: concurrent advises hold
  // SharedState::mu only shared. A budget-truncated advise is flagged
  // degraded so it cannot silently lower a converged drift baseline.
  {
    std::lock_guard<std::mutex> lock(shared.drift_mu);
    shared.DriftWatcher()->RecordPrediction(
        session.recommendation->recommended_cost, advised.TotalQueryWeight(),
        session.recommendation->stop_reason != StopReason::kConverged);
  }
  Result<RecommendationAnalysis> analysis = AnalyzeRecommendation(
      shared.db, shared.catalog, advised, *session.recommendation,
      session.options.cost_model, &shared.containment);
  if (analysis.ok()) out << analysis->ToTable();
}

void CmdWhatIf(SharedState& shared, ClientSession& session, const Command& cmd,
               std::ostream& out) {
  if (cmd.sub == "start") {
    // Seed the overlay with the current recommendation, if any.
    session.whatif.emplace(&shared.db, shared.catalog,
                           session.options.cost_model);
    size_t seeded = 0;
    if (session.recommendation.has_value()) {
      for (const IndexDefinition& def : session.recommendation->indexes) {
        if (session.whatif->AddIndex(def).ok()) ++seeded;
      }
    }
    out << "what-if session started (" << seeded
        << " indexes seeded from the recommendation)\n";
    return;
  }
  if (!session.whatif.has_value()) {
    out << "run 'whatif start' first\n";
    return;
  }
  std::istringstream args(cmd.args);
  if (cmd.sub == "add") {
    IndexDefinition def;
    std::string pattern_text;
    std::string type_text;
    args >> def.collection >> pattern_text >> type_text;
    Result<PathPattern> pattern = ParsePathPattern(pattern_text);
    if (!pattern.ok()) {
      out << pattern.status().ToString() << "\n";
      return;
    }
    def.pattern = std::move(*pattern);
    def.type = ToLower(type_text) == "double" ? ValueType::kDouble
                                              : ValueType::kVarchar;
    Result<std::string> name = session.whatif->AddIndex(std::move(def));
    out << (name.ok() ? "added virtual index " + *name + "\n"
                      : name.status().ToString() + "\n");
  } else if (cmd.sub == "drop") {
    std::string name;
    args >> name;
    Status status = session.whatif->DropIndex(name);
    out << (status.ok() ? "dropped\n" : status.ToString() + "\n");
  } else if (cmd.sub == "eval") {
    Result<EvaluateIndexesResult> result =
        session.whatif->EvaluateWorkload(session.workload);
    out << (result.ok() ? result->ToString()
                        : result.status().ToString() + "\n");
  } else {
    out << "usage: whatif start|add <coll> <pattern> "
           "<double|varchar>|drop <name>|eval\n";
  }
}

void CmdDdl(SharedState&, ClientSession& session, const Command&,
            std::ostream& out) {
  if (session.recommendation.has_value()) {
    out << ConfigurationDdlScript(session.recommendation->indexes);
  } else {
    out << "run 'advise' first\n";
  }
}

void CmdMaterialize(SharedState& shared, ClientSession& session, const Command&,
                    std::ostream& out) {
  if (!session.recommendation.has_value()) {
    out << "run 'advise' first\n";
    return;
  }
  Result<double> built = MaterializeConfiguration(
      shared.db, session.recommendation->indexes, &shared.catalog,
      session.options.cost_model.storage);
  out << (built.ok()
              ? "materialized " +
                    std::to_string(session.recommendation->indexes.size()) +
                    " indexes (" + FormatBytes(*built) + ")\n"
              : built.status().ToString() + "\n");
  if (built.ok()) CheckpointAfterBulk(shared, out);
}

void CmdRun(SharedState& shared, ClientSession&, const Command& cmd,
            std::ostream& out) {
  Result<Query> query = ParseQuery(Trim(cmd.rest));
  if (!query.ok()) {
    out << query.status().ToString() << "\n";
    return;
  }
  query->id = "shell";
  Optimizer optimizer(&shared.db, shared.default_options.cost_model);
  Result<QueryPlan> plan =
      optimizer.Optimize(*query, shared.catalog, &shared.containment);
  if (!plan.ok()) {
    out << plan.status().ToString() << "\n";
    return;
  }
  out << plan->ExplainWithStats();
  Executor executor(&shared.db, &shared.catalog,
                    shared.default_options.cost_model, &shared.buffer_pool);
  Result<ExecResult> run = executor.Execute(*plan);
  if (!run.ok()) {
    out << run.status().ToString() << "\n";
    return;
  }
  out << "-> " << run->nodes.size() << " result nodes from "
      << run->docs_matched << " docs in " << FormatDouble(run->wall_micros)
      << "us (" << FormatDouble(run->simulated_page_reads) << " pages)\n";
  std::string rendered =
      RenderResults(shared.db, query->normalized.collection, *run, 5);
  if (!rendered.empty()) out << rendered;
}

void CmdCapture(SharedState& shared, ClientSession&, const Command& cmd,
                std::ostream& out) {
  if (cmd.sub == "on") {
    size_t capacity = 4096;
    std::istringstream(cmd.args) >> capacity;
    if (!shared.capture_log) {
      shared.capture_log = std::make_unique<wlm::QueryLog>(capacity);
    }
    wlm::SetCaptureLog(shared.capture_log.get());
    out << "capture armed (" << shared.capture_log->stats().capacity
        << " record ring; 'run' and what-if queries are recorded)\n";
  } else if (cmd.sub == "off") {
    wlm::SetCaptureLog(nullptr);
    out << "capture disarmed (log retained — see 'log stats')\n";
  } else {
    out << "usage: capture on [capacity]|off\n";
  }
}

void CmdLog(SharedState& shared, ClientSession&, const Command& cmd,
            std::ostream& out) {
  if (!shared.capture_log) {
    out << "no capture log — run 'capture on' first\n";
    return;
  }
  std::string path;
  std::istringstream(cmd.args) >> path;
  if (cmd.sub == "stats") {
    out << shared.capture_log->stats().ToString() << "\n";
  } else if (cmd.sub == "save") {
    Status status =
        wlm::SaveCaptureLogFile(shared.capture_log->Snapshot(), path);
    out << (status.ok() ? "saved to " + path + "\n"
                        : status.ToString() + "\n");
  } else if (cmd.sub == "load") {
    Result<std::vector<wlm::CaptureRecord>> loaded =
        wlm::LoadCaptureLogFile(path);
    if (!loaded.ok()) {
      out << loaded.status().ToString() << "\n";
      return;
    }
    size_t appended = 0;
    for (wlm::CaptureRecord& r : *loaded) {
      if (shared.capture_log->Append(std::move(r)).ok()) ++appended;
    }
    out << "appended " << appended << " records from " << path << "\n";
  } else if (cmd.sub == "clear") {
    shared.capture_log->Clear();
    out << "cleared\n";
  } else {
    out << "usage: log stats | save <path> | load <path> | clear\n";
  }
}

void CmdDrift(SharedState& shared, ClientSession& session, const Command& cmd,
              std::ostream& out) {
  // Exclusive verb: no advise holds `mu` shared right now, but take
  // drift_mu anyway so the lazy-creation story has exactly one lock
  // discipline.
  std::lock_guard<std::mutex> drift_lock(shared.drift_mu);
  if (cmd.sub == "threshold") {
    double threshold = 0;
    if (std::istringstream(cmd.args) >> threshold) {
      shared.DriftWatcher()->set_threshold(threshold);
    }
    out << "drift threshold: " << shared.DriftWatcher()->threshold() << "\n";
    return;
  }
  if (cmd.sub != "check" && cmd.sub != "readvise") {
    out << "usage: drift check | readvise | threshold <t>\n";
    return;
  }
  if (!shared.capture_log) {
    out << "no capture log — run 'capture on' first\n";
    return;
  }
  std::vector<wlm::CaptureRecord> records = shared.capture_log->Snapshot();
  if (records.empty()) {
    out << "capture log is empty — nothing to check\n";
    return;
  }
  Result<wlm::CompressedWorkload> compressed = wlm::CompressLog(records);
  if (!compressed.ok()) {
    out << compressed.status().ToString() << "\n";
    return;
  }
  if (cmd.sub == "check") {
    Result<wlm::DriftReport> report =
        shared.DriftWatcher()->Check(compressed->workload, shared.catalog);
    out << (report.ok() ? report->ToString() : report.status().ToString())
        << "\n";
    return;
  }
  // readvise: check, and when stale run the (anytime) advisor over the
  // compressed capture; the new promise is recorded for the next check.
  Result<wlm::ReadviseOutcome> outcome = shared.DriftWatcher()->MaybeReadvise(
      compressed->workload, shared.catalog, session.options);
  if (!outcome.ok()) {
    out << outcome.status().ToString() << "\n";
    return;
  }
  out << outcome->drift.ToString() << "\n";
  if (outcome->recommendation.has_value()) {
    session.recommendation = std::move(*outcome->recommendation);
    out << session.recommendation->Report();
  } else {
    out << "configuration still fresh — no re-advising\n";
  }
}

/// `failpoint` and `failpoint list`.
void CmdFailpointList(SharedState&, ClientSession&, const Command&,
                      std::ostream& out) {
  std::vector<std::string> armed = fp::ArmedNames();
  if (armed.empty()) out << "no failpoints armed\n";
  for (const std::string& name : armed) {
    out << "  " << name << " (trips: " << fp::Trips(name) << ")\n";
  }
}

/// `failpoint <spec>`.
void CmdFailpointArm(SharedState&, ClientSession&, const Command& cmd,
                     std::ostream& out) {
  std::string spec(Trim(cmd.rest));
  Status status = fp::ArmFromSpec(spec);
  out << (status.ok() ? "armed: " + spec + "\n" : status.ToString() + "\n");
}

void CmdDb(SharedState& shared, ClientSession&, const Command& cmd,
           std::ostream& out) {
  if (cmd.sub != "status" && cmd.sub != "checkpoint") {
    out << "usage: db status | db checkpoint\n";
    return;
  }
  if (!shared.engine) {
    out << "persistence: off (memory-only; start with --data-dir)\n";
    return;
  }
  if (cmd.sub == "checkpoint") {
    Status status = shared.engine->Checkpoint();
    out << (status.ok() ? "checkpointed (epoch " +
                              std::to_string(shared.engine->epoch()) +
                              ", wal reset)\n"
                        : status.ToString() + "\n");
    return;
  }
  const storage::RecoveryStats& rec = shared.engine->recovery();
  out << "persistence: on\n"
      << "  dir: " << shared.engine->dir() << "\n"
      << "  epoch: " << shared.engine->epoch() << "\n"
      << "  next_lsn: " << shared.engine->next_lsn() << "\n"
      << "  recovery: "
      << (rec.opened_existing ? "opened existing state" : "fresh database")
      << "\n"
      << "  recovery.pages_read: " << rec.pages_read << "\n"
      << "  recovery.wal_records_replayed: " << rec.wal_records_replayed
      << "\n"
      << "  recovery.wal_clean: " << (rec.wal_was_clean ? "yes" : "no")
      << " (torn bytes: " << rec.wal_torn_bytes << ")\n";
}

void CmdStats(SharedState&, ClientSession&, const Command&, std::ostream& out) {
  // Process-wide xia::obs registry: every cache, pool, and scan counter
  // the process has touched so far, in one snapshot.
  out << obs::Registry().TakeSnapshot().ToText("  ");
}

void CmdHelp(SharedState&, ClientSession&, const Command&, std::ostream& out) {
  out << HelpText();
}

/// Handlers whose reply is fixed text.
template <const char* kReply>
void Reply(SharedState&, ClientSession&, const Command&, std::ostream& out) {
  out << kReply;
}

constexpr char kPong[] = "pong\n";

// The serving-state probes are answered by the Server before dispatch
// (server.cc). These fallbacks keep the REPL and scripted sessions from
// seeing "unknown command": a live REPL is trivially alive and ready.
constexpr char kAlive[] = "alive\n";
constexpr char kReady[] = "ready\n";
constexpr char kDrainHint[] =
    "drain applies to a running server (start with --serve)\n";

using enum LockClass;
using enum Admission;

// The verb table. Columns a row leaves out take VerbSpec's defaults:
// any second token ("*"), shared lock, light admission, not idempotent,
// no server probe, refused while draining, no help line.
//
// Exclusive rows mutate the database or catalog (gen, load, loadcoll,
// analyze, materialize, the DML verbs), install the process-wide capture
// sink (capture), drive the drift monitor's mutating pipeline (drift) or
// run the persistence engine's checkpoint/WAL machinery (db). Shared rows
// read shared state through thread-safe caches and run concurrently.
// Rows that change shared state are not idempotent: the server may have
// run one whose reply was lost, and re-sending it would apply it twice
// (a re-sent insert appends a second document under a new doc id).
// clang-format off
constexpr VerbSpec kVerbTable[] = {
    {.verb = "gen", .lock = kExclusive, .handler = CmdGen,
     .help = "gen xmark <docs> | gen tpox <cust> <orders> <secs>"},
    {.verb = "load", .lock = kExclusive, .handler = CmdLoad,
     .help = "load <collection> <file.xml>"},
    {.verb = "savecoll", .handler = CmdSaveColl,
     .help = "savecoll <collection> <dir> | loadcoll <collection> <dir>"},
    {.verb = "loadcoll", .lock = kExclusive, .handler = CmdLoadColl},
    {.verb = "analyze", .lock = kExclusive, .handler = CmdAnalyze,
     .help = "analyze <collection>"},
    {.verb = "workload", .idempotent = true, .handler = CmdWorkload,
     .help = "workload xmark|tpox | workload file <path>"},
    {.verb = "query", .idempotent = true, .handler = CmdQuery,
     .help = "query <weight> <text...>"},
    // `update insert|delete` edits the session workload; every other
    // `update` is the DML document replace.
    {.verb = "update", .sub = "insert", .idempotent = true,
     .handler = CmdUpdate,
     .help = "update <insert|delete> <collection> <weight> <pattern>"},
    {.verb = "update", .sub = "delete", .idempotent = true,
     .handler = CmdUpdate},
    {.verb = "insert", .lock = kExclusive, .handler = CmdInsert,
     .help = "insert <collection> <xml...> | delete <collection> <doc-id>"},
    {.verb = "delete", .lock = kExclusive, .handler = CmdDelete},
    {.verb = "update", .lock = kExclusive, .handler = CmdDmlUpdate,
     .help = "update <collection> <doc-id> <xml...>   (replace document)"},
    {.verb = "show", .idempotent = true, .handler = CmdShow,
     .help = "show workload|catalog|candidates|dag|stats <coll>"},
    {.verb = "enumerate", .idempotent = true, .handler = CmdEnumerate,
     .help = "enumerate <query...>"},
    {.verb = "advise", .admission = kAdvise, .idempotent = true,
     .handler = CmdAdvise,
     .help = "advise [--from-log] [--compress] [--decompose|--exact]"
             " [--budget-ms <N>] <budget_kb> [greedy|heuristic|topdown]"},
    {.verb = "whatif", .idempotent = true, .handler = CmdWhatIf,
     .help = "whatif start|add <coll> <pattern> <double|varchar>"
             "|drop <name>|eval"},
    {.verb = "capture", .lock = kExclusive, .handler = CmdCapture,
     .help = "capture on [capacity]|off"},
    {.verb = "log", .sub = "stats", .idempotent = true, .handler = CmdLog,
     .help = "log stats | save <path> | load <path> | clear"},
    {.verb = "log", .handler = CmdLog},
    {.verb = "drift", .lock = kExclusive, .idempotent = true,
     .handler = CmdDrift, .help = "drift check | readvise | threshold <t>"},
    {.verb = "drift", .sub = "readvise", .lock = kExclusive,
     .admission = kAdvise, .handler = CmdDrift},
    {.verb = "failpoint", .sub = "", .idempotent = true,
     .handler = CmdFailpointList,
     .help = "failpoint <name=mode[,mode...]>|<name=off>|list"},
    {.verb = "failpoint", .sub = "list", .idempotent = true,
     .handler = CmdFailpointList},
    {.verb = "failpoint", .handler = CmdFailpointArm},
    {.verb = "db", .sub = "status", .lock = kExclusive, .idempotent = true,
     .handler = CmdDb,
     .help = "db status | db checkpoint   (persistent storage, --data-dir)"},
    {.verb = "db", .lock = kExclusive, .handler = CmdDb},
    {.verb = "health", .lock = kNone, .idempotent = true,
     .probe = ServerProbe::kHealth, .handler = Reply<kAlive>,
     .help = "health | ready | drain      (serving state;"
             " see docs/PROTOCOL.md)"},
    {.verb = "ready", .lock = kNone, .idempotent = true,
     .probe = ServerProbe::kReady, .handler = Reply<kReady>},
    {.verb = "drain", .lock = kNone, .idempotent = true,
     .probe = ServerProbe::kDrain, .handler = Reply<kDrainHint>},
    {.verb = "ddl", .idempotent = true, .handler = CmdDdl,
     .help = "ddl | materialize | run <query...> | stats | ping | help"
             " | quit"},
    {.verb = "materialize", .lock = kExclusive, .handler = CmdMaterialize},
    {.verb = "run", .idempotent = true, .handler = CmdRun},
    {.verb = "stats", .idempotent = true, .drain_ok = true,
     .handler = CmdStats},
    {.verb = "ping", .lock = kNone, .idempotent = true,
     .handler = Reply<kPong>},
    {.verb = "help", .lock = kNone, .idempotent = true, .handler = CmdHelp},
    {.verb = "quit", .lock = kNone, .idempotent = true, .drain_ok = true},
    {.verb = "exit", .lock = kNone, .idempotent = true, .drain_ok = true},
};
// clang-format on

/// The row for `verb` and `sub` (both lowercased): the exact sub-verb
/// row, else the verb's "*" row; null for an unknown verb.
const VerbSpec* FindVerb(std::string_view verb, std::string_view sub) {
  const VerbSpec* any_sub = nullptr;
  for (const VerbSpec& row : kVerbTable) {
    if (row.verb != verb) continue;
    if (row.sub == sub) return &row;
    if (row.sub == "*") any_sub = &row;
  }
  return any_sub;
}

}  // namespace

wlm::DriftMonitor* SharedState::DriftWatcher() {
  if (!drift) {
    drift =
        std::make_unique<wlm::DriftMonitor>(&db, default_options.cost_model);
  }
  return drift.get();
}

std::span<const VerbSpec> VerbTable() { return kVerbTable; }

Command ParseCommand(std::string_view line) {
  Command cmd;
  cmd.verb = ToLower(PopToken(&line));
  line = line.substr(0, line.find('\n'));
  cmd.rest = line;
  cmd.sub = ToLower(PopToken(&line));
  cmd.args = line;
  if (!cmd.verb.empty()) cmd.spec = FindVerb(cmd.verb, cmd.sub);
  return cmd;
}

const std::string& HelpText() {
  static const std::string text = [] {
    std::string help = "commands:\n";
    for (const VerbSpec& row : kVerbTable) {
      if (!row.help.empty()) help.append("  ").append(row.help).append("\n");
    }
    return help;
  }();
  return text;
}

CommandOutcome CommandDispatcher::Execute(const std::string& line,
                                          ClientSession* session,
                                          std::ostream& out) {
  Command cmd = ParseCommand(line);
  if (cmd.verb.empty()) return CommandOutcome::kHandled;
  if (cmd.spec == nullptr) {
    out << "unknown command '" << cmd.verb << "' — type 'help'\n";
    return CommandOutcome::kHandled;
  }
  if (cmd.spec->handler == nullptr) return CommandOutcome::kQuit;
  std::shared_lock<std::shared_mutex> read_lock(shared_->mu, std::defer_lock);
  std::unique_lock<std::shared_mutex> write_lock(shared_->mu, std::defer_lock);
  if (cmd.spec->lock == LockClass::kShared) read_lock.lock();
  if (cmd.spec->lock == LockClass::kExclusive) write_lock.lock();
  cmd.spec->handler(*shared_, *session, cmd, out);
  return CommandOutcome::kHandled;
}

}  // namespace server
}  // namespace xia
