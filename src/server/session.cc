#include "server/session.h"

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

}  // namespace

wlm::DriftMonitor* SharedState::DriftWatcher() {
  if (!drift) {
    drift =
        std::make_unique<wlm::DriftMonitor>(&db, default_options.cost_model);
  }
  return drift.get();
}

const char* HelpText() {
  return
      "commands:\n"
      "  gen xmark <docs> | gen tpox <cust> <orders> <secs>\n"
      "  load <collection> <file.xml>\n"
      "  savecoll <collection> <dir> | loadcoll <collection> <dir>\n"
      "  analyze <collection>\n"
      "  workload xmark|tpox | workload file <path>\n"
      "  query <weight> <text...>\n"
      "  update <insert|delete> <collection> <weight> <pattern>\n"
      "  insert <collection> <xml...> | delete <collection> <doc-id>\n"
      "  update <collection> <doc-id> <xml...>   (replace document)\n"
      "  show workload|catalog|candidates|dag|stats <coll>\n"
      "  enumerate <query...>\n"
      "  advise [--from-log] [--compress] [--decompose|--exact]"
      " [--budget-ms <N>] <budget_kb> [greedy|heuristic|topdown]\n"
      "  whatif start|add <coll> <pattern> <double|varchar>|drop <name>|eval\n"
      "  capture on [capacity]|off\n"
      "  log stats | save <path> | load <path> | clear\n"
      "  drift check | readvise | threshold <t>\n"
      "  failpoint <name=mode[,mode...]>|<name=off>|list\n"
      "  db status | db checkpoint   (persistent storage, --data-dir)\n"
      "  health | ready | drain      (serving state; see docs/PROTOCOL.md)\n"
      "  ddl | materialize | run <query...> | stats | ping | help | quit\n";
}

VerbClass CommandDispatcher::Classify(const std::string& line) {
  std::istringstream input(line);
  std::string verb;
  std::string sub;
  input >> verb >> sub;
  verb = ToLower(verb);
  if (verb == "advise") return VerbClass::kAdvise;
  if (verb == "drift" && ToLower(sub) == "readvise") return VerbClass::kAdvise;
  return VerbClass::kLight;
}

bool CommandDispatcher::IsExclusiveVerb(const std::string& verb) {
  return IsExclusiveVerb(verb, "");
}

bool CommandDispatcher::IsExclusiveVerb(const std::string& verb,
                                        const std::string& sub) {
  // Verbs that mutate the shared database/catalog (gen, load, loadcoll,
  // analyze, materialize, and the DML verbs insert/delete/update),
  // install/uninstall the process-wide capture sink (capture), drive the
  // drift monitor's long mutating pipeline (drift), or run the
  // persistence engine's checkpoint/WAL machinery (db). Everything else
  // reads shared state through thread-safe caches and may run
  // concurrently.
  //
  // `update` is two verbs: `update <insert|delete> ...` edits the
  // per-session workload (read-only on shared state), while
  // `update <collection> <doc> <xml>` is a DML document update and must
  // serialize like every other mutation.
  if (verb == "update") return sub != "insert" && sub != "delete";
  return verb == "gen" || verb == "load" || verb == "loadcoll" ||
         verb == "analyze" || verb == "materialize" || verb == "capture" ||
         verb == "drift" || verb == "db" || verb == "insert" ||
         verb == "delete";
}

CommandOutcome CommandDispatcher::Execute(const std::string& line,
                                          ClientSession* session,
                                          std::ostream& out) {
  std::istringstream input(line);
  std::string command;
  input >> command;
  command = ToLower(command);
  std::string rest;
  std::getline(input, rest);
  std::istringstream params(rest);
  if (command.empty()) return CommandOutcome::kHandled;
  if (command == "quit" || command == "exit") return CommandOutcome::kQuit;
  if (command == "ping") {
    out << "pong\n";
    return CommandOutcome::kHandled;
  }
  if (command == "help") {
    out << HelpText();
    return CommandOutcome::kHandled;
  }
  // Serving-state verbs are normally intercepted by the Server before
  // the dispatcher (server.cc — they must answer without locks). These
  // fallbacks keep the REPL and scripted sessions from seeing "unknown
  // command": a live REPL is trivially alive and ready.
  if (command == "health") {
    out << "alive\n";
    return CommandOutcome::kHandled;
  }
  if (command == "ready") {
    out << "ready\n";
    return CommandOutcome::kHandled;
  }
  if (command == "drain") {
    out << "drain applies to a running server (start with --serve)\n";
    return CommandOutcome::kHandled;
  }

  // Reader/writer discipline: see IsExclusiveVerb. The sub-token matters
  // only for `update` (session-workload edit vs DML document update).
  std::string sub;
  {
    std::istringstream peek(rest);
    peek >> sub;
    sub = ToLower(sub);
  }
  std::shared_lock<std::shared_mutex> read_lock(shared_->mu,
                                                std::defer_lock);
  std::unique_lock<std::shared_mutex> write_lock(shared_->mu,
                                                 std::defer_lock);
  if (IsExclusiveVerb(command, sub)) {
    write_lock.lock();
  } else {
    read_lock.lock();
  }

  if (command == "gen") {
    CmdGen(params, out);
  } else if (command == "load") {
    CmdLoad(params, out);
  } else if (command == "savecoll" || command == "loadcoll") {
    CmdSaveLoadColl(command, params, out);
  } else if (command == "analyze") {
    CmdAnalyze(params, out);
  } else if (command == "workload") {
    CmdWorkload(session, params, out);
  } else if (command == "query") {
    CmdQuery(session, rest, out);
  } else if (command == "update") {
    if (sub == "insert" || sub == "delete") {
      CmdUpdate(session, rest, out);
    } else {
      CmdDmlUpdate(rest, out);
    }
  } else if (command == "insert") {
    CmdInsert(rest, out);
  } else if (command == "delete") {
    CmdDelete(params, out);
  } else if (command == "show") {
    CmdShow(session, params, out);
  } else if (command == "enumerate") {
    CmdEnumerate(std::string(Trim(rest)), out);
  } else if (command == "advise") {
    CmdAdvise(session, params, out);
  } else if (command == "whatif") {
    CmdWhatIf(session, params, out);
  } else if (command == "ddl") {
    CmdDdl(session, out);
  } else if (command == "materialize") {
    CmdMaterialize(session, out);
  } else if (command == "run") {
    CmdRun(std::string(Trim(rest)), out);
  } else if (command == "capture") {
    CmdCapture(params, out);
  } else if (command == "log") {
    CmdLog(params, out);
  } else if (command == "drift") {
    CmdDrift(session, params, out);
  } else if (command == "failpoint") {
    CmdFailpoint(std::string(Trim(rest)), out);
  } else if (command == "db") {
    CmdDb(params, out);
  } else if (command == "stats") {
    CmdStats(out);
  } else {
    out << "unknown command '" << command << "' — type 'help'\n";
  }
  return CommandOutcome::kHandled;
}

void CommandDispatcher::CmdGen(std::istream& args, std::ostream& out) {
  std::string kind;
  args >> kind;
  if (kind == "xmark") {
    int docs = 10;
    args >> docs;
    Status status =
        PopulateXMark(&shared_->db, "xmark", docs, XMarkParams(), 42);
    out << (status.ok()
                ? "generated xmark: " +
                      std::to_string(
                          shared_->db.GetCollection("xmark")->num_nodes()) +
                      " nodes\n"
                : status.ToString() + "\n");
    if (status.ok()) CheckpointAfterBulk(out);
  } else if (kind == "tpox") {
    int customers = 50;
    int orders = 100;
    int securities = 20;
    args >> customers >> orders >> securities;
    Status status = PopulateTpox(&shared_->db, customers, orders, securities,
                                 TpoxParams(), 11);
    out << (status.ok() ? "generated tpox collections\n"
                        : status.ToString() + "\n");
    if (status.ok()) CheckpointAfterBulk(out);
  } else {
    out << "usage: gen xmark <docs> | gen tpox <c> <o> <s>\n";
  }
}

void CommandDispatcher::CmdLoad(std::istream& args, std::ostream& out) {
  std::string collection;
  std::string path;
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
  if (shared_->db.GetCollection(collection) == nullptr) {
    Status created =
        shared_->engine
            ? shared_->engine->CreateCollection(collection)
            : shared_->db.CreateCollection(collection).status();
    if (!created.ok()) {
      out << created.ToString() << "\n";
      return;
    }
  }
  Status status = shared_->engine
                      ? shared_->engine->LoadXml(collection, buffer.str())
                      : shared_->db.LoadXml(collection, buffer.str());
  out << (status.ok() ? "loaded 1 document (run 'analyze " + collection +
                            "' to refresh stats)\n"
                      : status.ToString() + "\n");
}

void CommandDispatcher::CmdSaveLoadColl(const std::string& verb,
                                        std::istream& args,
                                        std::ostream& out) {
  std::string collection;
  std::string dir;
  args >> collection >> dir;
  if (verb == "savecoll") {
    Status status = SaveCollectionToDirectory(shared_->db, collection, dir);
    out << (status.ok() ? "saved to " + dir + "\n"
                        : status.ToString() + "\n");
  } else {
    Result<size_t> loaded =
        LoadCollectionFromDirectory(&shared_->db, collection, dir);
    out << (loaded.ok() ? "loaded " + std::to_string(*loaded) +
                              " documents (analyzed)\n"
                        : loaded.status().ToString() + "\n");
    if (loaded.ok()) CheckpointAfterBulk(out);
  }
}

void CommandDispatcher::CmdAnalyze(std::istream& args, std::ostream& out) {
  std::string collection;
  args >> collection;
  Status status = shared_->engine ? shared_->engine->Analyze(collection)
                                  : shared_->db.Analyze(collection);
  out << (status.ok() ? "statistics rebuilt\n" : status.ToString() + "\n");
}

void CommandDispatcher::CmdWorkload(ClientSession* session, std::istream& args,
                                    std::ostream& out) {
  std::string kind;
  args >> kind;
  if (kind == "xmark") {
    session->workload = MakeXMarkWorkload("xmark");
    out << "loaded built-in xmark workload (" << session->workload.size()
        << " queries)\n";
  } else if (kind == "tpox") {
    session->workload = MakeTpoxWorkload();
    out << "loaded built-in tpox workload (" << session->workload.size()
        << " queries)\n";
  } else if (kind == "file") {
    std::string path;
    args >> path;
    Result<Workload> loaded = LoadWorkloadFile(path);
    if (!loaded.ok()) {
      out << loaded.status().ToString() << "\n";
      return;
    }
    session->workload = std::move(*loaded);
    out << "loaded " << session->workload.size() << " queries from " << path
        << "\n";
  } else {
    out << "usage: workload xmark|tpox | workload file <path>\n";
  }
}

void CommandDispatcher::CmdQuery(ClientSession* session,
                                 const std::string& rest, std::ostream& out) {
  std::istringstream params(rest);
  double weight = 1.0;
  params >> weight;
  std::string text;
  std::getline(params, text);
  Status status =
      session->workload.AddQueryText(std::string(Trim(text)), weight);
  out << (status.ok() ? "added\n" : status.ToString() + "\n");
}

void CommandDispatcher::CmdUpdate(ClientSession* session,
                                  const std::string& rest, std::ostream& out) {
  Result<Workload> parsed = ParseWorkloadText("update " + rest);
  if (!parsed.ok()) {
    out << parsed.status().ToString() << "\n";
  } else {
    session->workload.AddUpdate(parsed->updates()[0]);
    out << "added\n";
  }
}

namespace {

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

}  // namespace

void CommandDispatcher::CmdInsert(const std::string& rest,
                                  std::ostream& out) {
  std::istringstream params(rest);
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
      shared_->engine ? shared_->engine->InsertDocument(collection, body)
                      : dml::ApplyInsert(&shared_->db, &shared_->catalog,
                                         collection, body);
  ReportDml(wlm::CaptureKind::kInsert, collection, result, out);
}

void CommandDispatcher::CmdDelete(std::istream& args, std::ostream& out) {
  std::string collection;
  int64_t doc = -1;
  if (!(args >> collection >> doc) || doc < 0) {
    out << "usage: delete <collection> <doc-id>\n";
    return;
  }
  DocId id = static_cast<DocId>(doc);
  Result<dml::DmlResult> result =
      shared_->engine ? shared_->engine->DeleteDocument(collection, id)
                      : dml::ApplyDelete(&shared_->db, &shared_->catalog,
                                         collection, id);
  ReportDml(wlm::CaptureKind::kDelete, collection, result, out);
}

void CommandDispatcher::CmdDmlUpdate(const std::string& rest,
                                     std::ostream& out) {
  std::istringstream params(rest);
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
      shared_->engine
          ? shared_->engine->UpdateDocument(collection, id, body)
          : dml::ApplyUpdate(&shared_->db, &shared_->catalog, collection, id,
                             body);
  ReportDml(wlm::CaptureKind::kUpdate, collection, result, out);
}

void CommandDispatcher::CmdShow(ClientSession* session, std::istream& args,
                                std::ostream& out) {
  std::string what;
  args >> what;
  if (what == "workload") {
    out << session->workload.Describe();
  } else if (what == "stats") {
    std::string collection;
    args >> collection;
    const PathSynopsis* synopsis = shared_->db.synopsis(collection);
    if (synopsis == nullptr) {
      out << "no statistics for '" << collection << "' (run 'analyze')\n";
    } else {
      out << synopsis->Describe(/*max_paths=*/60);
    }
  } else if (what == "catalog") {
    for (const CatalogEntry* entry : shared_->catalog.AllIndexes()) {
      out << "  " << entry->def.DdlString()
          << (entry->is_virtual ? "  [virtual]\n" : "\n");
    }
    if (shared_->catalog.size() == 0) out << "  (empty)\n";
  } else if (what == "candidates" || what == "dag") {
    if (!session->recommendation.has_value()) {
      out << "run 'advise' first\n";
      return;
    }
    if (what == "candidates") {
      out << session->recommendation->enumeration.ToString();
    } else {
      out << session->recommendation->dag.ToText(
          session->recommendation->candidates);
    }
  } else {
    out << "usage: show workload|catalog|candidates|dag|stats <coll>\n";
  }
}

void CommandDispatcher::CmdEnumerate(const std::string& rest,
                                     std::ostream& out) {
  Result<Query> query = ParseQuery(rest);
  if (!query.ok()) {
    out << query.status().ToString() << "\n";
    return;
  }
  query->id = "shell";
  Result<EnumerateIndexesResult> result =
      EnumerateIndexesMode(shared_->db, *query, &shared_->containment);
  out << (result.ok() ? result->ToString()
                      : result.status().ToString() + "\n");
}

void CommandDispatcher::CmdAdvise(ClientSession* session, std::istream& args,
                                  std::ostream& out) {
  double budget_kb = 128;
  std::string algo = "heuristic";
  bool from_log = false;
  bool compress = false;
  bool decompose = false;
  bool exact = false;
  int64_t budget_ms = session->options.time_budget_ms;
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
  Workload advised = session->workload;
  if (from_log) {
    if (!shared_->capture_log) {
      out << "no capture log — run 'capture on' first\n";
      return;
    }
    std::vector<wlm::CaptureRecord> records = shared_->capture_log->Snapshot();
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
  session->options.decompose.enabled =
      decompose ||
      (from_log && !exact && advised.size() >= kDecomposeAutoTemplates);
  if (session->options.decompose.enabled && from_log &&
      advised.size() >= kDecomposeAutoTemplates && !decompose) {
    out << "large log (" << advised.size() << " templates >= "
        << kDecomposeAutoTemplates
        << "): using decomposed scoring (pass --exact to override)\n";
  }
  session->options.space_budget_bytes = budget_kb * 1024;
  session->options.time_budget_ms = budget_ms;
  if (algo == "greedy") {
    session->options.algorithm = SearchAlgorithm::kGreedy;
  } else if (algo == "topdown") {
    session->options.algorithm = SearchAlgorithm::kTopDown;
  } else {
    session->options.algorithm = SearchAlgorithm::kGreedyHeuristic;
  }
  // Every advise counts its what-if lookups on the shared ledger, so
  // `stats` adds them up; the memo itself stays inside this advise.
  session->options.shared_cost_cache = &shared_->what_if_cache;
  Advisor advisor(&shared_->db, &shared_->catalog, session->options);
  Result<Recommendation> rec = advisor.Recommend(advised);
  if (!rec.ok()) {
    out << rec.status().ToString() << "\n";
    return;
  }
  session->recommendation = std::move(*rec);
  if (session->recommendation->stop_reason != StopReason::kConverged) {
    out << "stop_reason: "
        << StopReasonName(session->recommendation->stop_reason)
        << " — results are degraded (budget truncated the search)\n";
  }
  out << session->recommendation->Report();
  // Remember what this advice promised, so `drift check` can compare the
  // captured stream against it later. drift_mu: concurrent advises hold
  // SharedState::mu only shared. A budget-truncated advise is flagged
  // degraded so it cannot silently lower a converged drift baseline.
  {
    std::lock_guard<std::mutex> lock(shared_->drift_mu);
    shared_->DriftWatcher()->RecordPrediction(
        session->recommendation->recommended_cost,
        advised.TotalQueryWeight(),
        session->recommendation->stop_reason != StopReason::kConverged);
  }
  Result<RecommendationAnalysis> analysis = AnalyzeRecommendation(
      shared_->db, shared_->catalog, advised, *session->recommendation,
      session->options.cost_model, &shared_->containment);
  if (analysis.ok()) out << analysis->ToTable();
}

void CommandDispatcher::CmdWhatIf(ClientSession* session, std::istream& args,
                                  std::ostream& out) {
  std::string sub;
  args >> sub;
  if (sub == "start") {
    // Seed the overlay with the current recommendation, if any.
    session->whatif.emplace(&shared_->db, shared_->catalog,
                            session->options.cost_model);
    size_t seeded = 0;
    if (session->recommendation.has_value()) {
      for (const IndexDefinition& def : session->recommendation->indexes) {
        if (session->whatif->AddIndex(def).ok()) ++seeded;
      }
    }
    out << "what-if session started (" << seeded
        << " indexes seeded from the recommendation)\n";
    return;
  }
  if (!session->whatif.has_value()) {
    out << "run 'whatif start' first\n";
    return;
  }
  if (sub == "add") {
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
    Result<std::string> name = session->whatif->AddIndex(std::move(def));
    out << (name.ok() ? "added virtual index " + *name + "\n"
                      : name.status().ToString() + "\n");
  } else if (sub == "drop") {
    std::string name;
    args >> name;
    Status status = session->whatif->DropIndex(name);
    out << (status.ok() ? "dropped\n" : status.ToString() + "\n");
  } else if (sub == "eval") {
    Result<EvaluateIndexesResult> result =
        session->whatif->EvaluateWorkload(session->workload);
    out << (result.ok() ? result->ToString()
                        : result.status().ToString() + "\n");
  } else {
    out << "usage: whatif start|add <coll> <pattern> "
           "<double|varchar>|drop <name>|eval\n";
  }
}

void CommandDispatcher::CmdDdl(ClientSession* session, std::ostream& out) {
  if (session->recommendation.has_value()) {
    out << ConfigurationDdlScript(session->recommendation->indexes);
  } else {
    out << "run 'advise' first\n";
  }
}

void CommandDispatcher::CmdMaterialize(ClientSession* session,
                                       std::ostream& out) {
  if (!session->recommendation.has_value()) {
    out << "run 'advise' first\n";
    return;
  }
  Result<double> built = MaterializeConfiguration(
      shared_->db, session->recommendation->indexes, &shared_->catalog,
      session->options.cost_model.storage);
  out << (built.ok()
              ? "materialized " +
                    std::to_string(session->recommendation->indexes.size()) +
                    " indexes (" + FormatBytes(*built) + ")\n"
              : built.status().ToString() + "\n");
  if (built.ok()) CheckpointAfterBulk(out);
}

void CommandDispatcher::CmdRun(const std::string& rest, std::ostream& out) {
  Result<Query> query = ParseQuery(rest);
  if (!query.ok()) {
    out << query.status().ToString() << "\n";
    return;
  }
  query->id = "shell";
  Optimizer optimizer(&shared_->db, shared_->default_options.cost_model);
  Result<QueryPlan> plan =
      optimizer.Optimize(*query, shared_->catalog, &shared_->containment);
  if (!plan.ok()) {
    out << plan.status().ToString() << "\n";
    return;
  }
  out << plan->ExplainWithStats();
  Executor executor(&shared_->db, &shared_->catalog,
                    shared_->default_options.cost_model,
                    &shared_->buffer_pool);
  Result<ExecResult> run = executor.Execute(*plan);
  if (!run.ok()) {
    out << run.status().ToString() << "\n";
    return;
  }
  out << "-> " << run->nodes.size() << " result nodes from "
      << run->docs_matched << " docs in " << FormatDouble(run->wall_micros)
      << "us (" << FormatDouble(run->simulated_page_reads) << " pages)\n";
  std::string rendered =
      RenderResults(shared_->db, query->normalized.collection, *run, 5);
  if (!rendered.empty()) out << rendered;
}

void CommandDispatcher::CmdCapture(std::istream& args, std::ostream& out) {
  std::string sub;
  args >> sub;
  if (sub == "on") {
    size_t capacity = 4096;
    args >> capacity;
    if (!shared_->capture_log) {
      shared_->capture_log = std::make_unique<wlm::QueryLog>(capacity);
    }
    wlm::SetCaptureLog(shared_->capture_log.get());
    out << "capture armed (" << shared_->capture_log->stats().capacity
        << " record ring; 'run' and what-if queries are recorded)\n";
  } else if (sub == "off") {
    wlm::SetCaptureLog(nullptr);
    out << "capture disarmed (log retained — see 'log stats')\n";
  } else {
    out << "usage: capture on [capacity]|off\n";
  }
}

void CommandDispatcher::CmdLog(std::istream& args, std::ostream& out) {
  std::string sub;
  args >> sub;
  if (!shared_->capture_log) {
    out << "no capture log — run 'capture on' first\n";
    return;
  }
  if (sub == "stats") {
    out << shared_->capture_log->stats().ToString() << "\n";
  } else if (sub == "save") {
    std::string path;
    args >> path;
    Status status =
        wlm::SaveCaptureLogFile(shared_->capture_log->Snapshot(), path);
    out << (status.ok() ? "saved to " + path + "\n"
                        : status.ToString() + "\n");
  } else if (sub == "load") {
    std::string path;
    args >> path;
    Result<std::vector<wlm::CaptureRecord>> loaded =
        wlm::LoadCaptureLogFile(path);
    if (!loaded.ok()) {
      out << loaded.status().ToString() << "\n";
      return;
    }
    size_t appended = 0;
    for (wlm::CaptureRecord& r : *loaded) {
      if (shared_->capture_log->Append(std::move(r)).ok()) ++appended;
    }
    out << "appended " << appended << " records from " << path << "\n";
  } else if (sub == "clear") {
    shared_->capture_log->Clear();
    out << "cleared\n";
  } else {
    out << "usage: log stats | save <path> | load <path> | clear\n";
  }
}

void CommandDispatcher::CmdDrift(ClientSession* session, std::istream& args,
                                 std::ostream& out) {
  // Exclusive verb (IsExclusiveVerb): no advise holds `mu` shared right
  // now, but take drift_mu anyway so the lazy-creation story has exactly
  // one lock discipline.
  std::string sub;
  args >> sub;
  std::lock_guard<std::mutex> drift_lock(shared_->drift_mu);
  if (sub == "threshold") {
    double threshold = 0;
    if (args >> threshold) {
      shared_->DriftWatcher()->set_threshold(threshold);
    }
    out << "drift threshold: " << shared_->DriftWatcher()->threshold()
        << "\n";
    return;
  }
  if (sub != "check" && sub != "readvise") {
    out << "usage: drift check | readvise | threshold <t>\n";
    return;
  }
  if (!shared_->capture_log) {
    out << "no capture log — run 'capture on' first\n";
    return;
  }
  std::vector<wlm::CaptureRecord> records = shared_->capture_log->Snapshot();
  if (records.empty()) {
    out << "capture log is empty — nothing to check\n";
    return;
  }
  Result<wlm::CompressedWorkload> compressed = wlm::CompressLog(records);
  if (!compressed.ok()) {
    out << compressed.status().ToString() << "\n";
    return;
  }
  if (sub == "check") {
    Result<wlm::DriftReport> report =
        shared_->DriftWatcher()->Check(compressed->workload, shared_->catalog);
    out << (report.ok() ? report->ToString() : report.status().ToString())
        << "\n";
    return;
  }
  // readvise: check, and when stale run the (anytime) advisor over the
  // compressed capture; the new promise is recorded for the next check.
  Result<wlm::ReadviseOutcome> outcome = shared_->DriftWatcher()->MaybeReadvise(
      compressed->workload, shared_->catalog, session->options);
  if (!outcome.ok()) {
    out << outcome.status().ToString() << "\n";
    return;
  }
  out << outcome->drift.ToString() << "\n";
  if (outcome->recommendation.has_value()) {
    session->recommendation = std::move(*outcome->recommendation);
    out << session->recommendation->Report();
  } else {
    out << "configuration still fresh — no re-advising\n";
  }
}

void CommandDispatcher::CmdFailpoint(const std::string& rest,
                                     std::ostream& out) {
  if (rest.empty() || rest == "list") {
    std::vector<std::string> armed = fp::ArmedNames();
    if (armed.empty()) out << "no failpoints armed\n";
    for (const std::string& name : armed) {
      out << "  " << name << " (trips: " << fp::Trips(name) << ")\n";
    }
    return;
  }
  Status status = fp::ArmFromSpec(rest);
  out << (status.ok() ? "armed: " + rest + "\n" : status.ToString() + "\n");
}

void CommandDispatcher::CmdDb(std::istream& args, std::ostream& out) {
  std::string sub;
  args >> sub;
  if (sub == "status") {
    if (!shared_->engine) {
      out << "persistence: off (memory-only; start with --data-dir)\n";
      return;
    }
    const storage::RecoveryStats& rec = shared_->engine->recovery();
    out << "persistence: on\n"
        << "  dir: " << shared_->engine->dir() << "\n"
        << "  epoch: " << shared_->engine->epoch() << "\n"
        << "  next_lsn: " << shared_->engine->next_lsn() << "\n"
        << "  recovery: "
        << (rec.opened_existing ? "opened existing state" : "fresh database")
        << "\n"
        << "  recovery.pages_read: " << rec.pages_read << "\n"
        << "  recovery.wal_records_replayed: " << rec.wal_records_replayed
        << "\n"
        << "  recovery.wal_clean: " << (rec.wal_was_clean ? "yes" : "no")
        << " (torn bytes: " << rec.wal_torn_bytes << ")\n";
  } else if (sub == "checkpoint") {
    if (!shared_->engine) {
      out << "persistence: off (memory-only; start with --data-dir)\n";
      return;
    }
    Status status = shared_->engine->Checkpoint();
    out << (status.ok() ? "checkpointed (epoch " +
                              std::to_string(shared_->engine->epoch()) +
                              ", wal reset)\n"
                        : status.ToString() + "\n");
  } else {
    out << "usage: db status | db checkpoint\n";
  }
}

void CommandDispatcher::CheckpointAfterBulk(std::ostream& out) {
  if (!shared_->engine) return;
  // Bulk generation/materialization bypasses the WAL (the engine logs
  // only logical mutations it executed itself); the checkpoint here is
  // what makes the bulk result durable.
  Status status = shared_->engine->Checkpoint();
  out << (status.ok()
              ? "checkpointed (epoch " +
                    std::to_string(shared_->engine->epoch()) + ")\n"
              : "checkpoint failed: " + status.ToString() + "\n");
}

void CommandDispatcher::CmdStats(std::ostream& out) {
  // Process-wide xia::obs registry: every cache, pool, and scan counter
  // the process has touched so far, in one snapshot.
  out << obs::Registry().TakeSnapshot().ToText("  ");
}

}  // namespace server
}  // namespace xia
