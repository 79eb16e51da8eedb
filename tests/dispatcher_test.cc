// xia::server verb table — every row of the dispatcher's table driven
// through CommandDispatcher::Execute on a small XMark + TPoX database,
// with one happy-path line and one malformed-argument line per row, plus
// the invariants the rest of the system reads off the table: the `help`
// text, the lock class of every verb, the retry classes the wire client
// relies on, sub-verb case-insensitivity, verbs that answer without the
// state lock, and the verb table in docs/PROTOCOL.md.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "server/session.h"
#include "storage/storage_engine.h"
#include "wlm/capture.h"
#include "xmldata/tpox_gen.h"
#include "xmldata/xmark_gen.h"

namespace xia {
namespace server {
namespace {

namespace fs = std::filesystem;

/// The `help` reply as the hand-written HelpText() literal produced it
/// before help was generated from the table.
constexpr char kGoldenHelp[] =
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

const char kQuery[] =
    "for $i in doc(\"xmark\")/site/regions/africa/item where $i/quantity > 5 "
    "return $i/name";

/// The table row `verb`/`sub` names exactly (not via lookup).
const VerbSpec* Row(std::string_view verb, std::string_view sub) {
  for (const VerbSpec& row : VerbTable()) {
    if (row.verb == verb && row.sub == sub) return &row;
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// Row by row: happy path and malformed arguments.

enum class StepKind { kSetup, kHappy, kMalformed };

/// One line and a substring its reply must contain. "$DIR" in the line
/// expands to the case's scratch directory; "$Q" to an XMark query.
struct Step {
  StepKind kind;
  std::string line;
  std::string reply;
};

Step Setup(std::string line, std::string reply = "") {
  return {StepKind::kSetup, std::move(line), std::move(reply)};
}
Step Happy(std::string line, std::string reply) {
  return {StepKind::kHappy, std::move(line), std::move(reply)};
}
Step Bad(std::string line, std::string reply) {
  return {StepKind::kMalformed, std::move(line), std::move(reply)};
}

struct RowCase {
  std::string verb;
  std::string sub;  // The row's sub column.
  std::vector<Step> steps;
};

std::vector<RowCase> RowCases() {
  const std::string insert_xml =
      "<site><regions><africa><item id=\"t1\"><quantity>9</quantity>"
      "<name>t</name></item></africa></regions></site>";
  // clang-format off
  return {
      {"gen",
       "*",
       {Happy("gen tpox 3 4 2", "generated tpox collections"),
        Happy("GEN XMARK 3", "generated xmark: "),
        Bad("gen frob 3", "usage: gen xmark"),
        Bad("gen xmark 3", "collection xmark already exists")}},
      {"load",
       "*",
       {Happy("load docs $DIR/doc.xml", "loaded 1 document (run 'analyze"),
        Bad("load docs $DIR/missing.xml", "cannot open")}},
      {"savecoll",
       "*",
       {Happy("savecoll xmark $DIR/coll", "saved to $DIR/coll"),
        Bad("savecoll nosuch $DIR/other", "collection nosuch does not exist")}},
      {"loadcoll",
       "*",
       {Setup("savecoll xmark $DIR/coll", "saved to"),
        Happy("loadcoll copy $DIR/coll", "loaded 4 documents (analyzed)"),
        Bad("loadcoll copy2 $DIR/none", "is not a directory")}},
      {"analyze",
       "*",
       {Happy("analyze xmark", "statistics rebuilt"),
        Bad("analyze nosuch", "collection nosuch does not exist")}},
      {"workload",
       "*",
       {Setup("workload tpox", "built-in tpox workload"),
        Setup("workload xmark", "built-in xmark workload"),
        Happy("workload file $DIR/workload.txt", "loaded 1 queries from"),
        Bad("workload file $DIR/none.txt", "cannot open workload file"),
        Bad("workload frob", "usage: workload")}},
      {"query",
       "*",
       {Happy("query 2 $Q", "added"),
        Bad("query 1 select nonsense((", "ParseError")}},
      {"update",
       "insert",
       {Happy("update insert xmark 2.0 /site/regions/africa/item", "added"),
        Bad("update insert xmark", "expected 'update <kind>")}},
      {"update",
       "delete",
       {Happy("UPDATE DELETE xmark 1 /site/people/person", "added"),
        Bad("update delete xmark heavy /a", "expected 'update <kind>")}},
      {"insert",
       "*",
       {Happy("insert xmark " + insert_xml, "inserted doc 4 of xmark"),
        Bad("insert xmark", "usage: insert"),
        Bad("insert nosuch <a/>", "collection nosuch does not exist")}},
      {"delete",
       "*",
       {Setup("capture on", "capture armed"),
        Happy("delete xmark 1", "deleted doc 1 of xmark"),
        Bad("delete xmark -3", "usage: delete")}},
      {"update",
       "*",
       {Happy("update xmark 2 " + insert_xml, "updated doc"),
        Bad("update xmark 2", "usage: update <collection> <doc-id> <xml...>\n"),
        Bad("update xmark", "| update <insert|delete>")}},
      {"show",
       "*",
       {Setup("show candidates", "run 'advise' first"),
        Setup("workload xmark"), Setup("query 1 $Q", "added"),
        Setup("show workload", "site/regions/africa/item"),
        Setup("show stats xmark", "/site"),
        Setup("show stats nosuch", "no statistics for 'nosuch'"),
        Happy("SHOW CATALOG", "(empty)"), Bad("show frob", "usage: show"),
        Setup("advise 64", "Recommended configuration"),
        Happy("show candidates", "Basic candidate set"),
        Happy("show dag", "/site/")}},
      {"enumerate",
       "*",
       {Happy("enumerate $Q", "quantity"),
        Bad("enumerate for $i in", "ParseError")}},
      {"advise",
       "*",
       {Setup("workload xmark"),
        Happy("advise --budget-ms 60000 64 topdown",
              "Recommended configuration"),
        Happy("advise 64 greedy", "Recommended configuration"),
        Happy("advise --decompose 64", "Decomposed scoring:"),
        Bad("advise --compress 64", "--compress needs --from-log"),
        Bad("advise --decompose --exact 64", "mutually exclusive"),
        Bad("advise --from-log 64", "no capture log"),
        Setup("capture on", "capture armed"),
        Bad("advise --from-log 64", "capture log is empty"),
        Setup("run $Q", "result nodes"),
        Happy("advise --from-log 64", "captured queries (uncompressed)"),
        Happy("advise --from-log --compress 64", "Recommended configuration"),
        Setup("advise --budget-ms 0 64", "Recommended configuration")}},
      {"whatif",
       "*",
       {Setup("whatif eval", "run 'whatif start' first"),
        Setup("workload xmark"), Setup("advise 64"),
        Setup("WHATIF START", "(15 indexes seeded"),
        Happy("whatif add xmark /site/regions/*/item/quantity double",
              "added virtual index"),
        Happy("whatif eval", "Q1"),
        Bad("whatif add xmark ((( varchar", "path must start with"),
        Bad("whatif drop nosuch", "index nosuch does not exist"),
        Happy("whatif drop idx_site_regions_africa_item_quantity", "dropped"),
        Bad("whatif frob", "usage: whatif")}},
      {"capture",
       "*",
       {Happy("capture on 64", "capture armed (64 record ring"),
        Happy("capture off", "capture disarmed"),
        Bad("capture frob", "usage: capture")}},
      {"log",
       "stats",
       {Bad("log stats", "no capture log"), Setup("capture on"),
        Happy("LOG STATS", "captured 0, dropped 0"),
        Bad("log stats extra", "captured 0")}},
      {"log",
       "*",
       {Bad("log save $DIR/log.txt", "no capture log"), Setup("capture on"),
        Setup("run $Q", "result nodes"),
        Happy("log save $DIR/log.txt", "saved to $DIR/log.txt"),
        Happy("log load $DIR/log.txt", "appended 1 records"),
        Bad("log load $DIR/none.txt", "cannot open capture log"),
        Happy("log clear", "cleared"), Bad("log frob", "usage: log")}},
      {"drift",
       "*",
       {Bad("drift check", "no capture log"), Setup("capture on"),
        Bad("drift check", "capture log is empty"), Setup("workload xmark"),
        Setup("advise 64"), Setup("run $Q", "result nodes"),
        Happy("drift check", "drift: current"),
        Happy("drift threshold 0.5", "drift threshold: 0.5"),
        Bad("drift threshold abc", "drift threshold: 0.5"),
        Bad("drift frob", "usage: drift")}},
      {"drift",
       "readvise",
       {Bad("drift readvise", "no capture log"), Setup("capture on"),
        Setup("workload xmark"), Setup("advise 64"),
        Setup("run $Q", "result nodes"),
        Happy("drift readvise", "Recommended configuration"),
        Setup("materialize", "materialized 1 indexes"),
        Happy("drift readvise", "still fresh"),
        Bad("DRIFT READVISE now", "still fresh")}},
      {"failpoint",
       "",
       {Happy("failpoint", "no failpoints armed"),
        Bad("failpoint \t", "no failpoints armed")}},
      {"failpoint",
       "list",
       {Setup("failpoint dispatcher.test=error", "armed:"),
        Happy("FAILPOINT LIST", "dispatcher.test (trips: 0)"),
        Bad("failpoint list extra", "dispatcher.test"),
        Setup("failpoint dispatcher.test=off", "armed:")}},
      {"failpoint",
       "*",
       {Happy("failpoint dispatcher.test=off", "armed: dispatcher.test=off"),
        Bad("failpoint =bogus", "failpoint spec must be")}},
      {"db",
       "status",
       {Happy("DB STATUS", "persistence: off"),
        Bad("db status now", "persistence: off")}},
      {"db",
       "*",
       {Happy("db checkpoint", "persistence: off"),
        Bad("db frob", "usage: db")}},
      {"health", "*", {Happy("health", "alive"), Bad("health now", "alive")}},
      {"ready", "*", {Happy("ready", "ready"), Bad("ready now", "ready")}},
      {"drain",
       "*",
       {Happy("drain", "applies to a running server"),
        Bad("drain now", "applies to a running server")}},
      {"ddl",
       "*",
       {Bad("ddl", "run 'advise' first"), Setup("workload xmark"),
        Setup("advise 64"), Happy("ddl", "CREATE INDEX")}},
      {"materialize",
       "*",
       {Bad("materialize", "run 'advise' first"), Setup("workload xmark"),
        Setup("advise 64"), Happy("materialize", "materialized 15 indexes"),
        Setup("show catalog", "CREATE INDEX")}},
      {"run",
       "*",
       {Happy("run $Q", "result nodes from"),
        Bad("run for $i in", "ParseError")}},
      {"stats",
       "*",
       {Happy("stats", " = "), Bad("stats please", " = ")}},
      {"ping", "*", {Happy("ping", "pong"), Bad("PING now", "pong")}},
      {"help", "*", {Happy("help", "commands:\n"), Bad("help me", "ddl |")}},
      {"quit", "*", {Happy("quit", ""), Bad("QUIT now", "")}},
      {"exit", "*", {Happy("exit", ""), Bad("exit 1", "")}},
  };
  // clang-format on
}

void PrintTo(const RowCase& row_case, std::ostream* os) {
  *os << row_case.verb << " " << row_case.sub;
}

std::string CaseName(const testing::TestParamInfo<RowCase>& info) {
  const std::string& sub = info.param.sub;
  if (sub == "*") return info.param.verb + "_any";
  return info.param.verb + "_" + (sub.empty() ? "bare" : sub);
}

std::string Expand(std::string text, const std::string& dir) {
  for (auto [token, value] : {std::pair<std::string, std::string>{"$DIR", dir},
                              {"$Q", kQuery}}) {
    for (size_t at = text.find(token); at != std::string::npos;
         at = text.find(token, at + value.size())) {
      text.replace(at, token.size(), value);
    }
  }
  return text;
}

/// A small XMark + TPoX database per case, and a scratch directory with
/// one loadable document and one workload file.
class DispatcherRowTest : public testing::TestWithParam<RowCase> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path().string() + "/xia_dispatcher_test_" +
           CaseName({GetParam(), 0});
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    std::ofstream(dir_ + "/doc.xml")
        << "<site><item><price>7</price></item></site>";
    std::ofstream(dir_ + "/workload.txt") << "query q1 1.0 " << kQuery << "\n";
    if (GetParam().verb == "gen") return;  // That case generates its own.
    ASSERT_TRUE(
        PopulateXMark(&shared_.db, "xmark", 4, XMarkParams(), 42).ok());
    ASSERT_TRUE(PopulateTpox(&shared_.db, 3, 4, 2, TpoxParams(), 11).ok());
  }

  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
  SharedState shared_;
  // Declared after shared_: disarms the capture sink before the log it
  // points at is destroyed.
  wlm::ScopedCaptureLog capture_guard_;
  ClientSession session_{shared_};
  CommandDispatcher dispatcher_{&shared_};
};

TEST_P(DispatcherRowTest, HappyAndMalformed) {
  const RowCase& row_case = GetParam();
  const VerbSpec* row = Row(row_case.verb, row_case.sub);
  ASSERT_NE(row, nullptr) << "no table row " << row_case.verb << " "
                          << row_case.sub;
  std::set<StepKind> seen;
  for (const Step& step : row_case.steps) {
    const std::string line = Expand(step.line, dir_);
    SCOPED_TRACE(line);
    std::ostringstream out;
    CommandOutcome outcome = dispatcher_.Execute(line, &session_, out);
    const std::string reply = out.str();
    EXPECT_NE(reply.find(Expand(step.reply, dir_)), std::string::npos)
        << reply;
    if (step.kind == StepKind::kSetup) {
      EXPECT_EQ(reply.find("unknown command"), std::string::npos) << reply;
      EXPECT_NE(reply.rfind("usage:", 0), 0u) << reply;
      continue;
    }
    // Happy and malformed lines are this row's lines.
    EXPECT_EQ(ParseCommand(line).spec, row);
    EXPECT_EQ(outcome, row->handler == nullptr ? CommandOutcome::kQuit
                                               : CommandOutcome::kHandled);
    seen.insert(step.kind);
  }
  EXPECT_TRUE(seen.count(StepKind::kHappy)) << "no happy-path line";
  EXPECT_TRUE(seen.count(StepKind::kMalformed)) << "no malformed line";
}

INSTANTIATE_TEST_SUITE_P(Rows, DispatcherRowTest,
                         testing::ValuesIn(RowCases()), CaseName);

TEST(DispatcherTableTest, EveryRowHasACase) {
  std::vector<RowCase> cases = RowCases();
  for (const VerbSpec& row : VerbTable()) {
    bool found = false;
    for (const RowCase& c : cases) {
      found |= c.verb == row.verb && c.sub == row.sub;
    }
    EXPECT_TRUE(found) << row.verb << " " << row.sub;
  }
  EXPECT_EQ(cases.size(), VerbTable().size());
}

TEST(DispatcherTableTest, PersistenceAttachedVerbsCheckpoint) {
  fs::path dir = fs::temp_directory_path() / "xia_dispatcher_test_engine";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    SharedState shared;
    storage::StorageOptions no_sync;
    no_sync.sync = false;
    Result<std::unique_ptr<storage::StorageEngine>> opened =
        storage::StorageEngine::Open(
            (dir / "db").string(), &shared.db, &shared.catalog,
            &shared.buffer_pool, shared.default_options.cost_model.storage,
            no_sync);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    shared.engine = std::move(*opened);
    ClientSession session(shared);
    CommandDispatcher dispatcher(&shared);
    auto run = [&](const std::string& line) {
      std::ostringstream out;
      dispatcher.Execute(line, &session, out);
      return out.str();
    };
    EXPECT_NE(run("gen xmark 3").find("checkpointed (epoch"),
              std::string::npos);
    EXPECT_NE(run("gen tpox 2 2 2").find("checkpointed (epoch"),
              std::string::npos);
    EXPECT_NE(run("savecoll xmark " + (dir / "coll").string())
                  .find("saved to"),
              std::string::npos);
    EXPECT_NE(run("loadcoll copy " + (dir / "coll").string())
                  .find("checkpointed (epoch"),
              std::string::npos);
    EXPECT_NE(run("analyze xmark").find("statistics rebuilt"),
              std::string::npos);
    EXPECT_NE(run("insert xmark <site><regions/></site>").find("inserted doc"),
              std::string::npos);
    EXPECT_NE(run("update xmark 0 <site><people/></site>").find("updated doc"),
              std::string::npos);
    EXPECT_NE(run("delete xmark 1").find("deleted doc 1"), std::string::npos);
    run("workload xmark");
    run("advise 64");
    EXPECT_NE(run("materialize").find("checkpointed (epoch"),
              std::string::npos);
    std::string status = run("db status");
    EXPECT_NE(status.find("persistence: on"), std::string::npos) << status;
    EXPECT_NE(status.find("recovery: fresh database"), std::string::npos);
    EXPECT_NE(run("db checkpoint").find("wal reset"), std::string::npos);
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Table invariants.

TEST(DispatcherTableTest, HelpIsTheGoldenText) {
  EXPECT_EQ(HelpText(), kGoldenHelp);
  SharedState shared;
  ClientSession session(shared);
  std::ostringstream out;
  CommandDispatcher(&shared).Execute("help", &session, out);
  EXPECT_EQ(out.str(), kGoldenHelp);
}

TEST(DispatcherTableTest, LockClassesPerVerb) {
  for (const char* line : {"quit", "exit", "ping", "help", "health", "ready",
                           "drain"}) {
    EXPECT_EQ(ParseCommand(line).spec->lock, LockClass::kNone) << line;
  }
  for (const char* line :
       {"gen xmark 4", "load docs x.xml", "loadcoll docs d", "analyze docs",
        "materialize", "capture on", "drift check", "drift readvise",
        "drift threshold 2", "db status", "db checkpoint", "insert docs <a/>",
        "delete docs 1", "update docs 1 <a/>", "UPDATE docs 1 <a/>"}) {
    EXPECT_EQ(ParseCommand(line).spec->lock, LockClass::kExclusive) << line;
  }
  for (const char* line :
       {"savecoll docs d", "workload xmark", "query 1 /a", "show catalog",
        "enumerate /a", "advise 64", "whatif start", "ddl", "run /a",
        "stats", "log stats", "log save p", "log clear", "failpoint list",
        "failpoint a=off", "update insert docs 1 /a",
        "update DELETE docs 1 /a"}) {
    EXPECT_EQ(ParseCommand(line).spec->lock, LockClass::kShared) << line;
  }
}

TEST(DispatcherTableTest, RetryAndAdmissionClassesMatchTheWireClient) {
  // The lines tests/retry_test.cc classifies, and their classes.
  for (const char* line :
       {"ping", "help", "health", "ready", "stats", "show catalog",
        "run /site/item", "enumerate /a/b", "advise 64", "workload xmark",
        "query 1.0 /a", "whatif start", "drain", "db status", "log stats",
        "drift check", "failpoint list", "failpoint", "quit", "PING",
        "Advise --decompose 64", "update insert 2.0 /site/item",
        "update delete 3", "UPDATE INSERT 1.0 /a/b"}) {
    ASSERT_NE(ParseCommand(line).spec, nullptr) << line;
    EXPECT_TRUE(ParseCommand(line).spec->idempotent) << line;
  }
  for (const char* line :
       {"gen xmark 4", "load docs /tmp/x.xml", "loadcoll docs /tmp/d",
        "savecoll docs /tmp/d", "analyze docs", "materialize", "capture on",
        "log clear", "log save /tmp/l", "drift readvise", "db checkpoint",
        "failpoint server.read=error:Internal",
        "insert docs <site><item/></site>", "delete docs 3",
        "update docs 3 <site><item/></site>", "INSERT docs <a/>",
        "Update docs 0 <a/>"}) {
    ASSERT_NE(ParseCommand(line).spec, nullptr) << line;
    EXPECT_FALSE(ParseCommand(line).spec->idempotent) << line;
  }
  EXPECT_EQ(ParseCommand("frobnicate").spec, nullptr);
  // Advise admission: exactly `advise` and `drift readvise`.
  std::set<std::string> advise_rows;
  for (const VerbSpec& row : VerbTable()) {
    if (row.admission == Admission::kAdvise) {
      advise_rows.insert(std::string(row.verb) + " " + std::string(row.sub));
    }
  }
  EXPECT_EQ(advise_rows, (std::set<std::string>{"advise *", "drift readvise"}));
  EXPECT_EQ(ParseCommand("Drift ReAdvise").spec->admission, Admission::kAdvise);
  EXPECT_EQ(ParseCommand("drift check").spec->admission, Admission::kLight);
}

TEST(DispatcherTableTest, ServerProbesAndDrainAllowList) {
  std::map<std::string, ServerProbe> probes;
  std::set<std::string> drain_ok;
  for (const VerbSpec& row : VerbTable()) {
    if (row.probe != ServerProbe::kNone) {
      probes[std::string(row.verb)] = row.probe;
    }
    if (row.drain_ok) drain_ok.insert(std::string(row.verb));
  }
  EXPECT_EQ(probes, (std::map<std::string, ServerProbe>{
                        {"health", ServerProbe::kHealth},
                        {"ready", ServerProbe::kReady},
                        {"drain", ServerProbe::kDrain}}));
  EXPECT_EQ(drain_ok, (std::set<std::string>{"stats", "quit", "exit"}));
}

TEST(DispatcherTableTest, SubVerbsAreCaseInsensitive) {
  SharedState shared;
  wlm::ScopedCaptureLog capture_guard;
  ClientSession session(shared);
  CommandDispatcher dispatcher(&shared);
  auto run = [&](const std::string& line) {
    std::ostringstream out;
    dispatcher.Execute(line, &session, out);
    return out.str();
  };
  run("capture on");
  for (const auto& [upper, lower] :
       std::vector<std::pair<std::string, std::string>>{
           {"LOG STATS", "log stats"},
           {"DB STATUS", "db status"},
           {"SHOW CATALOG", "show catalog"},
           {"WHATIF START", "whatif start"}}) {
    std::string upper_reply = run(upper);
    EXPECT_EQ(upper_reply, run(lower)) << upper;
    EXPECT_EQ(upper_reply.find("usage:"), std::string::npos) << upper_reply;
  }
}

TEST(DispatcherTableTest, LockFreeVerbsAnswerWhileStateIsLocked) {
  SharedState shared;
  ClientSession session(shared);
  CommandDispatcher dispatcher(&shared);
  std::unique_lock<std::shared_mutex> held(shared.mu);
  for (const char* line : {"frobnicate now", "ping", "help", "health",
                           "ready", "drain", "quit"}) {
    std::future<std::string> reply = std::async(std::launch::async, [&] {
      std::ostringstream out;
      dispatcher.Execute(line, &session, out);
      return out.str();
    });
    ASSERT_EQ(reply.wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << line << " waited for SharedState::mu";
    if (std::string(line) == "frobnicate now") {
      EXPECT_EQ(reply.get(), "unknown command 'frobnicate' — type 'help'\n");
    }
  }
}

// ---------------------------------------------------------------------
// docs/PROTOCOL.md's verb table agrees with the code table.

/// The class PROTOCOL.md prints for a row.
std::string DocClass(const VerbSpec& row) {
  if (row.admission == Admission::kAdvise) return "advise";
  if (row.probe != ServerProbe::kNone) return "serving";
  return row.lock == LockClass::kExclusive ? "exclusive" : "light";
}

bool IsWord(const std::string& token) {
  if (token.empty()) return false;
  for (char c : token) {
    if (c < 'a' || c > 'z') return false;
  }
  return true;
}

TEST(DispatcherTableTest, ProtocolDocVerbTableMatchesTheCode) {
  std::ifstream doc(std::string(XIA_SOURCE_DIR) + "/docs/PROTOCOL.md");
  ASSERT_TRUE(doc) << "cannot open docs/PROTOCOL.md";
  std::string line;
  bool in_verbs = false;
  std::set<std::string> documented;
  size_t rows = 0;
  while (std::getline(doc, line)) {
    if (line.rfind("## ", 0) == 0) in_verbs = line == "## Verbs";
    if (!in_verbs || line.rfind("| `", 0) != 0) continue;
    // Columns split on unescaped pipes: | verb | class | effect |
    std::vector<std::string> cells(1);
    for (size_t i = 1; i < line.size(); ++i) {
      if (line[i] == '\\' && i + 1 < line.size() && line[i + 1] == '|') {
        cells.back() += '|';
        ++i;
      } else if (line[i] == '|') {
        cells.emplace_back();
      } else {
        cells.back() += line[i];
      }
    }
    ASSERT_GE(cells.size(), 3u) << line;
    std::string doc_class = cells[1];
    std::erase(doc_class, '*');
    std::erase(doc_class, ' ');
    ++rows;
    // Each `code span` in the verb column names a verb and, when its
    // second word is a literal (alternatives split on '|'), sub-verbs.
    const std::string& verbs = cells[0];
    for (size_t open = verbs.find('`'); open != std::string::npos;) {
      size_t close = verbs.find('`', open + 1);
      ASSERT_NE(close, std::string::npos) << line;
      std::istringstream span(verbs.substr(open + 1, close - open - 1));
      open = verbs.find('`', close + 1);
      std::string verb;
      std::string second;
      span >> verb >> second;
      std::vector<std::string> subs;
      std::istringstream alternatives(second);
      for (std::string alt; std::getline(alternatives, alt, '|');) {
        subs.push_back(IsWord(alt) ? alt : "*");
      }
      if (second.empty()) subs = {""};
      for (const std::string& sub : subs) {
        const VerbSpec* row = ParseCommand(verb + " " + sub).spec;
        ASSERT_NE(row, nullptr) << "PROTOCOL.md names unknown verb " << verb;
        EXPECT_EQ(DocClass(*row), doc_class)
            << "PROTOCOL.md: `" << verb << " " << sub << "`";
      }
      documented.insert(verb);
    }
  }
  EXPECT_GT(rows, 20u) << "the ## Verbs table was not found";
  for (const VerbSpec& row : VerbTable()) {
    EXPECT_TRUE(documented.count(std::string(row.verb)))
        << "verb `" << row.verb << "` is missing from PROTOCOL.md";
  }
}

}  // namespace
}  // namespace server
}  // namespace xia
